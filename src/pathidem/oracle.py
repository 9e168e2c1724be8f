"""Brute-force validators: exhaustive enumeration of small representations,
their submodule lattices, and truncated ideal computations, used to
cross-check the structural classifier against the categorical definitions.

Consistency verdicts are evidence within the enumeration budget, not proof;
counterexamples are certificates. What the tests show is agreement with the
classifier over F_2 and F_3 at total dimension <= 2, on the vertex
idempotents e_S of small sweep quivers (up to three vertices and three
edges) and on their conjugates u e_S u^-1, and agreement with a direct
transcription of the definitions over F_2 and F_3 on e_S and on idempotents
with path terms. Disagreements that need larger modules or other fields are
not ruled out by that.

Representations are enumerated up to isomorphism (`enumerate_reps`), and a
dimension vector whose answer its support and e's live terms force is
counted, not built. README "The oracles" gives the isomorphism reduction,
the plan cache (`_plan`), the submodule format (`reps.Submodule`) and the
counting rules (`_acts_on_a_summand`, `_outside_reach`). The enumerators
need a prime field.
`reps_checked`, the verdicts, their witnesses and every `BudgetExceeded`
are those of the full search over every rep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
from math import comb
from typing import Callable, Iterator, Optional

from .algebra import (
    AlgElem,
    AlgebraError,
    TruncatedIdeal,
    path_element,
    vertex_idempotent,
)
from .linalg import FieldRowSpace, image, join
from .quivers import Quiver
from .reps import (
    Representation,
    Submodule,
    _generated,
    corner_algebra,
    corner_module,
    gamma,
    in_category_e,
    morita_surrogate_check,
    submodule_from_local,
)
from .rings import Ring


class OracleError(ValueError):
    pass


class BudgetExceeded(OracleError):
    """The representation cap of `budget` was reached: `reps_checked` is
    that cap, the number of representations yielded or counted, `dims` the
    dimension vector (vertex -> dimension) being enumerated, and
    `reps_built` how many of the reps checked were built, not only
    counted."""

    def __init__(self, budget: OracleBudget, dims: dict[str, int], reps_built: int):
        super().__init__(f"representation cap {budget.max_reps} exceeded")
        self.reps_checked = budget.max_reps
        self.dims = dims
        self.reps_built = reps_built


@dataclass(frozen=True)
class OracleBudget:
    """Bounds of one enumeration: the total dimension of the representations,
    and how many of them `enumerate_reps` may yield or count (at least one
    per isomorphism class, so the cap counts reduced representations, not
    matrix tuples) before it raises `BudgetExceeded`."""

    max_total_dim: int = 3
    max_reps: int = 200_000

    def __post_init__(self):
        if self.max_total_dim < 0:
            raise OracleError("max_total_dim must be >= 0")
        if self.max_reps < 1:
            raise OracleError("max_reps must be >= 1")


@dataclass
class Verdict:
    """An oracle's answer. `reps_checked` counts the representations
    `enumerate_reps` stands for, at least one per isomorphism class, built
    or only counted; a counterexample's `module` is the first of them that
    fails, one representative of its class."""

    kind: str  # "consistent" | "counterexample"
    reps_checked: int = 0
    module: Optional[Representation] = None
    submodule: Optional[Submodule] = None

    @property
    def is_counterexample(self) -> bool:
        return self.kind == "counterexample"

    def to_json(self) -> dict:
        if self.kind == "counterexample":
            out = {"verdict": "counterexample", "module": self.module.to_json()}
            if self.submodule is not None:
                out["submodule"] = self.submodule.to_json()
            return out
        return {"verdict": self.kind, "reps_checked": self.reps_checked}


def _dim_vectors(nverts: int, total: int) -> Iterator[tuple[int, ...]]:
    """The vectors of `nverts` nonnegative integers summing to `total`, in
    lexicographic order: the gaps between nverts - 1 bars set among
    total + nverts - 1 slots (stars and bars)."""
    if not nverts:
        if not total:
            yield ()
        return
    end = total + nverts - 1
    for bars in combinations(range(end), nverts - 1):
        cuts = (-1, *bars, end)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def enumerate_reps(
    q: Quiver,
    ring: Ring,
    budget: OracleBudget = OracleBudget(),
    skip: Optional[Callable[[dict[str, int]], bool]] = None,
) -> Iterator[Representation | int]:
    """At least one representation of each isomorphism class with total
    dimension <= budget, in a deterministic order: dimension vectors by total
    and then lexicographically, then edge matrices in row-major counter order
    over the field elements.

    Every verdict the oracles draw is invariant under isomorphism, so only
    the anchor edges of each dimension vector (see `_vector_plans`) are
    restricted, each to one normal form per orbit; every other edge runs over
    all its matrices, lazily. The output is a subsequence of the enumeration
    of all matrix tuples in the same order. `budget.max_reps` counts the
    representations yielded or counted. The field elements are held only from the
    first dimension vector with a matrix entry outside the anchors, and an
    anchor's normal forms only from the first vector whose reps are built.

    Only the first `max_reps + 1` field elements are held. In the row-major
    product of a vector's factors, a factor first takes its j-th value at
    position j times the product of the later factor lengths, which is at
    least j. With `count` reps counted before the vector, the cap fires at
    position `max_reps - count <= max_reps`, so no element past the
    `max_reps`-th is reached, and truncating an element factor only moves
    positions at least `max_reps + 1`.

    Each total is walked through its plan (`_vector_plans`), kept per
    (quiver, field, total) by `_plan` where the total has at most
    `_PLAN_VECTORS` vectors (README "The oracles" gives its size); a larger
    total is planned vector by vector as the walk meets it. Each call builds
    its own dims dict per vector, so no caller can change a plan.

    `skip`, when given, is called once with each dimension vector (vertex ->
    dimension) before any of its reps is built. Where it returns True, the
    reps of that vector are counted, not built: one int, their number, is
    yielded in their place, and the cap is checked on the count as if each
    had been yielded, so a `BudgetExceeded` raised there carries the cap and
    dims it would carry without `skip`; its `reps_built` counts only the
    reps yielded. A counted vector builds no normal form. Without `skip`
    only representations are yielded."""
    if ring.kind != "Fp":
        raise OracleError("representation enumeration requires a prime field")
    n = len(q.vertices)
    elems = None  # the field elements, held once an edge runs over them
    count = built = 0
    for total in range(budget.max_total_dim + 1 if n else 1):  # no vertex: total 0 only
        if not n or comb(total + n - 1, n - 1) <= _PLAN_VECTORS:
            plan = _plan(q, ring, total)
        else:
            plan = _vector_plans(q, ring, total)
        for vec, anchors, shapes, size in plan:
            dims = dict(zip(q.vertices, vec))
            if skip is not None and skip(dims):
                count += size
                if count > budget.max_reps:
                    raise BudgetExceeded(budget, dims, built)
                yield size
                continue
            # one factor per anchor (its forms), one per entry of every other edge
            factors = []
            for eid, r, c in shapes:
                if eid in anchors:
                    src, dst = q.edge_by_id[eid]
                    factors.append(
                        _loop_forms(ring, r) if src == dst else _rank_forms(ring, r, c)
                    )
                elif r * c:
                    elems = elems or tuple(ring.elements()[: budget.max_reps + 1])
                    factors += [elems] * (r * c)
            for flat in product(*factors):
                it = iter(flat)
                maps = {}
                for eid, r, c in shapes:
                    if eid in anchors:
                        maps[eid] = next(it)
                    else:
                        maps[eid] = tuple([tuple(islice(it, c)) for _ in range(r)])
                count += 1
                if count > budget.max_reps:
                    raise BudgetExceeded(budget, dims, built)
                built += 1
                yield Representation._from_canonical(q, ring, dims, maps)


# A total of at most _PLAN_VECTORS dimension vectors has its plan kept, in a
# cache of at most _PLANS plans; a larger total is planned as it is walked
_PLAN_VECTORS = 64
_PLANS = 512


@lru_cache(maxsize=_PLANS)
def _plan(q: Quiver, ring: Ring, total: int) -> tuple[tuple, ...]:
    """`_vector_plans(q, ring, total)`, kept. Only tuples are kept: callers
    build their own dicts from them."""
    return tuple(_vector_plans(q, ring, total))


def _vector_plans(q: Quiver, ring: Ring, total: int) -> Iterator[tuple]:
    """For each dimension vector of `total`, in enumeration order: the
    vector, its anchor edge ids, the shape (edge id, rows, columns) of every
    edge, and how many reps `enumerate_reps` yields for it, the product of
    the anchors' form counts and of p to the entries of every other edge.
    No normal form is built.

    Anchors are picked greedily in declared edge order: an edge whose ends
    both have nonzero dimension and touch no earlier anchor (a loop uses its
    one vertex). Anchors share no vertex, so the base changes at their ends
    act on each anchor independently and bring all of them to normal form at
    once: [I_k 0; 0 0] under GL(d_t) x GL(d_s) on an edge between two
    vertices (`_rank_forms`, min(d_t, d_s) + 1 of them), the rational
    canonical form under conjugation on a loop (`_loop_forms`, counted by
    `_loop_count`) (Derksen-Weyman, An Introduction to Quiver
    Representations, 2017)."""
    p = ring.modulus
    at = {v: i for i, v in enumerate(q.vertices)}
    edges = [(eid, at[src], at[dst]) for eid, src, dst in q.edges]
    for vec in _dim_vectors(len(q.vertices), total):
        anchors, used, size = [], set(), 1
        for eid, s, t in edges:
            if vec[s] and vec[t] and s not in used and t not in used:
                used.update((s, t))
                anchors.append(eid)
                size *= _loop_count(p, vec[s]) if s == t else min(vec[s], vec[t]) + 1
            else:
                size *= p ** (vec[s] * vec[t])
        shapes = tuple((eid, vec[t], vec[s]) for eid, s, t in edges)
        yield vec, tuple(anchors), shapes, size


def _outside_reach(e: AlgElem) -> Callable[[dict[str, int]], bool]:
    """The `skip` of `enumerate_reps` that passes over every M outside
    Ae-Mod: whether dims has a vertex of nonzero dimension outside the
    reach, the vertices reachable from the targets of e's live terms along
    edges between vertices of nonzero dimension. AeM lies in the reach (an
    edge into or out of a zero space acts as 0), so no M with these dims
    has M = AeM."""
    q = e.quiver
    ends = [(q.path_source(p), q.path_target(p)) for p, _ in e.terms]
    succ = {v: [q.edge_target(eid) for eid in out] for v, out in q.out_edges.items()}

    def skip(dims: dict[str, int]) -> bool:
        seen = {t for s, t in ends if dims[s] and dims[t]}
        stack = list(seen)
        while stack:
            for w in succ[stack.pop()]:
                if dims[w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return any(d and v not in seen for v, d in dims.items())

    return skip


def _acts_on_a_summand(e: AlgElem) -> Callable[[dict[str, int]], bool]:
    """The `skip` of `enumerate_reps` that passes over every dimension
    vector on which e acts on every M as the projection onto a summand.
    Let L be the vertices v of nonzero dimension whose e_v is a live term.
    The rule holds when every live term is a trivial path with coefficient
    1 and no edge between two vertices of nonzero dimension joins L to a
    vertex outside L, in either direction. Then eM = M|_L, which is
    edge-closed, so Γ_e(M) = AeM = M|_L, and M restricted to the other
    vertices is a submodule complement of it. L = ∅ (no live term, eM = 0)
    and L = the support (e acts as the identity) are the extreme cases; for
    any other L no M with these dims lies in Ae-Mod."""
    q, one = e.quiver, e.ring.one()
    ends = [
        (q.path_source(p), q.path_target(p), p.is_trivial and c == one)
        for p, c in e.terms
    ]
    links = [(s, t) for _, s, t in q.edges if s != t]  # a loop joins nothing

    def skip(dims: dict[str, int]) -> bool:
        part = set()  # L
        for s, t, unit in ends:
            if dims[s] and dims[t]:
                if not unit:
                    return False
                part.add(s)
        if part:  # L = ∅ joins nothing
            for s, t in links:
                if dims[s] and dims[t] and (s in part) != (t in part):
                    return False
        return True

    return skip


def _special_skip(e: AlgElem) -> Callable[[dict[str, int]], bool]:
    """The `skip` of `check_special_by_modules`: the vectors outside the
    reach (no M in Ae-Mod) and those on which e acts as the projection onto
    a summand (`_acts_on_a_summand`: only M = 0 lies in Ae-Mod, or e acts
    as the identity and every N = AeN)."""
    outside, summand = _outside_reach(e), _acts_on_a_summand(e)
    return lambda dims: summand(dims) or outside(dims)  # the cheaper rule first


@lru_cache(maxsize=None)
def _rank_forms(ring: Ring, rows: int, cols: int) -> tuple[tuple, ...]:
    """[I_k 0; 0 0] for k = 0..min(rows, cols): one matrix per orbit of
    GL(rows) x GL(cols), in lexicographic order."""
    zero, one = ring.zero(), ring.one()
    # forms k and k + 1 first differ at entry (k, k), 0 against 1
    return tuple(
        tuple(tuple(one if i == j < k else zero for j in range(cols)) for i in range(rows))
        for k in range(min(rows, cols) + 1)
    )


@lru_cache(maxsize=None)
def _loop_forms(ring: Ring, d: int) -> tuple[tuple, ...]:
    """The rational canonical forms of d x d matrices over F_p, one per
    similarity class, in lexicographic order: for each chain of monic
    invariant factors f_1 | ... | f_m of positive degrees summing to d, the
    block-diagonal matrix of their companion matrices."""
    p = ring.modulus
    forms = []
    for chain in _invariant_factor_chains(p, d):
        rows = [[0] * d for _ in range(d)]
        off = 0
        for f in chain:  # coefficients from the constant term up, monic
            n = len(f) - 1
            for i in range(n):
                if i:
                    rows[off + i][off + i - 1] = 1
                rows[off + i][off + n - 1] = -f[i] % p
            off += n
        forms.append(tuple(map(tuple, rows)))
    return tuple(sorted(forms))


def _loop_count(p: int, d: int) -> int:
    """len(_loop_forms(F_p, d)), the number of similarity classes of d x d
    matrices over F_p, without building them: the coefficient of x^d in
    prod_{i >= 1} 1 / (1 - p x^i). A class is a choice of a partition per
    monic irreducible f, with the degrees of f times the sizes of the
    partitions summing to d, and F_p[x] has p^k monic polynomials of degree
    k."""
    coeffs = [1] + [0] * d
    for i in range(1, d + 1):
        for k in range(i, d + 1):
            coeffs[k] += p * coeffs[k - i]
    return coeffs[d]


def _invariant_factor_chains(p: int, left: int, last: tuple = (1,)) -> Iterator[tuple]:
    """The chains of monic polynomials over F_p, each a multiple of the one
    before (the first a multiple of `last`) and of positive degree, whose
    degrees sum to `left`. Polynomials are coefficient tuples, constant term
    first."""
    if not left:
        yield ()
        return
    for extra in range(left - len(last) + 2):
        for low in product(range(p), repeat=extra):
            f = _poly_mul(p, last, low + (1,))
            deg = len(f) - 1
            # what is left must fit into factors of degree >= deg
            if deg and (deg == left or 2 * deg <= left):
                for rest in _invariant_factor_chains(p, left - deg, f):
                    yield (f,) + rest


def _poly_mul(p: int, f: tuple, g: tuple) -> tuple:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


# the most subspaces `_subspaces` tabulates for one (ring, dim), about 110 MB
# (F_2^7 has 29,212, F_3^5 2,664, F_p^2 p + 3)
_MAX_SUBSPACES = 10**5


@lru_cache(maxsize=None)
def _subspaces(ring: Ring, dim: int) -> tuple[tuple[tuple, FieldRowSpace], ...]:
    """All subspaces of the column space F_p^dim, ordered by (rank, basis),
    each as its reduced echelon basis with a row space of it for the
    membership queries of `_edge_closed`. A basis is fixed by its pivot
    columns and by the entries of each row in the non-pivot columns right of
    its pivot. The row spaces are shared: never add to them.

    The table is counted before it is built, as the sum over rank r of the
    Gaussian binomials [dim r]_p, and OracleError is raised when it would
    hold more than `_MAX_SUBSPACES` entries, which bounds its time and
    memory where p or dim is large."""
    if ring.kind != "Fp":
        raise OracleError("submodule enumeration requires a prime field")
    p, count, binom = ring.modulus, 0, 1
    for r in range(dim + 1):
        count += binom
        if count > _MAX_SUBSPACES:
            raise OracleError(
                f"F_{p}^{dim} has more than {_MAX_SUBSPACES} subspaces to enumerate"
            )
        binom = binom * (p ** (dim - r) - 1) // (p ** (r + 1) - 1)
    zero, one = ring.zero(), ring.one()
    out = []
    for rank in range(dim + 1):
        for pivots in combinations(range(dim), rank):
            free = [
                (i, j)
                for i, p in enumerate(pivots)
                for j in range(p + 1, dim)
                if j not in pivots
            ]
            for values in product(ring.elements(), repeat=len(free)):
                rows = [[one if j == p else zero for j in range(dim)] for p in pivots]
                for (i, j), x in zip(free, values):
                    rows[i][j] = x
                out.append(tuple(tuple(r) for r in rows))
    out.sort(key=lambda basis: (len(basis), basis))
    return tuple((basis, FieldRowSpace(ring, basis)) for basis in out)


def enumerate_submodules(m: Representation) -> list[Submodule]:
    """All edge-closed graded subspaces (equivalently, all submodules), in
    the product order of the per-vertex subspaces: `_edge_closed` on the
    whole `_subspaces` table at each vertex, in quiver vertex order."""
    tables = [_subspaces(m.ring, m.dims[v]) for v in m.quiver.vertices]
    return list(_edge_closed(m, tables))


def _edge_closed(m: Representation, per_vertex: list) -> Iterator[Submodule]:
    """The edge-closed choices of one (basis, row space) per vertex, from
    one sequence of `_subspaces` entries per quiver vertex, in product order,
    as submodules of m. An edge is tested once both its ends are chosen:
    every vector of the image of the source subspace must lie in the
    target's row space. A choice for the first k vertices that fails a test
    is dropped with every extension of it, so only submodules are built.
    Edge images are cached reduced echelon bases (see `linalg.image`)."""
    ring, verts = m.ring, m.quiver.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    # the edges to test when vertex i is chosen: those whose later end is i
    tests: list[list] = [[] for _ in verts]
    for eid, src, dst in m.quiver.edges:
        tests[max(pos[src], pos[dst])].append((pos[src], pos[dst], m.edge_maps[eid]))
    full = [m.dims[v] for v in verts]
    chosen: list = [None] * n  # (basis, row space) per vertex of the prefix
    nxt = [0] * n  # per vertex, the index of its next candidate
    i = 0
    while i >= 0:
        if i == n:
            yield submodule_from_local(m, {v: c[0] for v, c in zip(verts, chosen)})
            i -= 1
            continue
        if nxt[i] == len(per_vertex[i]):
            nxt[i] = 0
            i -= 1
            continue
        chosen[i] = per_vertex[i][nxt[i]]
        nxt[i] += 1
        # an edge into a whole vertex space is closed without a test
        if all(
            len(chosen[t][0]) == full[t]
            or all(chosen[t][1].contains(y) for y in image(ring, a, chosen[s][0]))
            for s, t, a in tests[i]
        ):
            i += 1


def _check_element(e: AlgElem, q: Quiver, ring: Ring) -> None:
    if e.quiver != q or e.ring != ring:
        raise OracleError("element is over another quiver or ring")
    if not e.is_idempotent():
        raise OracleError("oracle requires an idempotent element")


def check_special_by_modules(
    e: AlgElem, q: Quiver, ring: Ring, budget: OracleBudget = OracleBudget()
) -> Verdict:
    """Search for a module M = AeM with a submodule N != AeN: such a pair
    certifies that e is not left special. No counterexample within budget
    means consistency with specialness (evidence, not proof).

    Each N is tested in M's coordinates: AeN is the join over vertices s of
    the images of N_s under e's action blocks (t, s), closed under the edge
    maps, and N = AeN exactly when the two have the same reduced echelon
    basis at every vertex. Images are cached (see `linalg.image`); no action
    matrix of e is built.

    The reps of a dimension vector are counted, not built, where it has a
    vertex that AeM cannot reach (none of them lies in Ae-Mod) or where e
    acts on each of them as the projection onto a summand, the identity
    being one (see `_special_skip`). For a left-closed S that covers every
    vector, so no rep is built for e_S. Every rep, built or counted, is
    counted in `reps_checked`; verdicts and witnesses are those of the full
    search."""
    _check_element(e, q, ring)
    checked = 0
    for m in enumerate_reps(q, ring, budget, skip=_special_skip(e)):
        if isinstance(m, int):
            checked += m
            continue
        checked += 1
        blocks = m.action_blocks(e)
        if not in_category_e(e, m, blocks):
            continue
        for sub in enumerate_submodules(m):
            if _generated(m, blocks, sub.bases) != sub.bases:
                return Verdict("counterexample", checked, module=m, submodule=sub)
    return Verdict("consistent", checked)


def check_split_by_sequences(
    e: AlgElem, q: Quiver, ring: Ring, budget: OracleBudget = OracleBudget()
) -> Verdict:
    """Search for a module M in which the generated submodule Γ = AeM has no
    edge-closed complement: such an M certifies that e is not left split.

    C (+) Γ = M holds exactly when it holds at each vertex, so a complement
    is an `_edge_closed` choice of one C_v per vertex v among the subspaces
    of M_v with rank C_v + rank Γ_v = d_v = rank (C_v + Γ_v). Where Γ is 0
    or M, M respectively 0 is one, so none is searched for. Where the
    dimension vector alone makes e act on every M as the projection onto a
    summand M|_L (see `_acts_on_a_summand`), Γ = M|_L and the rest of M is
    a complement, so its reps are counted, not built. For e_S with S a
    union of weak components (closed on both sides) that covers every
    vector, so no rep is built. Every rep, built or counted, is counted in
    `reps_checked`; verdicts and witnesses are those of the full search."""
    _check_element(e, q, ring)
    checked = 0
    for m in enumerate_reps(q, ring, budget, skip=_acts_on_a_summand(e)):
        if isinstance(m, int):
            checked += m
            continue
        checked += 1
        g = gamma(e, m)
        if g.total_dim in (0, m.total_dim):
            continue
        per_vertex = []  # at each vertex v, the C_v with C_v (+) Γ_v = M_v
        for v in q.vertices:
            d, gv = m.dims[v], g.bases[v]
            per_vertex.append([
                c for c in _subspaces(ring, d)
                if len(c[0]) + len(gv) == d == len(join(ring, c[0], gv))
            ])
        if next(_edge_closed(m, per_vertex), None) is None:
            return Verdict("counterexample", checked, module=m, submodule=g)
    return Verdict("consistent", checked)


def check_morita_by_restriction(
    e: AlgElem, q: Quiver, ring: Ring, budget: OracleBudget = OracleBudget()
) -> dict:
    """How many ordered pairs of reps M, N = AeM within budget were checked,
    and whether restriction Hom(M, N) -> Hom(e_S M, e_S N) is a bijection on
    all of them (`reps.morita_surrogate_check`). `corner_algebra` comes
    first: it refuses a non-idempotent e and a non-field with RepError. Reps
    outside the reach (`_outside_reach`) are counted, not built. An M that
    is 0 off S, the trivial support of e, is in Ae-Mod with no Γ_e computed:
    e_S M = M, so eM = u e_S u^-1 M = M for the unit u of `corner_algebra`."""
    if e.quiver != q or e.ring != ring:
        raise OracleError("element is over another quiver or ring")
    corner = corner_algebra(e)
    outside = [v for v in q.vertices if v not in corner[0].vertices]
    reps = [
        m
        for m in enumerate_reps(q, ring, budget, skip=_outside_reach(e))
        if not isinstance(m, int)
        and (not any(m.dims[v] for v in outside) or in_category_e(e, m))
    ]
    cms = [corner_module(e, m, corner) for m in reps]
    bijective = [
        morita_surrogate_check(m, n, cm, cn)["bijective"]
        for m, cm in zip(reps, cms)
        for n, cn in zip(reps, cms)
    ]
    return {"pairs_checked": len(bijective), "all_bijective": all(bijective)}


def orthogonality_bruteforce(e1: AlgElem, e2: AlgElem, degree: int) -> bool:
    """Whether e1 * p * e2 == 0 for every path p of length <= degree.

    By the junction rule of `quivers.concat`, a term product t1 * p * t2 is
    0 unless p ends at the source of t1 and starts at the target of t2, so
    only paths that end at the source of some term of e1 and start at the
    target of some term of e2 are multiplied out. The rule reads term
    endpoints only and holds for any elements. Every path is still
    enumerated, also when e1 or e2 is 0, so the path-count and edge-id
    refusals of `Quiver.paths_up_to` are those of a loop over every path."""
    if e1.quiver != e2.quiver or e1.ring != e2.ring:
        raise OracleError("elements are incompatible")
    if degree < 0:
        raise OracleError("degree must be nonnegative")
    q, ring = e1.quiver, e1.ring
    ends = {q.path_source(t) for t, _ in e1.terms}
    starts = {q.path_target(t) for t, _ in e2.terms}
    for p in q.paths_up_to(degree, limit=100_000):
        if q.path_target(p) not in ends or q.path_source(p) not in starts:
            continue
        if not (e1 * path_element(q, ring, p) * e2).is_zero:
            return False
    return True


def fullness_bruteforce(es: list[AlgElem], degree: int) -> bool:
    """Whether every trivial-path idempotent e_v is found in the
    degree-truncated slice of the two-sided ideal generated by the family.

    True certifies that the family generates the unit ideal. False only means
    some e_v was not found in that slice: it may still need a higher degree
    (see `TruncatedIdeal`). The slice multiplies out only the sandwiches
    p * g * q whose path ends meet: p starts at the target of a term of g,
    and q ends at the source of a term of p * g. The others are 0 term by
    term. A negative degree raises `AlgebraError`, as `TruncatedIdeal`
    does, also for the empty family."""
    if degree < 0:
        raise AlgebraError("degree must be nonnegative")
    if not es:
        return False
    q, ring = es[0].quiver, es[0].ring
    ideal = TruncatedIdeal(list(es), degree)
    return all(
        ideal.contains(vertex_idempotent(q, ring, {v})) for v in q.vertices
    )
