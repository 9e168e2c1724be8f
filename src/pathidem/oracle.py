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

Representations are enumerated up to isomorphism (`enumerate_reps`): at
least one of each isomorphism class within the budget, not every matrix
tuple. Every verdict here (specialness, splitness, Morita bijectivity) is
invariant under isomorphism, so the budget caps, and `Verdict.reps_checked`
and the `pairs_checked` of the CLI's morita-check count, those reduced
representations.

Submodules are held as their reduced echelon bases per vertex
(`reps.Submodule`). They are built vertex by vertex in declared vertex
order, and a choice is dropped as soon as an edge between two chosen
vertices is not closed, so only submodules are ever built; an edge image is
tested by membership in a row space of the target subspace, built once per
subspace. Every other subspace question (Γ_e(M) = M, N = AeN, complements)
is answered on those bases through `linalg.join` and `linalg.image`; images
sit in a fixed-size cache that lives as long as the process. Γ_e
itself (`reps.gamma`) works over every field; the enumerators need a prime
field.

Where the answer for a whole dimension vector follows from its support
and from the ends of e's live terms (the terms whose source and target
both have nonzero dimension), its reps are counted, not built (see the
`skip` of `enumerate_reps`). The special oracle counts a vector with a
vertex of nonzero dimension that AeM cannot reach (`_outside_reach`): no
M with those dims has M = AeM. The split oracle counts a vector on which
Γ_e(M) is 0 or M for every M (`_gamma_forced`): M, respectively 0, is then
a complement. Two searches are skipped in the reps that are built. The
special oracle enumerates no submodule of an M on which e acts as the
identity: every submodule N then has N = eN ⊆ AeN ⊆ N. The split oracle
searches no complement when Γ_e(M) is 0 or M. `reps_checked`, the
verdicts, their witnesses and every `BudgetExceeded` are those of the full
search over every rep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
from math import prod
from typing import Callable, Iterator, Optional

from .algebra import AlgElem, TruncatedIdeal, path_element, vertex_idempotent
from .linalg import FieldRowSpace, identity_matrix, image, join
from .quivers import Quiver
from .reps import (
    Representation,
    Submodule,
    _generated,
    gamma,
    in_category_e,
    submodule_from_local,
)
from .rings import Ring


class OracleError(ValueError):
    pass


class BudgetExceeded(OracleError):
    """The representation cap was reached: `reps_checked` is that cap, the
    number of representations yielded or counted, and `dims` the dimension
    vector (vertex -> dimension) being enumerated; both None when not
    given."""

    def __init__(
        self,
        message: str,
        reps_checked: Optional[int] = None,
        dims: Optional[dict[str, int]] = None,
    ):
        super().__init__(message)
        self.reps_checked = reps_checked
        self.dims = dims


@dataclass(frozen=True)
class OracleBudget:
    """Bounds of one enumeration: the total dimension of the representations,
    and how many of them `enumerate_reps` may yield or count (at least one
    per isomorphism class, so the cap counts reduced representations, not
    matrix tuples) before it raises `BudgetExceeded`."""

    max_total_dim: int = 3
    max_reps: int = 200_000

    def __post_init__(self):
        if self.max_total_dim < 0 or self.max_reps <= 0:
            raise OracleError("budget bounds must be positive")


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
    the anchor edges of each dimension vector (see `_anchor_forms`) are
    restricted, each to one normal form per orbit; every other edge runs over
    all its matrices, lazily. The output is a subsequence of the enumeration
    of all matrix tuples in the same order. `budget.max_reps` counts the
    representations yielded or counted. The field elements are held only from the
    first dimension vector with a matrix entry outside the anchors.

    `skip`, when given, is called once with each dimension vector (vertex ->
    dimension) before any of its reps is built. Where it returns True, the
    reps of that vector are counted, not built: one int, their number, is
    yielded in their place, and the cap is checked on the count as if each
    had been yielded, so a `BudgetExceeded` raised there carries the cap and
    dims it would carry without `skip`. Without `skip` only representations
    are yielded."""
    if ring.kind != "Fp":
        raise OracleError("representation enumeration requires a prime field")
    elems = None  # the field elements, held once an edge runs over them
    count = 0
    for total in range(budget.max_total_dim + 1):
        for dims_vec in _dim_vectors(len(q.vertices), total):
            dims = dict(zip(q.vertices, dims_vec))
            anchors = _anchor_forms(q, ring, dims)
            shapes = [(eid, dims[dst], dims[src]) for eid, src, dst in q.edges]
            if skip is not None and skip(dims):
                free = sum(r * c for eid, r, c in shapes if eid not in anchors)
                size = prod(map(len, anchors.values()), start=ring.modulus**free)
                count += size
                if count > budget.max_reps:
                    raise _cap_exceeded(budget, dims)
                yield size
                continue
            # one factor per anchor (its forms), one per entry of every other edge
            factors = []
            for eid, r, c in shapes:
                if eid in anchors:
                    factors.append(anchors[eid])
                elif r * c:
                    elems = elems or tuple(ring.elements())
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
                    raise _cap_exceeded(budget, dims)
                yield Representation._from_canonical(q, ring, dims, maps)


def _cap_exceeded(budget: OracleBudget, dims: dict[str, int]) -> BudgetExceeded:
    return BudgetExceeded(
        f"representation cap {budget.max_reps} exceeded", budget.max_reps, dims
    )


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


def _gamma_forced(e: AlgElem) -> Callable[[dict[str, int]], bool]:
    """The `skip` of `enumerate_reps` that passes over every M where
    Γ_e(M) is 0 or M: whether e has no live term under dims (then eM = 0),
    or its live terms are exactly the trivial paths e_v, with coefficient 1,
    of the vertices v of nonzero dimension (then e acts as the identity)."""
    q, one = e.quiver, e.ring.one()
    ends = [
        (q.path_source(p), q.path_target(p), p.is_trivial and c == one)
        for p, c in e.terms
    ]

    def skip(dims: dict[str, int]) -> bool:
        live = [unit for s, t, unit in ends if dims[s] and dims[t]]
        return not live or (all(live) and len(live) == sum(map(bool, dims.values())))

    return skip


def _anchor_forms(q: Quiver, ring: Ring, dims: dict[str, int]) -> dict[str, tuple]:
    """The anchor edges under `dims`, each with its normal forms, sorted.

    Anchors are picked greedily in declared edge order: an edge whose ends
    both have nonzero dimension and touch no earlier anchor (a loop uses its
    one vertex). Anchors share no vertex, so the base changes at their ends
    act on each anchor independently and bring all of them to normal form at
    once: [I_k 0; 0 0] under GL(d_t) x GL(d_s) on an edge between two
    vertices, the rational canonical form under conjugation on a loop
    (Derksen-Weyman, An Introduction to Quiver Representations, 2017)."""
    used: set[str] = set()
    forms = {}
    for eid, src, dst in q.edges:
        if dims[src] and dims[dst] and src not in used and dst not in used:
            used.update((src, dst))
            if src == dst:
                forms[eid] = _loop_forms(ring, dims[src])
            else:
                forms[eid] = _rank_forms(ring, dims[dst], dims[src])
    return forms


@lru_cache(maxsize=None)
def _rank_forms(ring: Ring, rows: int, cols: int) -> tuple[tuple, ...]:
    """[I_k 0; 0 0] for k = 0..min(rows, cols): one matrix per orbit of
    GL(rows) x GL(cols), in lexicographic order."""
    zero, one = ring.zero(), ring.one()
    return tuple(
        sorted(
            tuple(
                tuple(one if i == j < k else zero for j in range(cols))
                for i in range(rows)
            )
            for k in range(min(rows, cols) + 1)
        )
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


@lru_cache(maxsize=None)
def _enumerate_subspaces(ring: Ring, dim: int) -> tuple[tuple[tuple, ...], ...]:
    """All subspaces of the column space F_p^dim, as reduced echelon bases,
    ordered by (rank, basis). A basis is fixed by its pivot columns and by the
    entries of each row in the non-pivot columns right of its pivot."""
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
    return tuple(sorted(out, key=lambda basis: (len(basis), basis)))


@lru_cache(maxsize=None)
def _subspace_spaces(ring: Ring, dim: int) -> tuple[tuple[tuple, FieldRowSpace], ...]:
    """Each subspace of `_enumerate_subspaces(ring, dim)` with a row space of
    it, built once, for the membership queries of `_edge_closed`. The row
    spaces are shared: never add to them."""
    return tuple(
        (basis, FieldRowSpace(ring, dim, basis))
        for basis in _enumerate_subspaces(ring, dim)
    )


def enumerate_submodules(m: Representation) -> list[Submodule]:
    """All edge-closed graded subspaces (equivalently, all submodules), in
    the product order of the per-vertex subspaces. They are built vertex by
    vertex: a choice for the first k vertices is dropped as soon as an edge
    between two of them is not closed, so only submodules are built. Edge
    images are cached reduced echelon bases (see `linalg.image`)."""
    return list(_submodules(m))


def _submodules(
    m: Representation, ranks: Optional[dict[str, int]] = None
) -> Iterator[Submodule]:
    """The submodules of m in enumeration order; with `ranks`, only those of
    that dimension vector."""
    if m.ring.kind != "Fp":
        raise OracleError("submodule enumeration requires a prime field")
    per_vertex = [
        [
            (basis, space)
            for basis, space in _subspace_spaces(m.ring, m.dims[v])
            if ranks is None or len(basis) == ranks[v]
        ]
        for v in m.quiver.vertices
    ]
    return _edge_closed(m, per_vertex)


def _edge_closed(m: Representation, per_vertex: list) -> Iterator[Submodule]:
    """The edge-closed choices of one (basis, row space) per vertex from
    `per_vertex` (in vertex order), in product order, as submodules of m.
    An edge is tested once both its ends are chosen: every vector of the
    image of the source subspace must lie in the target's row space. A
    choice for the first k vertices that fails a test is dropped with every
    extension of it."""
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
            yield submodule_from_local(
                m, {v: c[0] for v, c in zip(verts, chosen)}, close=False
            )
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


def _acts_as_identity(m: Representation, blocks: dict[tuple[str, str], tuple]) -> bool:
    """Whether e, with action blocks `blocks` on m, acts on m as the
    identity: an identity block at each vertex of nonzero dimension and no
    other block. A zero block left by cancelling terms makes the answer
    False, though e may act as the identity."""
    return blocks == {
        (v, v): identity_matrix(m.ring, d) for v, d in m.dims.items() if d
    }


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

    The reps of a dimension vector with a vertex that AeM cannot reach are
    counted, not built (see `_outside_reach`): none of them lies in Ae-Mod.
    Where e acts on a built M as the identity (see `_acts_as_identity`), as
    e_S does on every M = Ae_S M for a left-closed S, every submodule N has
    N = eN ⊆ AeN ⊆ N, so M's submodules are not enumerated. Every rep,
    built or counted, is counted in `reps_checked`; verdicts and witnesses
    are those of the full search."""
    _check_element(e, q, ring)
    checked = 0
    for m in enumerate_reps(q, ring, budget, skip=_outside_reach(e)):
        if isinstance(m, int):
            checked += m
            continue
        checked += 1
        blocks = m.action_blocks(e)
        if not in_category_e(e, m, blocks) or _acts_as_identity(m, blocks):
            continue
        for sub in enumerate_submodules(m):
            if _generated(m, blocks, sub.bases) != sub.bases:
                return Verdict("counterexample", checked, module=m, submodule=sub)
    return Verdict("consistent", checked)


def _graded_complements(m: Representation, g: Submodule) -> Iterator[Submodule]:
    """Every submodule C with C (+) g = M vertexwise, in enumeration order:
    C has rank dims(M)_v - dims(g)_v at each vertex v, and its join with g_v
    is all of M_v."""
    verts = m.quiver.vertices
    ranks = {v: m.dims[v] - len(g.bases[v]) for v in verts}
    for c in _submodules(m, ranks):
        if all(
            len(join(m.ring, m.dims[v], c.bases[v], g.bases[v])) == m.dims[v]
            for v in verts
        ):
            yield c


def check_split_by_sequences(
    e: AlgElem, q: Quiver, ring: Ring, budget: OracleBudget = OracleBudget()
) -> Verdict:
    """Search for a module M in which the generated submodule AeM has no
    edge-closed complement: such an M certifies that e is not left split.

    Where Γ_e(M) is 0 or M, M respectively 0 is a complement, so no
    complement is searched for. Where the dimension vector alone forces
    that (see `_gamma_forced`), its reps are counted, not built. Every rep,
    built or counted, is counted in `reps_checked`; verdicts and witnesses
    are those of the full search."""
    _check_element(e, q, ring)
    checked = 0
    for m in enumerate_reps(q, ring, budget, skip=_gamma_forced(e)):
        if isinstance(m, int):
            checked += m
            continue
        checked += 1
        g = gamma(e, m)
        if g.total_dim in (0, m.total_dim):
            continue
        if next(_graded_complements(m, g), None) is None:
            return Verdict("counterexample", checked, module=m, submodule=g)
    return Verdict("consistent", checked)


def orthogonality_bruteforce(e1: AlgElem, e2: AlgElem, degree: int) -> bool:
    """Whether e1 * p * e2 == 0 for every path p of length <= degree."""
    if e1.quiver != e2.quiver or e1.ring != e2.ring:
        raise OracleError("elements are incompatible")
    if degree < 0:
        raise OracleError("degree must be nonnegative")
    q, ring = e1.quiver, e1.ring
    for p in q.paths_up_to(degree, limit=100_000):
        if not (e1 * path_element(q, ring, p) * e2).is_zero:
            return False
    return True


def fullness_bruteforce(es: list[AlgElem], degree: int) -> bool:
    """Whether every trivial-path idempotent e_v is found in the
    degree-truncated slice of the two-sided ideal generated by the family.

    True certifies that the family generates the unit ideal. False only means
    some e_v was not found in that slice: it may still need a higher degree
    (see `TruncatedIdeal`)."""
    if not es:
        return False
    q, ring = es[0].quiver, es[0].ring
    ideal = TruncatedIdeal(list(es), degree)
    return all(
        ideal.contains(vertex_idempotent(q, ring, {v})) for v in q.vertices
    )
