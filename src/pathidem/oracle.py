"""Brute-force validators: exhaustive enumeration of small representations,
their submodule lattices, and truncated ideal computations, used to
cross-check the structural classifier against the categorical definitions.

Consistency verdicts are evidence within the enumeration budget, not proof;
counterexamples are certificates. What the tests show is agreement with the
classifier over F_2 at total dimension <= 2, on the vertex idempotents e_S of
small sweep quivers (up to three vertices and three edges), and agreement
with a direct transcription of the definitions over F_2 and F_3 on e_S and
on idempotents with path terms. Disagreements that need larger modules or
other fields are not ruled out by that.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Optional

from .algebra import AlgElem, path_element, truncated_two_sided_ideal, vertex_idempotent
from .linalg import FieldRowSpace, image, join
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
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_total_dim: int = 3
    max_reps: int = 200_000

    def __post_init__(self):
        if self.max_total_dim < 0 or self.max_reps <= 0:
            raise OracleError("budget bounds must be positive")


@dataclass
class Verdict:
    kind: str  # "consistent" | "counterexample" | "exhausted"
    reps_checked: int = 0
    module: Optional[Representation] = None
    submodule: Optional[Submodule] = None

    @property
    def is_consistent(self) -> bool:
        return self.kind == "consistent"

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
    if nverts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _dim_vectors(nverts - 1, total - first):
            yield (first,) + rest


def enumerate_reps(
    q: Quiver, ring: Ring, budget: OracleBudget = OracleBudget()
) -> Iterator[Representation]:
    """All representations with total dimension <= budget, in a deterministic
    order: dimension vectors lexicographically, then matrices in row-major
    counter order over the field elements."""
    if ring.kind != "Fp":
        raise OracleError("representation enumeration requires a prime field")
    elems = list(ring.elements())
    count = 0
    for total in range(budget.max_total_dim + 1):
        for dims_vec in sorted(_dim_vectors(len(q.vertices), total)):
            dims = dict(zip(q.vertices, dims_vec))
            shapes = [
                (eid, dims[dst], dims[src]) for eid, src, dst in q.edges
            ]
            entry_counts = [r * c for _, r, c in shapes]
            for flat in product(elems, repeat=sum(entry_counts)):
                maps = {}
                pos = 0
                for (eid, r, c), k in zip(shapes, entry_counts):
                    maps[eid] = tuple(
                        flat[pos + i * c : pos + (i + 1) * c] for i in range(r)
                    )
                    pos += k
                count += 1
                if count > budget.max_reps:
                    raise BudgetExceeded(
                        f"representation cap {budget.max_reps} exceeded"
                    )
                yield Representation._from_canonical(q, ring, dims, maps)


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
    matrix of e is built."""
    if not e.is_idempotent():
        raise OracleError("oracle requires an idempotent element")
    checked = 0
    for m in enumerate_reps(q, ring, budget):
        checked += 1
        blocks = m.action_blocks(e)
        if not in_category_e(e, m, blocks):
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
    edge-closed complement: such an M certifies that e is not left split."""
    if not e.is_idempotent():
        raise OracleError("oracle requires an idempotent element")
    checked = 0
    for m in enumerate_reps(q, ring, budget):
        checked += 1
        g = gamma(e, m)
        if next(_graded_complements(m, g), None) is None:
            return Verdict("counterexample", checked, module=m, submodule=g)
    return Verdict("consistent", checked)


def split_complements_are_perp(
    e: AlgElem, q: Quiver, ring: Ring, budget: OracleBudget = OracleBudget()
) -> bool:
    """For a split element: every enumerated M decomposes as AeM (+) C with
    e acting by zero on some complement C."""
    if not e.is_idempotent():
        raise OracleError("oracle requires an idempotent element")
    for m in enumerate_reps(q, ring, budget):
        blocks = m.action_blocks(e)
        if not any(_kills(blocks, c) for c in _graded_complements(m, gamma(e, m))):
            return False
    return True


def _kills(blocks: dict, c: Submodule) -> bool:
    """Whether the action blocks (t, s) of an element are zero on every C_s."""
    return not any(image(c.rep.ring, b, c.bases[s]) for (_, s), b in blocks.items())


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
    ideal = truncated_two_sided_ideal(list(es), degree)
    return all(
        ideal.contains(vertex_idempotent(q, ring, {v})) for v in q.vertices
    )
