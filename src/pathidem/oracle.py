"""Brute-force validators: exhaustive enumeration of small representations,
their submodule lattices, and truncated ideal computations, used to
cross-check the structural classifier against the categorical definitions.

Consistency verdicts are evidence within the enumeration budget, not proof;
counterexamples are certificates. What the tests show is agreement with the
classifier over F_2 at total dimension <= 2, on the vertex idempotents e_S of
small sweep quivers (up to three vertices and three edges). Disagreements
that need larger modules, other fields or elements with path terms are not
ruled out by that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Optional

from .algebra import AlgElem, path_element, truncated_two_sided_ideal, vertex_idempotent
from .linalg import FieldRowSpace, mat_vec
from .quivers import Quiver
from .reps import (
    Representation,
    Submodule,
    gamma,
    generated_submodule,
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
    max_path_degree: Optional[int] = None  # defaults to |V| at use sites
    max_reps: int = 200_000

    def __post_init__(self):
        if self.max_total_dim < 0 or self.max_reps <= 0:
            raise OracleError("budget bounds must be positive")

    def path_degree(self, q: Quiver) -> int:
        return self.max_path_degree if self.max_path_degree is not None else len(q.vertices)


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
                    chunk = flat[pos : pos + k]
                    pos += k
                    maps[eid] = tuple(
                        tuple(chunk[i * c + j] for j in range(c)) for i in range(r)
                    )
                count += 1
                if count > budget.max_reps:
                    raise BudgetExceeded(
                        f"representation cap {budget.max_reps} exceeded"
                    )
                yield Representation(q, ring, dims, maps)


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


def enumerate_submodules(m: Representation) -> list[Submodule]:
    """All edge-closed graded subspaces (equivalently, all submodules)."""
    return list(_submodules(m))


def _submodules(
    m: Representation, ranks: Optional[dict[str, int]] = None
) -> Iterator[Submodule]:
    """The submodules of m in enumeration order; with `ranks`, only those of
    that dimension vector."""
    q, ring = m.quiver, m.ring
    if ring.kind != "Fp":
        raise OracleError("submodule enumeration requires a prime field")
    per_vertex = []
    for v in q.vertices:
        subspaces = _enumerate_subspaces(ring, m.dims[v])
        if ranks is not None:
            subspaces = [b for b in subspaces if len(b) == ranks[v]]
        per_vertex.append(subspaces)
    for choice in product(*per_vertex):
        sub = submodule_from_local(m, dict(zip(q.vertices, choice)), close=False)
        if sub.is_edge_closed():
            yield sub


def check_special_by_modules(
    e: AlgElem, q: Quiver, ring: Ring, budget: OracleBudget = OracleBudget()
) -> Verdict:
    """Search for a module M = AeM with a submodule N != AeN: such a pair
    certifies that e is not left special. No counterexample within budget
    means consistency with specialness (evidence, not proof).

    Each N is tested in M's coordinates: AeN is the submodule of M generated
    by e*N, computed from M's action matrix of e, and N = AeN exactly when
    the two have the same dimension vector."""
    if not e.is_idempotent():
        raise OracleError("oracle requires an idempotent element")
    checked = 0
    for m in enumerate_reps(q, ring, budget):
        checked += 1
        if not in_category_e(e, m):
            continue
        act = m.action_matrix(e)
        for sub in enumerate_submodules(m):
            if generated_submodule(m, act, sub).dims != sub.dims:
                return Verdict("counterexample", checked, module=m, submodule=sub)
    return Verdict("consistent", checked)


def _graded_complements(m: Representation, g: Submodule) -> Iterator[Submodule]:
    """Every submodule C with C (+) g = M vertexwise, in enumeration order."""
    verts = m.quiver.vertices
    ranks = {v: m.dims[v] - g.dims[v] for v in verts}
    for c in _submodules(m, ranks):
        if all(_independent(m.ring, m.dims[v], g.basis(v) + c.basis(v)) for v in verts):
            yield c


def _independent(ring: Ring, dim: int, vectors: list[tuple]) -> bool:
    space = FieldRowSpace(ring, dim)
    return all(space.add(x) for x in vectors)


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
        act = m.action_matrix(e)
        if not any(_kills(act, m, c) for c in _graded_complements(m, gamma(e, m))):
            return False
    return True


def _kills(act: tuple, m: Representation, c: Submodule) -> bool:
    """Whether the global action matrix act is zero on every vector of c."""
    return not any(
        x
        for v in m.quiver.vertices
        for vec in c.basis(v)
        for x in mat_vec(m.ring, act, m.embed(vec, v))
    )


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
