"""The global-coordinate reference layer the tests compare the library with.

The library works vertex by vertex on reduced echelon bases. Here the total
space of a representation concatenates its vertex blocks in the quiver's
declared vertex order, and an element acts by one global matrix: the direct
transcription of the definitions, kept out of `src/` because no command,
oracle or library function needs it.
"""

from math import gcd
from typing import Sequence

from pathidem.algebra import AlgElem, path_element, path_vector
from pathidem.linalg import LinAlgError, identity_matrix, mat_mul, mat_vec, span
from pathidem.quivers import Path, Quiver
from pathidem.reps import Representation, RepError, Submodule
from pathidem.rings import Ring, RingError


def offset(m: Representation, v: str) -> int:
    off = 0
    for w in m.quiver.vertices:
        if w == v:
            return off
        off += m.dims[w]
    raise RepError(f"unknown vertex {v!r}")


def block(m: Representation, vec: Sequence, v: str) -> tuple:
    off = offset(m, v)
    return tuple(vec[off : off + m.dims[v]])


def path_matrix(m: Representation, p: Path) -> tuple:
    """Global action matrix of a single path."""
    D = m.total_dim
    out = [[m.ring.zero()] * D for _ in range(D)]
    if p.is_trivial:
        v = p.vertex
        off = offset(m, v)
        for i in range(m.dims[v]):
            out[off + i][off + i] = m.ring.one()
        return tuple(tuple(r) for r in out)
    src = m.quiver.path_source(p)
    dst = m.quiver.path_target(p)
    comp = identity_matrix(m.ring, m.dims[src])
    for eid in p.edges:
        comp = mat_mul(m.ring, m.edge_maps[eid], comp)
    roff, coff = offset(m, dst), offset(m, src)
    for i, row in enumerate(comp):
        for j, x in enumerate(row):
            out[roff + i][coff + j] = x
    return tuple(tuple(r) for r in out)


def action_matrix(m: Representation, e: AlgElem) -> tuple:
    """The global D x D matrix of e's action: its `action_blocks` placed
    at their vertex offsets, zeros elsewhere."""
    D = m.total_dim
    out = [[m.ring.zero()] * D for _ in range(D)]
    for (t, s), blk in m.action_blocks(e).items():
        roff, coff = offset(m, t), offset(m, s)
        for i, row in enumerate(blk):
            out[roff + i][coff : coff + len(row)] = row
    return tuple(tuple(r) for r in out)


def apply_edge(m: Representation, eid: str, local: Sequence) -> tuple:
    return mat_vec(m.ring, m.edge_maps[eid], local)


def is_edge_closed(sub: Submodule) -> bool:
    """Whether span(C_t + a*C_s) == C_t for every edge a: s -> t, with
    the images taken vector by vector through `apply_edge`."""
    ring = sub.rep.ring
    for eid, src, dst in sub.rep.quiver.edges:
        have = sub.bases[dst]
        images = tuple(apply_edge(sub.rep, eid, x) for x in sub.bases[src])
        if span(ring, have + images) != have:
            return False
    return True


def e_fixed(e: AlgElem, m: Representation) -> list[tuple]:
    """Echelon basis of the image e*M inside the total space. Not necessarily
    edge-closed (nor graded) on its own."""
    if not e.is_idempotent():
        raise RepError("e_fixed requires an idempotent element")
    return RefRowSpace(m.ring, zip(*action_matrix(m, e))).rows


def _induced_matrix(images, target: "RefRowSpace", msg: str) -> tuple:
    """The matrix whose columns are the coordinates of `images` in target's
    echelon basis; RepError(msg) when an image lies outside target."""
    cols = []
    for y in images:
        coords = target.coords(y)
        if coords is None:
            raise RepError(msg)
        cols.append(coords)
    return tuple(tuple(c[i] for c in cols) for i in range(len(target.rows)))


def sub_representation(sub: Submodule) -> tuple[Representation, dict[str, list[tuple]]]:
    """The submodule as a representation in its own echelon bases, plus the
    per-vertex inclusion bases (local vectors of the ambient module)."""
    rep = sub.rep
    spaces = {v: RefRowSpace(rep.ring, b) for v, b in sub.bases.items()}
    maps = {
        eid: _induced_matrix(
            (apply_edge(rep, eid, x) for x in sub.bases[src]),
            spaces[dst],
            "subspace is not closed under the edge maps",
        )
        for eid, src, dst in rep.quiver.edges
    }
    return (
        Representation(rep.quiver, rep.ring, sub.dims, maps),
        {v: list(sub.bases[v]) for v in rep.quiver.vertices},
    )


def left_ideal_representation(e: AlgElem) -> Representation:
    """The cyclic projective A*e as a representation, graded by path targets.
    Finite-dimensional exactly because the quiver is acyclic."""
    q, ring = e.quiver, e.ring
    if not q.is_acyclic:
        raise RepError("A*e is infinite-dimensional on cyclic quivers")
    paths = q.all_paths()
    index = {p: i for i, p in enumerate(paths)}
    bases = {v: RefRowSpace(ring) for v in q.vertices}
    for p in paths:
        x = path_element(q, ring, p) * e
        if not x.is_zero:
            bases[q.path_target(p)].add(path_vector(x, index))
    maps = {}
    for eid, src, dst in q.edges:
        a = path_element(q, ring, Path(edges=(eid,)))
        images = []
        for row in bases[src].rows:
            x = AlgElem.make(
                q, ring, {paths[i]: c for i, c in enumerate(row) if not ring.is_zero(c)}
            )
            images.append(path_vector(a * x, index))
        maps[eid] = _induced_matrix(
            images, bases[dst], "edge action escaped the graded piece of A*e"
        )
    dims = {v: len(bases[v].rows) for v in q.vertices}
    return Representation(q, ring, dims, maps)


def idem_leq(ring: Ring, a, b) -> bool:
    """Whether the principal ideal (a) is contained in (b), for idempotents.

    Since b*b == b, containment is equivalent to a*b == a.
    """
    a, b = ring.canon(a), ring.canon(b)
    if not (ring.is_idempotent(a) and ring.is_idempotent(b)):
        raise RingError("idem_leq requires idempotent arguments")
    return ring.mul(a, b) == a


def ref_orthogonality(e1: AlgElem, e2: AlgElem, degree: int) -> bool:
    """Whether e1 * p * e2 == 0 for every path p of length <= degree, with
    the sandwich of every such path multiplied out."""
    q, ring = e1.quiver, e1.ring
    return all(
        (e1 * path_element(q, ring, p) * e2).is_zero
        for p in q.paths_up_to(degree, limit=100_000)
    )


def corner_arrows(q: Quiver, s) -> list[Path]:
    """The arrows of Q_S for a vertex set s of an acyclic quiver: the paths
    of Q from s to s with no interior vertex in s, filtered out of every
    path of Q in canonical order."""
    return [
        p
        for p in q.all_paths()
        if p.edges
        and q.path_source(p) in s
        and q.path_target(p) in s
        and not any(q.edge_target(eid) in s for eid in p.edges[:-1])
    ]


class RefRowSpace:
    """Reduced echelon basis maintained with Ring.add/sub/mul only, seeded
    with `vectors`."""

    def __init__(self, ring, vectors=()):
        self.ring, self.rows, self.pivots = ring, [], []
        for x in vectors:
            self.add(x)

    def reduce(self, vec):
        R = self.ring
        v = [R.canon(x) for x in vec]
        coords = []
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            coords.append(c)
            v = [R.add(a, R.mul(R.neg(c), b)) for a, b in zip(v, row)]
        return coords, v

    def coords(self, vec):
        """Coordinates of vec along the echelon rows, or None when vec is
        outside their span."""
        coords, residual = self.reduce(vec)
        return None if any(not self.ring.is_zero(x) for x in residual) else coords

    def add(self, vec):
        R = self.ring
        v = self.reduce(vec)[1]
        nonzero = [i for i, x in enumerate(v) if not R.is_zero(x)]
        if not nonzero:
            return False
        piv = nonzero[0]
        if not R.is_unit(v[piv]):
            raise LinAlgError("non-unit pivot")
        v = tuple(R.mul(R.inv(v[piv]), x) for x in v)
        self.rows = [
            tuple(R.sub(a, R.mul(row[piv], b)) for a, b in zip(row, v))
            for row in self.rows
        ]
        idx = sum(p < piv for p in self.pivots)
        self.rows.insert(idx, v)
        self.pivots.insert(idx, piv)
        return True


class RefZnRowSpace:
    """The Z/n-span of rows as the integer lattice rows*Z + n*Z^k, with a row
    held for every column from the start: n*e_i until a vector reaches
    column i. Membership reduces a vector column by column with integer
    arithmetic and no reduction mod n before the last step."""

    def __init__(self, ring, ncols):
        self.n, self.ncols = ring.modulus, ncols
        self.echelon = {
            i: [0] * i + [self.n] + [0] * (ncols - i - 1) for i in range(ncols)
        }

    def add(self, vec):
        v = [x % self.n for x in vec]
        if self.contains(v):
            return False
        for i in range(self.ncols):
            if v[i] == 0:
                continue
            row = self.echelon[i]
            a, b = row[i], v[i]
            g = gcd(a, b)
            x0, y0 = _ref_ext_gcd(a, b)
            new_row = [x0 * r + y0 * w for r, w in zip(row, v)]
            v = [(b // g) * r - (a // g) * w for r, w in zip(row, v)]
            self.echelon[i] = [
                x % self.n if j > i else x for j, x in enumerate(new_row)
            ]
        return True

    def contains(self, vec):
        v = [x % self.n for x in vec]
        for i in range(self.ncols):
            if v[i] == 0:
                continue
            p = self.echelon[i][i]
            if v[i] % p != 0:
                return False
            q = v[i] // p
            v = [a - q * b for a, b in zip(v, self.echelon[i])]
        return all(x % self.n == 0 for x in v)


def _ref_ext_gcd(a, b):
    """(x, y) with x*a + y*b == gcd(a, b), by the recursive Euclid step."""
    if b == 0:
        return (1, 0) if a >= 0 else (-1, 0)
    x, y = _ref_ext_gcd(b, a % b)
    return y, x - (a // b) * y


def ref_nullspace(ring, rows, ncols):
    """Basis of {v : rows @ v == 0}: one vector per free column, in column
    order, from a RefRowSpace of the rows."""
    space = RefRowSpace(ring, rows)
    basis = []
    for f in [j for j in range(ncols) if j not in space.pivots]:
        v = [ring.zero()] * ncols
        v[f] = ring.one()
        for row, piv in zip(space.rows, space.pivots):
            v[piv] = ring.neg(row[f])
        basis.append(tuple(v))
    return basis
