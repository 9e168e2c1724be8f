"""Finite-dimensional quiver representations and raw modules.

A Representation assigns a free module of finite rank to each vertex and a
matrix to each edge; it is the graded picture of a non-degenerate module over
the path algebra. A RawModule is an ungraded module given by action matrices
for the generators; the non-degenerate part is extracted by `nu`.

Matrices act on column vectors; the edge matrix for a has shape
dims[target] x dims[source]. Global vectors concatenate the vertex blocks in
the quiver's declared vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

from .algebra import AlgElem, path_element, path_vector
from .linalg import (
    FieldRowSpace,
    ZnRowSpace,
    identity_matrix,
    image,
    join,
    mat_canon,
    mat_mul,
    mat_vec,
    nullspace,
    zero_matrix,
)
from .quivers import Path, Quiver, concat
from .rings import Ring


class RepError(ValueError):
    pass


@dataclass
class Representation:
    quiver: Quiver
    ring: Ring
    dims: dict[str, int]
    edge_maps: dict[str, tuple]  # edge id -> matrix (dims[t] x dims[s])

    def __post_init__(self):
        q = self.quiver
        if set(self.dims) != set(q.vertices):
            raise RepError("dims must cover exactly the quiver's vertices")
        if any(d < 0 for d in self.dims.values()):
            raise RepError("negative dimension")
        maps = {}
        for eid, src, dst in q.edges:
            m = self.edge_maps.get(eid)
            if m is None:
                m = zero_matrix(self.ring, self.dims[dst], self.dims[src])
            m = mat_canon(self.ring, m)
            if len(m) != self.dims[dst] or any(
                len(row) != self.dims[src] for row in m
            ):
                raise RepError(f"edge {eid!r} matrix has wrong shape")
            maps[eid] = m
        extra = set(self.edge_maps) - set(maps)
        if extra:
            raise RepError(f"matrices given for unknown edges {sorted(extra)}")
        self.edge_maps = maps

    @classmethod
    def _from_canonical(
        cls, quiver: Quiver, ring: Ring, dims: dict[str, int], edge_maps: dict
    ) -> "Representation":
        """The constructor for dims covering the vertices and one canonical,
        well-shaped matrix per edge: nothing is re-validated."""
        rep = object.__new__(cls)
        rep.quiver, rep.ring, rep.dims, rep.edge_maps = quiver, ring, dims, edge_maps
        return rep

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def offset(self, v: str) -> int:
        off = 0
        for w in self.quiver.vertices:
            if w == v:
                return off
            off += self.dims[w]
        raise RepError(f"unknown vertex {v!r}")

    def block(self, vec: Sequence, v: str) -> tuple:
        off = self.offset(v)
        return tuple(vec[off : off + self.dims[v]])

    def embed(self, local: Sequence, v: str) -> tuple:
        out = [self.ring.zero()] * self.total_dim
        off = self.offset(v)
        for i, x in enumerate(local):
            out[off + i] = x
        return tuple(out)

    def path_matrix(self, p: Path) -> tuple:
        """Global action matrix of a single path."""
        D = self.total_dim
        out = [[self.ring.zero()] * D for _ in range(D)]
        if p.is_trivial:
            v = p.vertex
            off = self.offset(v)
            for i in range(self.dims[v]):
                out[off + i][off + i] = self.ring.one()
            return tuple(tuple(r) for r in out)
        src = self.quiver.path_source(p)
        dst = self.quiver.path_target(p)
        comp = identity_matrix(self.ring, self.dims[src])
        for eid in p.edges:
            comp = mat_mul(self.ring, self.edge_maps[eid], comp)
        roff, coff = self.offset(dst), self.offset(src)
        for i, row in enumerate(comp):
            for j, x in enumerate(row):
                out[roff + i][coff + j] = x
        return tuple(tuple(r) for r in out)

    def action_matrix(self, e: AlgElem) -> tuple:
        """The global D x D matrix of e's action: its `action_blocks` placed
        at their vertex offsets, zeros elsewhere."""
        D = self.total_dim
        out = [[self.ring.zero()] * D for _ in range(D)]
        for (t, s), block in self.action_blocks(e).items():
            roff, coff = self.offset(t), self.offset(s)
            for i, row in enumerate(block):
                out[roff + i][coff : coff + len(row)] = row
        return tuple(tuple(r) for r in out)

    def action_blocks(self, e: AlgElem) -> dict[tuple[str, str], tuple]:
        """The blocks of e's action: (t, s) -> the dims[t] x dims[s] matrix
        sum of c * M_p over the terms c*p of e from s to t. A pair has an
        entry only when some such path runs through nonzero spaces only."""
        if e.quiver != self.quiver or e.ring != self.ring:
            raise RepError("element and representation are incompatible")
        ring, q, dims = self.ring, self.quiver, self.dims
        m, one = ring.modulus, ring.one()
        blocks: dict[tuple[str, str], tuple] = {}
        for p, c in e.terms:
            s, t = q.path_source(p), q.path_target(p)
            # a path through a zero space acts by zero
            if not dims[s] or not all(dims[q.edge_target(eid)] for eid in p.edges):
                continue
            mat = identity_matrix(ring, dims[s])
            for eid in p.edges:
                mat = mat_mul(ring, self.edge_maps[eid], mat)
            if c != one:
                mat = tuple(
                    tuple(c * x if m is None else c * x % m for x in row) for row in mat
                )
            prev = blocks.get((t, s))
            if prev is not None:
                mat = tuple(
                    tuple(a + b if m is None else (a + b) % m for a, b in zip(u, w))
                    for u, w in zip(prev, mat)
                )
            blocks[(t, s)] = mat
        return blocks

    def apply_edge(self, eid: str, local: Sequence) -> tuple:
        return mat_vec(self.ring, self.edge_maps[eid], local)

    # ---- serialization ----

    def to_json(self) -> dict:
        return {
            "dims": dict(self.dims),
            "edges": {
                eid: [[self.ring.fmt(x) for x in row] for row in m]
                for eid, m in self.edge_maps.items()
            },
        }

    @staticmethod
    def from_json(quiver: Quiver, ring: Ring, obj: dict) -> "Representation":
        if not isinstance(obj, dict) or "dims" not in obj:
            raise RepError(f"bad representation: {obj!r}")
        dims = {v: int(d) for v, d in obj["dims"].items()}
        maps = {
            eid: tuple(tuple(ring.canon(x) for x in row) for row in m)
            for eid, m in obj.get("edges", {}).items()
        }
        return Representation(quiver, ring, dims, maps)


def zero_representation(quiver: Quiver, ring: Ring) -> Representation:
    return Representation(quiver, ring, {v: 0 for v in quiver.vertices}, {})


@dataclass
class Submodule:
    """A graded, edge-closed subspace of a representation, one echelon basis
    per vertex (vectors in the local coordinates of that vertex)."""

    rep: Representation
    spaces: dict[str, FieldRowSpace]

    @property
    def dims(self) -> dict[str, int]:
        return {v: sp.rank for v, sp in self.spaces.items()}

    @property
    def total_dim(self) -> int:
        return sum(sp.rank for sp in self.spaces.values())

    def basis(self, v: str) -> list[tuple]:
        return self.spaces[v].basis()

    def is_edge_closed(self) -> bool:
        q = self.rep.quiver
        for eid, src, dst in q.edges:
            for x in self.spaces[src].basis():
                if not self.spaces[dst].contains(self.rep.apply_edge(eid, x)):
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.rep == other.rep
            and {v: sp.basis() for v, sp in self.spaces.items()}
            == {v: sp.basis() for v, sp in other.spaces.items()}
        )

    def to_json(self) -> dict:
        return {
            v: [[self.rep.ring.fmt(x) for x in vec] for vec in sp.basis()]
            for v, sp in self.spaces.items()
        }


def submodule_from_local(
    rep: Representation, vectors: dict[str, list[Sequence]], close: bool = True
) -> Submodule:
    """Build a submodule from per-vertex spanning vectors, optionally closing
    under the edge maps."""
    spaces = {v: FieldRowSpace(rep.ring, rep.dims[v]) for v in rep.quiver.vertices}
    for v, vecs in vectors.items():
        for x in vecs:
            spaces[v].add(x)
    if close:
        closed = _closed(rep, {v: tuple(sp.rows) for v, sp in spaces.items()})
        for v, basis in closed.items():
            for x in basis:
                spaces[v].add(x)
    return Submodule(rep, spaces)


def _closed(m: Representation, bases: dict[str, tuple]) -> dict[str, tuple]:
    """The smallest edge-closed graded subspace of m containing the one with
    the given reduced echelon bases per vertex, again as such bases. Edge
    images come from the cached `image`."""
    ring, dims = m.ring, m.dims
    out = dict(bases)
    edges = [
        (src, dst, m.edge_maps[eid]) for eid, src, dst in m.quiver.edges if dims[dst]
    ]
    changed = True
    while changed:
        changed = False
        for src, dst, a in edges:
            have = out[dst]
            if out[src] and len(have) < dims[dst]:
                grown = join(ring, dims[dst], have, image(ring, a, out[src]))
                if len(grown) > len(have):
                    out[dst], changed = grown, True
    return out


def _column_space(ring: Ring, mat: tuple) -> FieldRowSpace:
    """The echelon row space spanned by the columns of a matrix."""
    space = FieldRowSpace(ring, len(mat))
    for col in zip(*mat):
        space.add(col)
    return space


def e_fixed(e: AlgElem, m: Representation) -> list[tuple]:
    """Echelon basis of the image e*M inside the total space. Not necessarily
    edge-closed (nor graded) on its own."""
    if not e.is_idempotent():
        raise RepError("e_fixed requires an idempotent element")
    return _column_space(m.ring, m.action_matrix(e)).basis()


def _whole(m: Representation) -> dict[str, tuple]:
    """The reduced echelon basis of each vertex space of m."""
    return {v: identity_matrix(m.ring, d) for v, d in m.dims.items()}


def _generated(
    m: Representation, blocks: dict[tuple[str, str], tuple], bases: dict[str, tuple]
) -> dict[str, tuple]:
    """The submodule A*e*N of m, for e's action blocks on m and a graded
    subspace N given by reduced echelon bases per vertex: at each vertex t
    the join over s of block(t, s) * N_s, closed under the edge maps. The
    answer is again reduced echelon bases, equal to `bases` exactly when
    N = AeN (for a submodule N, AeN lies inside N)."""
    ring, dims = m.ring, m.dims
    seed = {v: () for v in dims}
    for (t, s), b in blocks.items():
        if bases[s]:
            seed[t] = join(ring, dims[t], seed[t], image(ring, b, bases[s]))
    return _closed(m, seed)


def gamma(e: AlgElem, m: Representation) -> Submodule:
    """The smallest edge-closed graded subspace containing e*M (i.e. the span
    of all path translates of e*M). e need not be idempotent, and the ring
    may be any field: at each vertex t the seed is the join of the column
    spaces of e's action blocks (t, s), closed under the edge maps on
    reduced echelon bases, with images cached (see `linalg.image`)."""
    bases = _generated(m, m.action_blocks(e), _whole(m))
    return submodule_from_local(m, bases, close=False)


def in_category_e(e: AlgElem, m: Representation) -> bool:
    """Whether M is generated by e*M (M = A e M), decided as Γ_e(M) = M
    basis for basis; for an idempotent e, e*M is the space of e-fixed
    vectors. e need not be idempotent, and the ring may be any field."""
    whole = _whole(m)
    return _generated(m, m.action_blocks(e), whole) == whole


def _from_columns(cols: list, nrows: int) -> tuple:
    """The nrows x len(cols) matrix with the given columns."""
    return tuple(tuple(c[i] for c in cols) for i in range(nrows))


def _induced_matrix(images, target: FieldRowSpace, msg: str) -> tuple:
    """The matrix whose columns are the coordinates of `images` in target's
    echelon basis; RepError(msg) when an image lies outside target."""
    cols = []
    for y in images:
        coords = target.coords(y)
        if coords is None:
            raise RepError(msg)
        cols.append(coords)
    return _from_columns(cols, target.rank)


def sub_representation(sub: Submodule) -> tuple[Representation, dict[str, list[tuple]]]:
    """The submodule as a representation in its own echelon bases, plus the
    per-vertex inclusion bases (local vectors of the ambient module)."""
    rep = sub.rep
    maps = {
        eid: _induced_matrix(
            (rep.apply_edge(eid, x) for x in sub.basis(src)),
            sub.spaces[dst],
            "subspace is not closed under the edge maps",
        )
        for eid, src, dst in rep.quiver.edges
    }
    return (
        Representation(rep.quiver, rep.ring, sub.dims, maps),
        {v: sub.spaces[v].basis() for v in rep.quiver.vertices},
    )


def quotient(m: Representation, sub: Submodule) -> Representation:
    """Quotient representation by a submodule; over Z/n only free quotients
    (non-unit pivots raise)."""
    if sub.rep != m:
        raise RepError("submodule belongs to a different representation")
    ring = m.ring
    coords: dict[str, list[int]] = {}
    for v in m.quiver.vertices:
        pivots = set(sub.spaces[v].pivots)
        coords[v] = [j for j in range(m.dims[v]) if j not in pivots]

    def project(v: str, x: Sequence) -> tuple:
        red = sub.spaces[v]._reduce(x)[1]
        return tuple(red[j] for j in coords[v])

    dims = {v: len(coords[v]) for v in m.quiver.vertices}
    maps = {}
    for eid, src, dst in m.quiver.edges:
        cols = []
        for j in coords[src]:
            basis_vec = [ring.zero()] * m.dims[src]
            basis_vec[j] = ring.one()
            cols.append(project(dst, m.apply_edge(eid, basis_vec)))
        maps[eid] = _from_columns(cols, dims[dst])
    return Representation(m.quiver, ring, dims, maps)


# ---- Hom spaces ----


def hom_space(
    m: Representation, n: Representation, zn_dim_cap: int = 6
) -> list[dict[str, tuple]]:
    """Basis of intertwiners f = (f_v) with f_{t(a)} M_a = N_a f_{s(a)}.

    Over a field this is a nullspace computation; over Z/n an exhaustive
    search bounded by `zn_dim_cap` on the combined total dimension."""
    if m.quiver != n.quiver or m.ring != n.ring:
        raise RepError("representations are incompatible")
    ring = m.ring
    if ring.is_field:
        return _hom_space_field(m, n)
    if m.total_dim + n.total_dim > zn_dim_cap:
        raise RepError(
            f"hom_space over {ring} needs total dimension <= {zn_dim_cap}"
        )
    return _hom_space_exhaustive(m, n)


def _block_shapes(m: Representation, n: Representation) -> list[tuple[int, int]]:
    """Shape n.dims[v] x m.dims[v] of the block f_v, in vertex order."""
    return [(n.dims[v], m.dims[v]) for v in m.quiver.vertices]


def _unpack(m, n, sol) -> dict[str, tuple]:
    """The blocks f_v of a flat unknown vector (row-major, vertex order)."""
    out, off = {}, 0
    for v, (r, c) in zip(m.quiver.vertices, _block_shapes(m, n)):
        out[v] = tuple(tuple(sol[off + i * c : off + (i + 1) * c]) for i in range(r))
        off += r * c
    return out


def _intertwiners(ring: Ring, shapes: list, equations) -> list[tuple]:
    """Basis of the flat unknown vectors (f_0, f_1, ...), each block f_b of
    shape shapes[b] stored row-major, with f_dst * A == B * f_src for every
    (src, dst, A, B) in `equations`."""
    offs, nunk = [], 0
    for r, c in shapes:
        offs.append(nunk)
        nunk += r * c
    zero = ring.zero()
    rows = []
    for src, dst, A, B in equations:
        (nd, md), (ns, ms) = shapes[dst], shapes[src]
        od, os_ = offs[dst], offs[src]
        for i in range(nd):
            for j in range(ms):
                row = [zero] * nunk
                for k in range(md):
                    row[od + i * md + k] += A[k][j]
                for l in range(ns):
                    row[os_ + l * ms + j] -= B[i][l]
                rows.append(row)
    return nullspace(ring, rows, nunk)


def _hom_space_field(m, n) -> list[dict[str, tuple]]:
    pos = {v: b for b, v in enumerate(m.quiver.vertices)}
    equations = [
        (pos[src], pos[dst], m.edge_maps[eid], n.edge_maps[eid])
        for eid, src, dst in m.quiver.edges
    ]
    sols = _intertwiners(m.ring, _block_shapes(m, n), equations)
    return [_unpack(m, n, sol) for sol in sols]


def _hom_space_exhaustive(m, n) -> list[dict[str, tuple]]:
    ring = m.ring
    nunk = sum(r * c for r, c in _block_shapes(m, n))
    found = []
    span = ZnRowSpace(ring, nunk) if nunk else None
    for assignment in product(ring.elements(), repeat=nunk):
        f = _unpack(m, n, assignment)
        ok = all(
            mat_mul(ring, f[dst], m.edge_maps[eid])
            == mat_mul(ring, n.edge_maps[eid], f[src])
            for eid, src, dst in m.quiver.edges
        )
        if ok and span is not None and span.add(assignment):
            found.append(f)
    return found


# ---- corner ring eAe and its modules ----


@dataclass
class CornerAlgebra:
    """Basis of the corner ring e*A*e of an acyclic quiver's path algebra."""

    e: AlgElem
    basis: list[AlgElem]

    @property
    def dim(self) -> int:
        return len(self.basis)


def corner_algebra(e: AlgElem) -> CornerAlgebra:
    q, ring = e.quiver, e.ring
    if not q.is_acyclic:
        raise RepError("corner computations require an acyclic quiver")
    if not e.is_idempotent():
        raise RepError("corner ring needs an idempotent element")
    paths = q.all_paths()
    index = {p: i for i, p in enumerate(paths)}
    space = FieldRowSpace(ring, len(paths))
    rows_elems: list[AlgElem] = []
    for p in paths:
        x = e * path_element(q, ring, p) * e
        if not x.is_zero:
            space.add(path_vector(x, index))
    for row in space.basis():
        terms = {paths[i]: c for i, c in enumerate(row) if not ring.is_zero(c)}
        rows_elems.append(AlgElem.make(q, ring, terms))
    return CornerAlgebra(e, rows_elems)


@dataclass
class CornerModule:
    """e*M as a module over the corner ring: a basis of e*M (global vectors of
    the ambient representation), one action matrix per corner basis element,
    and `space`, the echelon row space of e*M that gives a vector of M its
    coordinates in `basis`."""

    corner: CornerAlgebra
    rep: Representation
    basis: list[tuple]
    actions: list[tuple]  # aligned with corner.basis
    space: FieldRowSpace = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)


def corner_module(
    e: AlgElem, m: Representation, corner: Optional[CornerAlgebra] = None
) -> CornerModule:
    """e*M over the corner ring; pass `corner` = corner_algebra(e) to share
    one corner ring between the modules of e."""
    if corner is None:
        corner = corner_algebra(e)
    elif corner.e != e:
        raise RepError("corner ring belongs to a different idempotent")
    space = _column_space(m.ring, m.action_matrix(e))
    basis = space.basis()
    actions = []
    for b in corner.basis:
        act = m.action_matrix(b)
        actions.append(
            _induced_matrix(
                (mat_vec(m.ring, act, w) for w in basis),
                space,
                "corner action left the e-fixed subspace",
            )
        )
    return CornerModule(corner, m, basis, actions, space)


def corner_intertwiners(cm: CornerModule, cn: CornerModule) -> list[tuple]:
    """Basis of the dn x dm matrices g with g * act_m(b) == act_n(b) * g for
    every corner basis element b, where g maps coordinates of e*M to
    coordinates of e*N. Each g is returned flat, as the row-major tuple of its
    dn * dm entries."""
    ring = cm.rep.ring
    if not ring.is_field:
        raise RepError("corner intertwiners need a field")
    equations = [(0, 0, Am, An) for Am, An in zip(cm.actions, cn.actions)]
    return _intertwiners(ring, [(cn.dim, cm.dim)], equations)


def restrict_to_corner(
    e: AlgElem, m: Representation, n: Representation, f: dict[str, tuple],
    cm: Optional[CornerModule] = None, cn: Optional[CornerModule] = None,
) -> tuple:
    """Restriction of an intertwiner f: M -> N to a matrix e*M -> e*N in the
    corner-module coordinate bases."""
    cm = cm or corner_module(e, m)
    cn = cn or corner_module(e, n)
    images = (
        tuple(
            x
            for v in m.quiver.vertices
            for x in mat_vec(m.ring, f[v], m.block(w, v))
        )
        for w in cm.basis
    )
    return _induced_matrix(
        images, cn.space, "intertwiner image left the e-fixed subspace"
    )


def morita_surrogate_check(
    e: AlgElem,
    m: Representation,
    n: Representation,
    cm: Optional[CornerModule] = None,
    cn: Optional[CornerModule] = None,
) -> dict:
    """Check that restriction to the e-fixed subspaces is a bijection from
    Hom(M, N) onto the corner intertwiners, for M, N generated by their
    e-fixed vectors over an acyclic quiver."""
    ring = m.ring
    homs = hom_space(m, n)
    cm = cm or corner_module(e, m)
    cn = cn or corner_module(e, n)
    corner_dim = len(corner_intertwiners(cm, cn))
    restricted = FieldRowSpace(ring, cn.dim * cm.dim)
    for f in homs:
        r = restrict_to_corner(e, m, n, f, cm, cn)
        restricted.add(tuple(x for row in r for x in row))
    rank = restricted.rank
    return {
        "hom_dim": len(homs),
        "corner_dim": corner_dim,
        "restricted_rank": rank,
        "bijective": len(homs) == corner_dim == rank,
    }


# ---- raw modules and the non-degenerate part ----


@dataclass
class RawModule:
    """A module given by generator action matrices on a free module of the
    stated rank; the trivial-path images must be pairwise orthogonal
    idempotents, and each edge matrix must be sandwiched between its target
    and source projections. Verified eagerly."""

    quiver: Quiver
    ring: Ring
    rank: int
    vertex_actions: dict[str, tuple]
    edge_actions: dict[str, tuple]

    def __post_init__(self):
        q, ring, r = self.quiver, self.ring, self.rank
        self.vertex_actions = {
            v: mat_canon(ring, self.vertex_actions.get(v, zero_matrix(ring, r, r)))
            for v in q.vertices
        }
        self.edge_actions = {
            eid: mat_canon(ring, self.edge_actions.get(eid, zero_matrix(ring, r, r)))
            for eid, _, _ in q.edges
        }
        for v, E in self.vertex_actions.items():
            if len(E) != r or any(len(row) != r for row in E):
                raise RepError(f"vertex action at {v!r} has wrong shape")
            if mat_mul(ring, E, E) != E:
                raise RepError(f"vertex action at {v!r} is not idempotent")
        verts = list(q.vertices)
        for i, v in enumerate(verts):
            for w in verts[i + 1 :]:
                Ev, Ew = self.vertex_actions[v], self.vertex_actions[w]
                if mat_mul(ring, Ev, Ew) != zero_matrix(ring, r, r) or mat_mul(
                    ring, Ew, Ev
                ) != zero_matrix(ring, r, r):
                    raise RepError(f"vertex actions at {v!r},{w!r} not orthogonal")
        for eid, src, dst in q.edges:
            A = self.edge_actions[eid]
            if len(A) != r or any(len(row) != r for row in A):
                raise RepError(f"edge action {eid!r} has wrong shape")
            sandwich = mat_mul(
                ring,
                self.vertex_actions[dst],
                mat_mul(ring, A, self.vertex_actions[src]),
            )
            if A != sandwich:
                raise RepError(
                    f"edge action {eid!r} is not supported between its endpoints"
                )


def nu(raw: RawModule) -> Representation:
    """The non-degenerate part: the sum of the trivial-path images, graded by
    vertex, with the induced edge maps."""
    ring, q = raw.ring, raw.quiver
    bases = {v: _column_space(ring, raw.vertex_actions[v]) for v in q.vertices}
    maps = {
        eid: _induced_matrix(
            (mat_vec(ring, raw.edge_actions[eid], x) for x in bases[src].basis()),
            bases[dst],
            "edge action image escaped the target projection",
        )
        for eid, src, dst in q.edges
    }
    dims = {v: bases[v].rank for v in q.vertices}
    return Representation(q, ring, dims, maps)


def rep_to_raw(m: Representation) -> RawModule:
    """Re-embed a representation as a raw module on its total space."""
    ring, q = m.ring, m.quiver
    D = m.total_dim
    vert = {}
    for v in q.vertices:
        E = [[ring.zero()] * D for _ in range(D)]
        off = m.offset(v)
        for i in range(m.dims[v]):
            E[off + i][off + i] = ring.one()
        vert[v] = tuple(tuple(r) for r in E)
    edges = {eid: m.path_matrix(Path(edges=(eid,))) for eid, _, _ in q.edges}
    return RawModule(q, ring, D, vert, edges)


# ---- desk-scale categorical checks (acyclic quivers) ----


def left_ideal_representation(e: AlgElem) -> Representation:
    """The cyclic projective A*e as a representation, graded by path targets.
    Finite-dimensional exactly because the quiver is acyclic."""
    q, ring = e.quiver, e.ring
    if not q.is_acyclic:
        raise RepError("A*e is infinite-dimensional on cyclic quivers")
    paths = q.all_paths()
    index = {p: i for i, p in enumerate(paths)}
    bases: dict[str, FieldRowSpace] = {
        v: FieldRowSpace(ring, len(paths)) for v in q.vertices
    }
    for p in paths:
        x = path_element(q, ring, p) * e
        if not x.is_zero:
            bases[q.path_target(p)].add(path_vector(x, index))
    maps = {}
    for eid, src, dst in q.edges:
        a = path_element(q, ring, Path(edges=(eid,)))
        images = []
        for row in bases[src].basis():
            x = AlgElem.make(
                q, ring, {paths[i]: c for i, c in enumerate(row) if not ring.is_zero(c)}
            )
            images.append(path_vector(a * x, index))
        maps[eid] = _induced_matrix(
            images, bases[dst], "edge action escaped the graded piece of A*e"
        )
    dims = {v: bases[v].rank for v in q.vertices}
    return Representation(q, ring, dims, maps)


def tensor_identity_holds(m: Representation) -> bool:
    """Whether the multiplication map A (x)_A M -> M is an isomorphism, with A
    the (finite-dimensional) path algebra of an acyclic quiver."""
    q, ring = m.quiver, m.ring
    if not q.is_acyclic:
        raise RepError("tensor identity check requires an acyclic quiver")
    if not ring.is_field:
        raise RepError("tensor identity check requires a field")
    paths = q.all_paths()
    index = {p: i for i, p in enumerate(paths)}
    D = m.total_dim
    ncols = len(paths) * D
    relations = FieldRowSpace(ring, ncols)
    for x in paths:
        for a in paths:
            xa = concat(q, x, a)
            act = m.path_matrix(a)
            for k in range(D):
                # (x*a) (x) m_k  -  x (x) (a*m_k)
                vec = [ring.zero()] * ncols
                if xa is not None:
                    vec[index[xa] * D + k] += 1
                for i in range(D):
                    vec[index[x] * D + i] -= act[i][k]
                relations.add(vec)
    return ncols - relations.rank == D
