"""Finite-dimensional quiver representations, Hom spaces and the corner ring.

A Representation assigns a finite-dimensional vector space over a field to
each vertex and a matrix to each edge; it is the graded picture of a
non-degenerate module over the path algebra. Every module here is such a
representation: the corner ring eAe of an idempotent e with trivial support
S is the path algebra of a quiver Q_S (`corner_algebra`), and eM is the
restriction of M to Q_S (`corner_module`). For a general e that is the
corner of e_S transported by the unit u = e e_S + (1 - e)(1 - e_S); the
tests pin this against the eAe basis spanned by the elements e p e.

Matrices act on column vectors; the edge matrix for a has shape
dims[target] x dims[source]. A Submodule is its reduced echelon basis at each
vertex (see `linalg`); Γ_e and the closure of a graded subspace are computed
on such bases with `linalg.join` and `linalg.image`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import AlgElem
from .linalg import (
    _combine,
    identity_matrix,
    image,
    join,
    mat_canon,
    mat_mul,
    nullspace,
    span,
    zero_matrix,
)
from . import quivers
from .quivers import Path, Quiver, QuiverError
from .rings import Ring


class RepError(ValueError):
    pass


@dataclass
class Representation:
    """A representation over a field: any other ring is refused here, when built."""

    quiver: Quiver
    ring: Ring
    dims: dict[str, int]
    edge_maps: dict[str, tuple]  # edge id -> matrix (dims[t] x dims[s])

    def __post_init__(self):
        q = self.quiver
        if not self.ring.is_field:
            raise RepError(f"a representation needs a field, not {self.ring}")
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

    def action_blocks(self, e: AlgElem) -> dict[tuple[str, str], tuple]:
        """The blocks of e's action: (t, s) -> the dims[t] x dims[s] matrix
        sum of c * M_p over the terms c*p of e from s to t. A pair has an
        entry only when dims[t] and dims[s] are both nonzero."""
        if e.quiver != self.quiver or e.ring != self.ring:
            raise RepError("element and representation are incompatible")
        q, ring, dims = self.quiver, self.ring, self.dims
        blocks: dict[tuple[str, str], tuple] = {}
        for p, c in e.terms:
            s, t = q.path_source(p), q.path_target(p)
            if not dims[s] or not dims[t]:
                continue
            mat = self._path_block(p)
            prev = blocks.get((t, s))
            if prev is not None or c != ring.one():
                prev = prev or zero_matrix(ring, dims[t], dims[s])
                mat = tuple(tuple(_combine(ring, u, c, w)) for u, w in zip(prev, mat))
            blocks[(t, s)] = mat
        return blocks

    def _path_block(self, p: Path) -> tuple:
        """The dims[t] x dims[s] matrix of a path p from s to t: the product
        of its edge maps, or the zero matrix when p runs through a zero space
        (where `mat_mul` cannot carry the column count)."""
        q, ring, dims = self.quiver, self.ring, self.dims
        s = q.path_source(p)
        if not dims[s] or not all(dims[q.edge_target(eid)] for eid in p.edges):
            return zero_matrix(ring, dims[q.path_target(p)], dims[s])
        mat = identity_matrix(ring, dims[s])
        for eid in p.edges:
            mat = mat_mul(ring, self.edge_maps[eid], mat)
        return mat

    # ---- serialization ----

    def to_json(self) -> dict:
        return {
            "dims": dict(self.dims),
            "edges": {
                eid: [[self.ring.fmt(x) for x in row] for row in m]
                for eid, m in self.edge_maps.items()
            },
        }


@dataclass
class Submodule:
    """A graded, edge-closed subspace of a representation over a field: the
    reduced echelon basis of its space at each vertex, a tuple of vectors in
    the local coordinates of that vertex. Such a basis names the subspace,
    so two submodules are equal exactly when their bases are."""

    rep: Representation
    bases: dict[str, tuple]

    @property
    def dims(self) -> dict[str, int]:
        return {v: len(b) for v, b in self.bases.items()}

    @property
    def total_dim(self) -> int:
        return sum(map(len, self.bases.values()))

    def to_json(self) -> dict:
        return {
            v: [[self.rep.ring.fmt(x) for x in vec] for vec in basis]
            for v, basis in self.bases.items()
        }


def submodule_from_local(
    rep: Representation, vectors: dict[str, list[Sequence]]
) -> Submodule:
    """The subspace of rep spanned by the given vectors at each named vertex,
    closed under nothing: the caller vouches that it is edge-closed.
    RepError on a vertex that is not rep's."""
    bases = {v: () for v in rep.quiver.vertices}
    for v, vecs in vectors.items():
        if v not in bases:
            raise RepError(f"unknown vertex {v!r}")
        bases[v] = span(rep.ring, vecs)
    return Submodule(rep, bases)


def _whole(m: Representation) -> dict[str, tuple]:
    """The reduced echelon basis of each vertex space of m."""
    return {v: identity_matrix(m.ring, d) for v, d in m.dims.items()}


def _generated(
    m: Representation, blocks: dict[tuple[str, str], tuple], bases: dict[str, tuple]
) -> dict[str, tuple]:
    """The submodule A*e*N of m, for e's action blocks on m and a graded
    subspace N given by reduced echelon bases per vertex: at each vertex t
    the join over s of block(t, s) * N_s, closed under the edge maps, with
    edge images from the cached `image`. The answer is again reduced
    echelon bases, equal to `bases` exactly when N = AeN (for a submodule
    N, AeN lies inside N)."""
    ring, dims = m.ring, m.dims
    out = {v: () for v in m.quiver.vertices}
    for (t, s), b in blocks.items():
        if bases[s]:
            out[t] = join(ring, out[t], image(ring, b, bases[s]))
    edges = [
        (src, dst, m.edge_maps[eid]) for eid, src, dst in m.quiver.edges if dims[dst]
    ]
    changed = True
    while changed:
        changed = False
        for src, dst, a in edges:
            have = out[dst]
            if out[src] and len(have) < dims[dst]:
                grown = join(ring, have, image(ring, a, out[src]))
                if len(grown) > len(have):
                    out[dst], changed = grown, True
    return out


def gamma(e: AlgElem, m: Representation) -> Submodule:
    """The smallest edge-closed graded subspace containing e*M (i.e. the span
    of all path translates of e*M). e need not be idempotent, and the ring
    may be any field: at each vertex t the seed is the join of the column
    spaces of e's action blocks (t, s), closed under the edge maps on
    reduced echelon bases, with images cached (see `linalg.image`)."""
    return Submodule(m, _generated(m, m.action_blocks(e), _whole(m)))


def in_category_e(
    e: AlgElem,
    m: Representation,
    blocks: Optional[dict[tuple[str, str], tuple]] = None,
) -> bool:
    """Whether M is generated by e*M (M = A e M), decided as Γ_e(M) = M
    basis for basis; for an idempotent e, e*M is the space of e-fixed
    vectors. e need not be idempotent, and the ring may be any field. Pass
    `blocks` = m.action_blocks(e) to share them with the caller."""
    whole = _whole(m)
    if blocks is None:
        blocks = m.action_blocks(e)
    return _generated(m, blocks, whole) == whole


# ---- Hom spaces ----


def hom_space(m: Representation, n: Representation) -> list[dict[str, tuple]]:
    """Basis of the intertwiners f = (f_v) with f_{t(a)} M_a = N_a f_{s(a)},
    over their field (a `Representation` checks that its ring is a field when
    it is built); RepError on reps of different quivers or rings. It is
    `linalg.nullspace` of one equation per entry of f_{t(a)} M_a - N_a f_{s(a)},
    in the unknowns f_v of shape n.dims[v] x m.dims[v], stored row-major in
    vertex order, and each basis vector is sliced into those blocks.

    Only an edge a with m.dims[s(a)] and n.dims[t(a)] both nonzero gives
    equations, and a row holds only the nonzero entries of M_a and N_a; a
    row that is 0 (every entry of its column of M_a and its row of N_a is
    0, or on a loop they cancel) is dropped. When there are no unknowns
    (dims[v] of m or of n is 0 at every vertex) the answer is [] with no
    `nullspace` call; when there are unknowns but no equation left
    `nullspace` returns the unit basis with no elimination."""
    if (m.quiver is not n.quiver and m.quiver != n.quiver) or (
        m.ring is not n.ring and m.ring != n.ring
    ):
        raise RepError("representations are incompatible")
    mdims, ndims = m.dims, n.dims
    blocks, offs, nunk = [], {}, 0  # blocks: v, offset, m.dims[v], n.dims[v]
    for v in m.quiver.vertices:
        d, nd = mdims[v], ndims[v]
        if d and nd:
            blocks.append((v, nunk, d, nd))
            offs[v] = nunk
            nunk += nd * d
    if not nunk:  # keeps `nullspace` (and its traced count) off empty systems
        return []
    zero = m.ring.zero()
    rows = []
    for eid, src, dst in m.quiver.edges:
        ms, nt = mdims[src], ndims[dst]
        if not ms or not nt:
            continue
        # column j of M_a and row i of N_a, as their nonzero entries: those
        # of M_a land in f_dst's block, those of N_a in f_src's; a block
        # with no entry (m.dims[dst] or n.dims[src] is 0) has no offset
        md = mdims[dst]
        cols = (
            [[(k, x) for k, x in enumerate(c) if x] for c in zip(*m.edge_maps[eid])]
            if md
            else [()] * ms
        )
        od, os_ = offs.get(dst), offs.get(src)
        for i, nrow in enumerate(n.edge_maps[eid]):
            brow = [(os_ + l * ms, x) for l, x in enumerate(nrow) if x]
            for j, acol in enumerate(cols):
                if not acol and not brow:
                    continue
                row = [zero] * nunk
                for k, x in acol:
                    row[od + i * md + k] = x
                for o, x in brow:
                    row[o + j] -= x
                # 0 only on a loop, where entries of M_a and N_a can cancel
                # (they lie in (-p, p), so a row is 0 mod p only if it is 0)
                if any(row):
                    rows.append(row)
    sols = nullspace(m.ring, rows, nunk)
    empty = {v: ((),) * ndims[v] for v in m.quiver.vertices}  # f_v with no entry
    homs = []
    for sol in sols:
        f = empty.copy()
        for v, o, d, nd in blocks:
            f[v] = tuple([sol[o + i * d : o + (i + 1) * d] for i in range(nd)])
        homs.append(f)
    return homs


# ---- the corner ring eAe as the path algebra of a quiver Q_S ----


def _trivial_support(e: AlgElem) -> tuple[str, ...]:
    """The vertices whose trivial path has a nonzero coefficient in e, in
    the quiver's vertex order."""
    s = {p.vertex for p, _ in e.terms if p.is_trivial}
    return tuple(v for v in e.quiver.vertices if v in s)


def corner_algebra(e: AlgElem) -> tuple[Quiver, dict[str, Path]]:
    """The corner ring eAe of an idempotent e over a field on an acyclic
    quiver, as the quiver Q_S whose path algebra it is, together with the
    path of Q that each arrow of Q_S stands for.

    S is the trivial support of e. Q_S has the vertices S and one arrow per
    path of Q from S to S with no interior vertex in S. Every path between
    vertices of S factors uniquely into such arrows, so e_S A e_S is the path
    algebra of Q_S. For a general e, the diagonal part of e is e_S, and
    u = e e_S + (1 - e)(1 - e_S) is a unit with u e_S u^-1 = e (lifting of
    idempotents), so conjugation by u carries e_S A e_S onto eAe and e_S M
    onto eM. test_reps pins this against the eAe basis spanned by the e p e.

    The arrows are found by walking out of each s in S through vertices
    outside S until the walk enters S, so no other path of Q is built; they
    are numbered in canonical path order (length, then edge ids). Like
    `Quiver.paths_up_to`, the walk raises QuiverError once the paths it has
    built hold more than `quivers._MAX_EDGE_IDS` edge ids in all, which
    bounds its time and memory where Q has exponentially many paths.
    `morita_surrogate_check` solves Hom(e_S M, e_S N) over Q_S with
    `hom_space` only where M or N is nonzero outside S."""
    q = e.quiver
    if not q.is_acyclic:
        raise RepError("corner computations require an acyclic quiver")
    if not e.ring.is_field:
        raise RepError("corner computations require a field")
    if not e.is_idempotent():
        raise RepError("corner ring needs an idempotent element")
    s = _trivial_support(e)
    inside = set(s)
    walks = [(v, ()) for v in s]  # (vertex reached, edges from a vertex of S)
    found = []
    held = 0  # edge ids over all paths built so far
    while walks:
        v, edges = walks.pop()
        for eid in q.out_edges[v]:
            w, path = q.edge_target(eid), edges + (eid,)
            held += len(path)
            if held > quivers._MAX_EDGE_IDS:
                raise QuiverError(
                    f"paths out of S hold more than {quivers._MAX_EDGE_IDS} edge ids"
                )
            if w in inside:
                found.append(path)
            else:
                walks.append((w, path))
    found.sort(key=lambda path: (len(path), path))
    arrows = [Path(edges=path) for path in found]
    ids = [str(i) for i in range(len(arrows))]
    edges = tuple((i, q.path_source(p), q.path_target(p)) for i, p in zip(ids, arrows))
    return Quiver(s, edges), dict(zip(ids, arrows))


def corner_module(
    e: AlgElem, m: Representation, corner: tuple[Quiver, dict[str, Path]]
) -> Representation:
    """The restriction e_S M of M to Q_S, for `corner` = corner_algebra(e),
    which one call shares between the modules of e: M_v at each v in S, and
    on each arrow the product of M's edge maps along its path. An arrow that
    is one edge of Q keeps M's own matrix for that edge; only a longer path
    is multiplied out (`Representation._path_block`)."""
    if e.quiver != m.quiver or e.ring != m.ring:
        raise RepError("element and representation are incompatible")
    qs, arrows = corner
    if qs.vertices != _trivial_support(e):
        raise RepError("corner ring belongs to a different idempotent")
    maps = {
        a: m.edge_maps[p.edges[0]] if len(p.edges) == 1 else m._path_block(p)
        for a, p in arrows.items()
    }
    return Representation._from_canonical(
        qs, m.ring, {v: m.dims[v] for v in qs.vertices}, maps
    )


def morita_surrogate_check(
    m: Representation, n: Representation, cm: Representation, cn: Representation
) -> dict:
    """Check that restriction to e_S M is a bijection from Hom(M, N) onto
    Hom(e_S M, e_S N) over Q_S, for M, N generated by eM over an acyclic
    quiver and cm, cn their `corner_module`s. The restriction of f is its
    blocks f_v for v in S. Conjugation by the unit u of `corner_algebra`
    carries it onto the restriction to eM, so the dimensions are those of
    Hom(M, N) -> Hom_eAe(eM, eN).

    Per pair, `hom_space` solves Hom(M, N), and Hom(e_S M, e_S N) only where
    M or N is nonzero at a vertex outside S; there the restriction's rank is
    the rank of the images of Hom(M, N)'s basis, their blocks at S.
    Where M and N vanish off S, both numbers are dim Hom(M, N): the edges
    inside S are arrows of Q_S with the same equations, every other arrow of
    Q_S runs through a zero space and adds only zero rows, and every f is its
    blocks at S.

    For M = AeM the restriction is injective, so restricted_rank ==
    hom_dim: an f that is 0 on e_S M is 0 on eM = u e_S M, hence, being
    A-linear, on M = A eM."""
    homs = hom_space(m, n)
    inside = cm.quiver.vertices
    hom_dim = corner_dim = rank = len(homs)
    if any(m.dims[v] or n.dims[v] for v in m.quiver.vertices if v not in inside):
        corner_dim = len(hom_space(cm, cn))
        blocks = (tuple(x for v in inside for row in f[v] for x in row) for f in homs)
        rank = len(span(m.ring, blocks))
    return {
        "hom_dim": hom_dim,
        "corner_dim": corner_dim,
        "restricted_rank": rank,
        "bijective": hom_dim == corner_dim == rank,
    }
