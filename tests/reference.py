"""The global-coordinate reference layer the tests compare the library with.

The library works vertex by vertex on reduced echelon bases. Here the total
space of a representation concatenates its vertex blocks in the quiver's
declared vertex order, and an element acts by one global matrix, the sum of
its paths' matrices: the direct transcription of the definitions, kept out
of `src/` because no command, oracle or library function needs it. It does
its own linear algebra with `Ring` operations (`RefRowSpace`), lists its own
subspaces, reads specialness off the composition factors of Ae
(`ref_special_by_factors`), builds a truncated ideal from every sandwich
(`ref_ideal_contains`), solves Hom(M, N) entry by entry (`ref_hom_space`),
spans eAe by the products e*p*e (`ref_corner`), acts on eM by that basis
(`ref_corner_module`, `ref_corner_intertwiners`) and checks the Morita
restriction on it with no quiver Q_S (`ref_morita`). It takes nothing from
`pathidem.linalg`, `pathidem.oracle` or `pathidem.classify`, so a fault
there cannot hide in both sides of a comparison
(`test_reference_takes_no_library_linear_algebra` pins this). It also keeps
the small readers and products only tests need: vertex subsets and their
closure, a ring's idempotents, a standard form's reassembly, an edge as an
element, the paths of an acyclic quiver, and the matrix products
`ref_mat_vec` and `ref_mat_mul`.
"""

from functools import lru_cache
from itertools import combinations, product
from math import gcd
from typing import Sequence

from pathidem.algebra import AlgElem, path_element, path_vector
from pathidem.quivers import Path, Quiver
from pathidem.reps import Representation, RepError, Submodule
from pathidem.rings import Ring, RingError


# ---- readers of quivers, rings and elements that only the tests need ----


def all_paths(q: Quiver) -> list[Path]:
    """Every path of an acyclic quiver, in canonical order: none is longer
    than the number of vertices less one."""
    if not q.is_acyclic:
        raise ValueError("all_paths needs an acyclic quiver")
    return q.paths_up_to(max(len(q.vertices) - 1, 0))


def subsets(vertices):
    """Every subset of the vertices, by size, then in combination order."""
    for k in range(len(vertices) + 1):
        for c in combinations(vertices, k):
            yield frozenset(c)


def left_closed(q: Quiver, s) -> bool:
    """Whether no edge leaves the vertex set s."""
    return all(dst in s for _, src, dst in q.edges if src in s)


def right_closed(q: Quiver, s) -> bool:
    """Whether no edge enters the vertex set s."""
    return all(src in s for _, src, dst in q.edges if dst in s)


def idempotents(ring: Ring) -> list:
    """Every x with x*x == x, in canonical order; over Q, 0 and 1."""
    if ring.modulus is None:
        return [ring.zero(), ring.one()]
    return [x for x in ring.elements() if ring.mul(x, x) == x]


def reassemble(form) -> AlgElem:
    """The element sum lambda_v e_v + sum kappa_i p_i of a standard form."""
    terms = {Path(vertex=v): c for v, c in form.diag}
    terms.update(form.kappa_terms)
    return AlgElem.make(form.quiver, form.ring, terms)


def edge_element(q: Quiver, ring: Ring, eid: str) -> AlgElem:
    return path_element(q, ring, Path(edges=(eid,)))


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


def ref_mat_vec(ring: Ring, mat, vec) -> tuple:
    """mat @ vec with Ring.add and Ring.mul."""
    out = []
    for row in mat:
        acc = ring.zero()
        for a, x in zip(row, vec):
            acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return tuple(out)


def ref_mat_mul(ring: Ring, a, b, ncols: int) -> tuple:
    """a @ b with Ring.add and Ring.mul, ncols columns even when the inner
    dimension is 0."""
    out = [[ring.zero()] * ncols for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            for j in range(ncols):
                out[i][j] = ring.add(out[i][j], ring.mul(x, b[k][j]))
    return tuple(map(tuple, out))


def path_matrix(m: Representation, p: Path) -> tuple:
    """Global action matrix of a single path: each basis vector of the
    source's block carried along the path's edges, one edge map at a time,
    into the target's block."""
    ring, D = m.ring, m.total_dim
    out = [[ring.zero()] * D for _ in range(D)]
    src, dst = m.quiver.path_source(p), m.quiver.path_target(p)
    roff, coff = offset(m, dst), offset(m, src)
    for j in range(m.dims[src]):
        x = tuple(ring.one() if i == j else ring.zero() for i in range(m.dims[src]))
        for eid in p.edges:
            x = apply_edge(m, eid, x)
        for i, y in enumerate(x):
            out[roff + i][coff + j] = y
    return tuple(tuple(r) for r in out)


def action_matrix(m: Representation, e: AlgElem) -> tuple:
    """The global D x D matrix of e's action: the sum of c times
    `path_matrix` over the terms c*p of e."""
    ring, D = m.ring, m.total_dim
    act = [[ring.zero()] * D for _ in range(D)]
    for p, c in e.terms:
        for arow, row in zip(act, path_matrix(m, p)):
            for j, x in enumerate(row):
                arow[j] = ring.add(arow[j], ring.mul(c, x))
    return tuple(map(tuple, act))


def apply_edge(m: Representation, eid: str, local: Sequence) -> tuple:
    return ref_mat_vec(m.ring, m.edge_maps[eid], local)


def is_edge_closed(sub: Submodule) -> bool:
    """Whether a*C_s lies in C_t for every edge a: s -> t, with the images
    taken vector by vector through `apply_edge`."""
    ring = sub.rep.ring
    for eid, src, dst in sub.rep.quiver.edges:
        have = RefRowSpace(ring, sub.bases[dst])
        if any(have.coords(apply_edge(sub.rep, eid, x)) is None for x in sub.bases[src]):
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
    paths = all_paths(q)
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


def ref_ideal_contains(gens, degree: int, elem: AlgElem) -> bool:
    """Whether elem lies in the span of p * g * q over the generators g and
    the paths p, q with len(p) + len(q) <= degree, with every such sandwich
    multiplied out (`_ref_ideal_span`)."""
    cols, contains = _ref_ideal_span(tuple(gens), degree)
    terms = dict(elem.terms)
    if not terms.keys() <= cols.keys():
        return False  # a nonzero coefficient where no sandwich has a term
    return contains([terms.get(p, elem.ring.zero()) for p in cols])


@lru_cache(maxsize=8)
def _ref_ideal_span(gens: tuple, degree: int):
    """The paths the sandwiches p * g * q hold, in canonical order, and the
    membership test of their span: a `RefRowSpace` over a field, a
    `RefZnRowSpace` over Z/n. Kept for the last few ideals, as a test asks
    about many elements of one."""
    q, ring = gens[0].quiver, gens[0].ring
    paths = [path_element(q, ring, p) for p in q.paths_up_to(degree)]
    rows = [
        left * g * right
        for g in gens
        for left in paths
        for right in paths
        if left.max_degree() + right.max_degree() <= degree
    ]
    cols = sorted({p for x in rows for p, _ in x.terms}, key=Path.sort_key)
    vectors = [[dict(x.terms).get(p, ring.zero()) for p in cols] for x in rows]
    if ring.is_field:
        space = RefRowSpace(ring, vectors)
        return dict.fromkeys(cols), lambda vec: space.coords(vec) is not None
    zn = RefZnRowSpace(ring, len(cols))
    for vec in vectors:
        zn.add(vec)
    return dict.fromkeys(cols), zn.contains


def corner_arrows(q: Quiver, s) -> list[Path]:
    """The arrows of Q_S for a vertex set s of an acyclic quiver: the paths
    of Q from s to s with no interior vertex in s, filtered out of every
    path of Q in canonical order."""
    return [
        p
        for p in all_paths(q)
        if p.edges
        and q.path_source(p) in s
        and q.path_target(p) in s
        and not any(q.edge_target(eid) in s for eid in p.edges[:-1])
    ]


# ---- Hom, the corner eAe and the Morita restriction, on the eAe basis ----


def _intertwiners(ring: Ring, vertices, dims_m: dict, dims_n: dict, arrows) -> tuple:
    """The f = (f_v), f_v a dims_n[v] x dims_m[v] matrix, with f_t * A ==
    B * f_s for every arrow (s, t, A, B): one unknown per entry (v, i, j),
    in vertex then row-major order, and one equation per arrow and entry,
    solved by `ref_nullspace`. Returns the unknowns and a solution basis."""
    layout = [(v, i, j) for v in vertices for i in range(dims_n[v]) for j in range(dims_m[v])]
    index = {key: k for k, key in enumerate(layout)}
    rows = []
    for src, dst, A, B in arrows:
        for i in range(dims_n[dst]):
            for j in range(dims_m[src]):
                row = [ring.zero()] * len(layout)
                for k in range(dims_m[dst]):
                    row[index[(dst, i, k)]] = ring.add(row[index[(dst, i, k)]], A[k][j])
                for l in range(dims_n[src]):
                    row[index[(src, l, j)]] = ring.sub(row[index[(src, l, j)]], B[i][l])
                rows.append(row)
    return layout, ref_nullspace(ring, rows, len(layout))


def ref_hom_space(m: Representation, n: Representation) -> list[dict]:
    """A basis of Hom(M, N) over a field, f_t * M_a == N_a * f_s for every
    edge a: s -> t solved entry by entry, each f as {vertex: matrix}."""
    ring, vertices = m.ring, m.quiver.vertices
    arrows = [(src, dst, m.edge_maps[eid], n.edge_maps[eid]) for eid, src, dst in m.quiver.edges]
    layout, solutions = _intertwiners(ring, vertices, m.dims, n.dims, arrows)
    homs = []
    for sol in solutions:
        mats = {v: [[ring.zero()] * m.dims[v] for _ in range(n.dims[v])] for v in vertices}
        for (v, i, j), x in zip(layout, sol):
            mats[v][i][j] = ring.canon(x)
        homs.append({v: tuple(map(tuple, rows)) for v, rows in mats.items()})
    return homs


def ref_corner(e: AlgElem) -> list[AlgElem]:
    """A basis of eAe for an acyclic quiver: the echelon span of e*p*e over
    every path p."""
    q, ring = e.quiver, e.ring
    paths = all_paths(q)
    index = {p: i for i, p in enumerate(paths)}
    products = (e * path_element(q, ring, p) * e for p in paths)
    space = RefRowSpace(ring, (path_vector(x, index) for x in products))
    return [
        AlgElem.make(q, ring, {paths[i]: c for i, c in enumerate(row) if c})
        for row in space.rows
    ]


def ref_corner_module(e: AlgElem, m: Representation, corner: list) -> tuple:
    """eM as the column space of e's action, and one action matrix per
    element of the eAe basis `corner`, in the coordinates of that space's
    echelon basis."""
    space = RefRowSpace(m.ring, zip(*action_matrix(m, e)))
    actions = [
        _induced_matrix(
            [ref_mat_vec(m.ring, action_matrix(m, b), w) for w in space.rows],
            space,
            "eAe moved a vector out of eM",
        )
        for b in corner
    ]
    return space, actions


def ref_corner_intertwiners(cm: tuple, cn: tuple) -> list[tuple]:
    """A basis of Hom_eAe(eM, eN) for the `ref_corner_module` pairs cm, cn:
    the g with g * A == B * g for the actions A on eM and B on eN of each
    corner basis element, each g a row-major vector."""
    (space_m, actions_m), (space_n, actions_n) = cm, cn
    arrows = [(0, 0, a, b) for a, b in zip(actions_m, actions_n)]
    dims_m, dims_n = {0: len(space_m.rows)}, {0: len(space_n.rows)}
    return _intertwiners(space_m.ring, (0,), dims_m, dims_n, arrows)[1]


def ref_morita(e: AlgElem, m: Representation, n: Representation, cm=None, cn=None) -> dict:
    """Hom(M, N), Hom_eAe(eM, eN) and the rank of the restriction to eM, all
    on the eAe basis, with no quiver Q_S. cm and cn are the
    `ref_corner_module` of m and n, passed to share them between pairs."""
    ring = m.ring
    if cm is None or cn is None:
        corner = ref_corner(e)
        cm, cn = ref_corner_module(e, m, corner), ref_corner_module(e, n, corner)
    homs = ref_hom_space(m, n)
    restricted = RefRowSpace(ring)
    for f in homs:
        images = [
            tuple(x for v in m.quiver.vertices for x in ref_mat_vec(ring, f[v], block(m, w, v)))
            for w in cm[0].rows
        ]
        matrix = _induced_matrix(images, cn[0], "a homomorphism left eN")
        restricted.add(tuple(x for row in matrix for x in row))
    hom_dim = len(homs)
    corner_dim = len(ref_corner_intertwiners(cm, cn))
    return {
        "hom_dim": hom_dim,
        "corner_dim": corner_dim,
        "restricted_rank": len(restricted.rows),
        "bijective": hom_dim == corner_dim == len(restricted.rows),
    }


# ---- the oracles' definitions, one representation at a time ----


def ref_closure(m: Representation, vectors: dict) -> Submodule:
    """The submodule of m generated by per-vertex vectors (vertex -> list of
    local vectors): their span at each vertex, closed under the edge maps
    one image vector at a time."""
    spaces = {v: RefRowSpace(m.ring, vectors.get(v, ())) for v in m.quiver.vertices}
    grown = True
    while grown:
        grown = False
        for eid, src, dst in m.quiver.edges:
            for x in list(spaces[src].rows):
                grown |= spaces[dst].add(apply_edge(m, eid, x))
    return Submodule(m, {v: tuple(space.rows) for v, space in spaces.items()})


def ref_gamma(e: AlgElem, m: Representation) -> Submodule:
    """Γ_e(M) = AeM: generated by the blocks at each vertex of the echelon
    basis of e*M (the trivial paths project eM onto each vertex)."""
    fixed = e_fixed(e, m)
    return ref_closure(m, {v: [block(m, w, v) for w in fixed] for v in m.quiver.vertices})


def ref_in_category(e: AlgElem, m: Representation) -> bool:
    """Whether M = AeM."""
    return ref_gamma(e, m).dims == m.dims


@lru_cache(maxsize=None)
def ref_subspaces(ring: Ring, dim: int) -> tuple:
    """Every subspace of F_p^dim as its reduced echelon basis, in (rank,
    basis) order: grown from 0 by adding one vector of F_p^dim at a time
    until no new span appears."""
    vectors = list(product(ring.elements(), repeat=dim))
    found, frontier = {()}, [()]
    while frontier:
        grown = []
        for basis in frontier:
            for x in vectors:
                space = RefRowSpace(ring, basis)
                if space.add(x) and tuple(space.rows) not in found:
                    found.add(tuple(space.rows))
                    grown.append(tuple(space.rows))
        frontier = grown
    return tuple(sorted(found, key=lambda basis: (len(basis), basis)))


def ref_submodules(m: Representation):
    """Every product of per-vertex subspaces, in product order over the
    quiver's vertices, kept when edge-closed."""
    verts = m.quiver.vertices
    for choice in product(*(ref_subspaces(m.ring, m.dims[v]) for v in verts)):
        sub = Submodule(m, dict(zip(verts, choice)))
        if is_edge_closed(sub):
            yield sub


def ref_complements(m: Representation, g: Submodule):
    """The submodules C of m with C_v (+) g_v = M_v at every vertex v."""
    for c in ref_submodules(m):
        if all(
            len(c.bases[v]) + len(g.bases[v]) == m.dims[v]
            and len(RefRowSpace(m.ring, g.bases[v] + c.bases[v]).rows) == m.dims[v]
            for v in m.quiver.vertices
        ):
            yield c


def ref_special(e: AlgElem, reps) -> tuple:
    """The special search over `reps`, the definitions transcribed: the
    first M = AeM with a submodule N != AeN, each N rebuilt as a
    representation and tested on its own. Returns (kind, reps checked, M,
    N), with M and N None for "consistent"."""
    checked = 0
    for m in reps:
        checked += 1
        if not ref_in_category(e, m):
            continue
        for sub in ref_submodules(m):
            if not ref_in_category(e, sub_representation(sub)[0]):
                return "counterexample", checked, m, sub
    return "consistent", checked, None, None


def ref_split(e: AlgElem, reps) -> tuple:
    """The split search over `reps`: the first M in which Γ_e(M) has no
    submodule complement, found by filtering every submodule. Returns (kind,
    reps checked, M, Γ_e(M)), with M and Γ None for "consistent"."""
    checked = 0
    for m in reps:
        checked += 1
        g = ref_gamma(e, m)
        if next(ref_complements(m, g), None) is None:
            return "counterexample", checked, m, g
    return "consistent", checked, None, None


# ---- special from the composition factors of Ae, with no search ----


def ref_special_by_factors(e: AlgElem) -> bool:
    """Whether the idempotent e of an acyclic quiver's path algebra A over
    F_p, Q or Z/n is left special, read off the composition factors of Ae.

    Standard torsion theory (Dickson, Trans. AMS 121, 1966; Stenstrom,
    Rings of Quotients, 1975, ch. VI; Auslander-Platzeck-Todorov, Trans.
    AMS 332, 1992), on finite-length modules, the ones the oracles build:
    - Gen(Ae) = {M : M = AeM} is closed under quotients, sums and
      extensions: for 0 -> Y -> E -> X -> 0 with X, Y in it, eE maps onto
      eX, so AeE maps onto X and contains AeY = Y.
    - e is special exactly when Gen(Ae) is also closed under submodules,
      that is when it is a Serre class. A Serre class is fixed by its
      simples, and a simple X is in Gen(Ae) exactly when eX != 0.
    - So e is special exactly when every composition factor X of Ae has
      eX != 0: each M in Gen(Ae) is a quotient of copies of Ae, so every
      factor of a submodule of M is one of Ae's, and the submodule is built
      from them by extensions; conversely each factor of Ae is a
      subquotient of Ae.

    The simples are S_{w,p}: F_p at the vertex w, every edge 0, for each
    prime p | n (over a field, the vertex simples). e acts on S_{w,p} as
    lambda_w mod p. S_{w,p} is a factor of Ae exactly when some x*e, with x
    a path ending at w, has a coefficient c not 0 mod p^k, k = v_p(n):
    when c * (n / p^k) != 0 in Z/n. And lambda_w is 0 mod p exactly when
    lambda_w * (n / p) is 0 in Z/n. Only `AlgElem` products and `Ring.mul`
    are used; no standard form is read."""
    q, ring = e.quiver, e.ring
    if not q.is_acyclic or e * e != e:
        raise ValueError("ref_special_by_factors takes an idempotent, acyclic quiver")
    n = ring.modulus if ring.kind == "Zn" else None
    # per prime: the multiplier keeping the p-part, and the one reading mod p
    parts = [(1, 1)] if n is None else [(n // pk, n // p) for p, pk in _prime_powers(n)]
    lam = {p.vertex: c for p, c in e.terms if p.is_trivial}
    for x in all_paths(q):
        coeffs = [c for _, c in (path_element(q, ring, x) * e).terms]
        lam_w = lam.get(q.path_target(x), ring.zero())
        for keep, read in parts:
            if any(ring.mul(c, keep) for c in coeffs) and not ring.mul(lam_w, read):
                return False
    return True


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, p^v_p(n)) for each prime p dividing n, by trial division."""
    out = []
    for p in range(2, n + 1):
        pk = 1
        while n % p == 0:
            n, pk = n // p, pk * p
        if pk > 1:
            out.append((p, pk))
    return out


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
            v = [R.sub(a, R.mul(c, b)) for a, b in zip(v, row)]
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
        inv = R.inv(v[piv])  # RingError on a pivot that is not a unit
        v = tuple(R.mul(inv, x) for x in v)
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
            v[piv] = ring.sub(ring.zero(), row[f])
        basis.append(tuple(v))
    return basis
