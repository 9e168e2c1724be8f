import pytest

import random
from fractions import Fraction

from pathidem.algebra import (
    AlgElem,
    path_element,
    path_vector,
    vertex_idempotent,
)
from pathidem.linalg import mat_vec
from pathidem.classify import strongly_orthogonal
from pathidem.oracle import OracleBudget, enumerate_reps
from pathidem.quivers import Path, Quiver
from pathidem.reps import (
    RepError,
    Representation,
    Submodule,
    corner_algebra,
    corner_module,
    gamma,
    hom_space,
    in_category_e,
    morita_surrogate_check,
    submodule_from_local,
)
from pathidem.rings import Ring, RingError
from pathidem.sweep import q_a3, q_arrow, q_isolated, sweep_quivers

from conftest import conjugate, full_reps
from reference import (
    RefRowSpace,
    action_matrix,
    all_paths,
    block,
    corner_arrows,
    e_fixed,
    edge_element,
    is_edge_closed,
    left_ideal_representation,
    offset,
    path_matrix,
    ref_nullspace,
    sub_representation,
)


def arrow_rep(ring, scalar=1):
    return Representation(
        q_arrow(), ring, {"v1": 1, "v2": 1}, {"a": ((scalar,),)}
    )


def _morita(e, m, n):
    # morita_surrogate_check on the corner modules of m and n, built here
    corner = corner_algebra(e)
    cm, cn = corner_module(e, m, corner), corner_module(e, n, corner)
    return morita_surrogate_check(m, n, cm, cn)


class TestRepresentation:
    def test_validation(self, arrow, f5):
        with pytest.raises(RepError):
            Representation(arrow, f5, {"v1": 1}, {})
        with pytest.raises(RepError):
            Representation(arrow, f5, {"v1": 1, "v2": -1}, {})
        with pytest.raises(RepError):
            Representation(arrow, f5, {"v1": 1, "v2": 1}, {"a": ((1, 1),)})
        with pytest.raises(RepError):
            Representation(arrow, f5, {"v1": 1, "v2": 1}, {"zz": ((1,),)})

    def test_edge_entries_pass_the_coefficient_gate(self, arrow, f5):
        with pytest.raises(RingError):
            Representation(arrow, f5, {"v1": 1, "v2": 1}, {"a": ((2.5,),)})
        m = Representation(arrow, f5, {"v1": 1, "v2": 1}, {"a": ((7,),)})
        assert m.edge_maps["a"] == ((2,),)

    def test_element_over_another_quiver_or_ring(self, arrow, a3, f5, f3):
        m = arrow_rep(f5)
        for e in (vertex_idempotent(a3, f5, {"v2"}), vertex_idempotent(arrow, f3, {"v2"})):
            with pytest.raises(RepError, match="incompatible"):
                m.action_blocks(e)
            with pytest.raises(RepError, match="incompatible"):
                corner_module(e, m, corner_algebra(e))

    def test_missing_edge_defaults_to_zero(self, arrow, f5):
        m = Representation(arrow, f5, {"v1": 1, "v2": 1}, {})
        assert m.edge_maps["a"] == ((0,),)

    def test_layout(self, f5):
        m = arrow_rep(f5)
        assert m.total_dim == 2
        assert offset(m, "v2") == 1
        assert block(m, (7, 8), "v2") == (8,)

    def test_path_matrix(self, a3, f3):
        m = Representation(
            a3, f3, {"v1": 1, "v2": 1, "v3": 1}, {"a": ((1,),), "b": ((2,),)}
        )
        pm = path_matrix(m, Path(edges=("a", "b")))
        # composite v1 -> v3 acts by 2*1 in the (v3, v1) block
        assert pm[2][0] == 2
        assert path_matrix(m, Path(vertex="v2"))[1][1] == 1

    def test_action_matrix(self, arrow, f5):
        m = arrow_rep(f5)
        e = vertex_idempotent(arrow, f5, {"v2"}) + edge_element(arrow, f5, "a")
        assert action_matrix(m, e) == ((0, 0), (1, 1))

    @pytest.mark.parametrize(
        "ring, max_dim", [(Ring("Fp", 2), 3), (Ring("Fp", 3), 2), (Ring("Q"), None)],
        ids=str,
    )
    def test_action_matrix_matches_path_matrices(self, a3, ring, max_dim):
        # a loop l at the target of a: the idempotent e_v2 + 2*(a then l) has
        # a path term through the loop, and l + e_v2 puts two terms into the
        # block (v2, v2); on A3, e_v3 + (a then b) has a length-2 path term
        looped = Quiver(("v1", "v2"), (("a", "v1", "v2"), ("l", "v2", "v2")))

        def elem(q, terms):
            return AlgElem.make(
                q, ring, {Path(edges=p) if isinstance(p, tuple) else Path(vertex=p): c
                          for p, c in terms.items()}
            )

        cases = [
            (looped, elem(looped, {"v2": 1, ("a", "l"): 2}), True),
            (looped, elem(looped, {"v2": 1, ("a",): 1, ("a", "l"): 1}), True),
            (looped, elem(looped, {"v1": 2, "v2": 1, ("l",): 1, ("a", "l"): 2}), False),
            (a3, elem(a3, {"v3": 1, ("a", "b"): 2}), True),
            (a3, elem(a3, {"v2": 1, "v3": 1, ("a",): 1, ("a", "b"): 1}), True),
        ]
        for q, e, idempotent in cases:
            assert e.is_idempotent() == idempotent
            if max_dim is not None:
                reps = full_reps(q, ring, OracleBudget(max_total_dim=max_dim))
            else:
                reps = [
                    Representation(
                        q, ring, dict.fromkeys(q.vertices, 2),
                        {eid: ((1, 2), (-3, 1)) for eid, _, _ in q.edges},
                    )
                ]
            for m in reps:
                for (t, s), b in m.action_blocks(e).items():
                    assert (len(b), len(b[0])) == (m.dims[t], m.dims[s])
                assert _blocks_matrix(m, e) == action_matrix(m, e)

    def test_to_json(self, f5):
        assert arrow_rep(f5, scalar=3).to_json() == {
            "dims": {"v1": 1, "v2": 1}, "edges": {"a": [["3"]]}
        }


class TestFixedVectorsAndGamma:
    def test_e_fixed_projection(self, arrow, f5):
        m = arrow_rep(f5)
        e = vertex_idempotent(arrow, f5, {"v2"}) + edge_element(arrow, f5, "a")
        # e sends (x1, x2) to (0, x1 + x2); the image is the v2 axis
        assert e_fixed(e, m) == [(0, 1)]
        assert e_fixed(vertex_idempotent(arrow, f5, {"v1"}), m) == [(1, 0)]

    def test_e_fixed_requires_idempotent(self, arrow, f5):
        with pytest.raises(RepError):
            e_fixed(edge_element(arrow, f5, "a").scale(2), arrow_rep(f5))

    def test_gamma(self, arrow, f5):
        m = arrow_rep(f5)
        e1 = vertex_idempotent(arrow, f5, {"v1"})
        # v1 generates everything: the edge pushes it onto v2
        assert gamma(e1, m).dims == {"v1": 1, "v2": 1}
        e2 = vertex_idempotent(arrow, f5, {"v2"})
        assert gamma(e2, m).dims == {"v1": 0, "v2": 1}
        assert in_category_e(e1, m)
        assert not in_category_e(e2, m)

    def test_gamma_of_a_multiple(self, arrow, a3, f5):
        # 2*e_v is not idempotent over F_5, but spans the same e_v*M
        m3 = Representation(
            a3, f5, {"v1": 2, "v2": 1, "v3": 1}, {"a": ((1, 2),), "b": ((3,),)}
        )
        for m in (arrow_rep(f5), arrow_rep(f5, scalar=0), m3):
            for v in m.quiver.vertices:
                e = vertex_idempotent(m.quiver, f5, {v})
                assert gamma(e.scale(2), m) == gamma(e, m)
                assert in_category_e(e.scale(2), m) == in_category_e(e, m)

    def test_gamma_idempotent(self, arrow, f5):
        m = arrow_rep(f5)
        e = vertex_idempotent(arrow, f5, {"v2"})
        g = gamma(e, m)
        sub_rep, _ = sub_representation(g)
        assert gamma(e, sub_rep).dims == sub_rep.dims


class TestSubquotient:
    def test_submodule_spans_without_closing(self, arrow, f5):
        m = arrow_rep(f5)
        sub = submodule_from_local(m, {"v1": [(1,)]})
        assert sub.dims == {"v1": 1, "v2": 0}
        assert not is_edge_closed(sub)
        with pytest.raises(RepError, match="unknown vertex 'nope'"):
            submodule_from_local(m, {"nope": [(1,)]})

    def test_submodule_is_its_echelon_bases(self, arrow, f5):
        m = Representation(arrow, f5, {"v1": 3, "v2": 1}, {"a": ((1, 0, 0),)})
        plane = submodule_from_local(m, {"v1": [(0, 1, 2), (0, 1, 3)]})
        same = submodule_from_local(m, {"v1": [(0, 2, 0), (0, 3, 1), (0, 0, 4)]})
        assert plane == same
        assert plane.bases == same.bases == {"v1": ((0, 1, 0), (0, 0, 1)), "v2": ()}
        line = submodule_from_local(m, {"v1": [(0, 3, 0)]})
        assert line != plane
        assert line.bases == {"v1": ((0, 1, 0),), "v2": ()}

    def test_sub_representation(self, arrow, f5):
        m = arrow_rep(f5, scalar=2)
        sub = submodule_from_local(m, {"v1": [(1,)], "v2": [(1,)]})
        rep, bases = sub_representation(sub)
        assert rep.dims == {"v1": 1, "v2": 1}
        assert rep.edge_maps["a"] == ((2,),)
        assert bases["v2"] == [(1,)]

    def test_submodule_json(self, arrow, f5):
        m = arrow_rep(f5)
        sub = submodule_from_local(m, {"v2": [(1,)]})
        assert sub.to_json() == {"v1": [], "v2": [["1"]]}


class TestHom:
    def test_endomorphisms(self, f5):
        m = arrow_rep(f5)
        homs = hom_space(m, m)
        # f_v1 must equal f_v2, leaving one degree of freedom
        assert len(homs) == 1

    def test_hom_to_zero_edge(self, arrow, f5):
        m = arrow_rep(f5)
        n = Representation(arrow, f5, {"v1": 1, "v2": 1}, {})
        # f_v2 * 1 == 0 * f_v1 forces f_v2 = 0; f_v1 stays free
        assert len(hom_space(m, n)) == 1
        # the other direction forces f_v1 = 0 instead
        assert hom_space(n, m) == [{"v1": ((0,),), "v2": ((1,),)}]

    def test_zn_refused_when_built(self, arrow, z6):
        # refused whatever the dims, so hom_space never meets Z/n, even where
        # Hom(M, N) would have no unknowns
        for dims in ({"v1": 1, "v2": 1}, {"v1": 1, "v2": 0}, {"v1": 0, "v2": 0}):
            with pytest.raises(RepError, match="needs a field"):
                Representation(arrow, z6, dims, {})

    def test_incompatible(self, f5, f3):
        with pytest.raises(RepError):
            hom_space(arrow_rep(f5), arrow_rep(f3))

    def test_no_unknowns_still_refused(self, a3, f5):
        # Hom(M, N) has no unknowns here, and the pair is refused all the same
        other = Representation(a3, f5, {"v1": 0, "v2": 0, "v3": 1}, {})
        for x, y in ((arrow_rep(f5), other), (other, arrow_rep(f5))):
            with pytest.raises(RepError):
                hom_space(x, y)

    def test_orthogonal_supports_have_no_homs(self, two_isolated, f2):
        e1 = vertex_idempotent(two_isolated, f2, {"v1"})
        e2 = vertex_idempotent(two_isolated, f2, {"v2"})
        assert strongly_orthogonal(e1, e2)
        budget = OracleBudget(max_total_dim=2)
        reps = list(full_reps(two_isolated, f2, budget))
        m_side = [m for m in reps if m.total_dim and in_category_e(e1, m)]
        n_side = [n for n in reps if n.total_dim and in_category_e(e2, n)]
        assert m_side and n_side
        for m in m_side:
            for n in n_side:
                assert hom_space(m, n) == []


def n_paths(corner):
    qs, _ = corner
    return len(all_paths(qs))


class TestCorner:
    def test_corner_algebra_dims(self, arrow, f5):
        assert n_paths(corner_algebra(vertex_idempotent(arrow, f5, {"v2"}))) == 1
        assert n_paths(corner_algebra(vertex_idempotent(arrow, f5, arrow.vertices))) == 3

    def test_corner_quiver_arrows(self, a3, f2):
        # S = {v1, v3}: the one arrow of Q_S is the path a then b through v2
        qs, arrows = corner_algebra(vertex_idempotent(a3, f2, {"v1", "v3"}))
        assert qs.vertices == ("v1", "v3")
        assert [(src, dst) for _, src, dst in qs.edges] == [("v1", "v3")]
        assert list(arrows.values()) == [Path(edges=("a", "b"))]
        # S = all of A3: the arrows are the edges; the path a then b factors
        qs, arrows = corner_algebra(vertex_idempotent(a3, f2, a3.vertices))
        assert sorted(arrows.values(), key=Path.sort_key) == [
            Path(edges=("a",)), Path(edges=("b",))
        ]

    @pytest.mark.parametrize(
        "quivers",
        [sweep_quivers(3, 3, 60), sweep_quivers(4, 4, 200)],
        ids=["sweep3", "sweep4"],
    )
    def test_arrows_match_the_path_filter(self, quivers, f2):
        # the walk out of S against the filter over every path of Q, for
        # every vertex set S, the empty one included
        checked = 0
        for q in (q for q in quivers if q.is_acyclic):
            for s in _subsets(q):
                qs, arrows = corner_algebra(vertex_idempotent(q, f2, s))
                assert list(arrows.values()) == corner_arrows(q, s)
                assert list(arrows) == [str(i) for i in range(len(arrows))]
                assert [(src, dst) for _, src, dst in qs.edges] == [
                    (q.path_source(p), q.path_target(p)) for p in arrows.values()
                ]
                checked += len(arrows) > 1
        assert checked

    def test_corner_requires_acyclic(self, f5):
        loop = Quiver(("v1",), (("a", "v1", "v1"),))
        with pytest.raises(RepError):
            corner_algebra(vertex_idempotent(loop, f5, {"v1"}))

    def test_corner_requires_a_field_and_an_idempotent(self, arrow, f5, z6):
        # 3 * e_v2 is idempotent over Z/6, but Z/6 is not a field
        e = vertex_idempotent(arrow, z6, {"v2"}).scale(3)
        assert e.is_idempotent()
        with pytest.raises(RepError):
            corner_algebra(e)
        with pytest.raises(RepError):
            corner_algebra(vertex_idempotent(arrow, f5, {"v2"}).scale(2))

    def test_corner_module_actions(self, arrow, f5):
        e = vertex_idempotent(arrow, f5, arrow.vertices)
        m = arrow_rep(f5, scalar=3)
        cm = corner_module(e, m, corner_algebra(e))
        assert cm.dims == m.dims
        assert list(cm.edge_maps.values()) == [((3,),)]

    def test_corner_module_through_a_zero_space(self, a3, f3):
        # dims (1, 0, 1): the arrow v1 -> v3 of Q_S runs through the zero
        # space at v2, so it acts by the 1 x 1 zero matrix
        e = vertex_idempotent(a3, f3, {"v1", "v3"})
        m = Representation(a3, f3, {"v1": 1, "v2": 0, "v3": 1}, {})
        cm = corner_module(e, m, corner_algebra(e))
        assert list(cm.edge_maps.values()) == [((0,),)]
        n = Representation(a3, f3, {"v1": 1, "v2": 1, "v3": 1}, {"a": ((1,),), "b": ((2,),)})
        for x in (m, n):
            for y in (m, n):
                assert _morita(e, x, y) == _reference_morita(e, x, y)

    def test_corner_module_shares_a_corner_ring(self, arrow, f5):
        e = vertex_idempotent(arrow, f5, arrow.vertices)
        e2 = vertex_idempotent(arrow, f5, {"v2"})
        m, n = arrow_rep(f5), arrow_rep(f5, scalar=2)
        corner = corner_algebra(e)
        assert corner_module(e, m, corner).quiver is corner_module(e, n, corner).quiver
        with pytest.raises(RepError):
            corner_module(e, m, corner_algebra(e2))

    def test_restriction_of_identity(self, arrow, f5):
        # End(M) is spanned by the identity; its restriction to e_S M = M_v2
        # is the identity there, so the restriction has rank 1
        e = vertex_idempotent(arrow, f5, {"v2"})
        m = arrow_rep(f5)
        assert hom_space(m, m) == [{"v1": ((1,),), "v2": ((1,),)}]
        res = _morita(e, m, m)
        assert (res["hom_dim"], res["corner_dim"], res["restricted_rank"]) == (1, 1, 1)

    def test_corner_intertwiners_match_homs(self, arrow, f5):
        e = vertex_idempotent(arrow, f5, arrow.vertices)
        m, n = arrow_rep(f5), arrow_rep(f5, scalar=2)
        corner = corner_algebra(e)
        cm, cn = corner_module(e, m, corner), corner_module(e, n, corner)
        assert len(hom_space(cm, cn)) == len(hom_space(m, n))

    def test_restriction_bijective(self, arrow, f2, f5):
        # full idempotent: restriction is an isomorphism on every pair
        e = vertex_idempotent(arrow, f5, arrow.vertices)
        for m in [arrow_rep(f5), arrow_rep(f5, scalar=0), arrow_rep(f5, scalar=3)]:
            for n in [arrow_rep(f5), arrow_rep(f5, scalar=2)]:
                res = _morita(e, m, n)
                assert res["bijective"], res

    def test_restriction_bijective_on_generated_reps(self, arrow, f2):
        e = vertex_idempotent(arrow, f2, {"v2"})
        budget = OracleBudget(max_total_dim=2)
        reps = [
            m
            for m in full_reps(arrow, f2, budget)
            if in_category_e(e, m)
        ]
        assert reps
        for m in reps:
            for n in reps:
                assert _morita(e, m, n)["bijective"]


class TestProjectives:
    def test_left_ideal_representation(self, arrow, f5):
        e1 = vertex_idempotent(arrow, f5, {"v1"})
        p1 = left_ideal_representation(e1)
        # A*e_v1 has basis {e_v1, a}, graded v1 and v2, with a acting by 1
        assert p1.dims == {"v1": 1, "v2": 1}
        assert p1.edge_maps["a"] == ((1,),)
        p2 = left_ideal_representation(vertex_idempotent(arrow, f5, {"v2"}))
        assert p2.dims == {"v1": 0, "v2": 1}

    def test_left_ideal_requires_acyclic(self, f5):
        loop = Quiver(("v1",), (("a", "v1", "v1"),))
        with pytest.raises(RepError):
            left_ideal_representation(vertex_idempotent(loop, f5, {"v1"}))

    def test_hom_from_projective_counts_fixed_vectors(self, arrow, f2):
        # maps out of A*e are determined by where e goes: one dimension per
        # e-fixed basis vector of the target
        budget = OracleBudget(max_total_dim=2)
        for v in arrow.vertices:
            e = vertex_idempotent(arrow, f2, {v})
            p = left_ideal_representation(e)
            for m in full_reps(arrow, f2, budget):
                assert len(hom_space(p, m)) == len(e_fixed(e, m))


def _reference_hom_space_field(m, n):
    # one unknown per entry (v, i, j) of f_v, one equation per edge entry
    ring = m.ring
    layout = [
        (v, i, j)
        for v in m.quiver.vertices
        for i in range(n.dims[v])
        for j in range(m.dims[v])
    ]
    index = {key: k for k, key in enumerate(layout)}
    rows = []
    for eid, src, dst in m.quiver.edges:
        Ma, Na = m.edge_maps[eid], n.edge_maps[eid]
        for i in range(n.dims[dst]):
            for j in range(m.dims[src]):
                row = [ring.zero()] * len(layout)
                for k in range(m.dims[dst]):
                    row[index[(dst, i, k)]] = ring.add(
                        row[index[(dst, i, k)]], Ma[k][j]
                    )
                for l in range(n.dims[src]):
                    row[index[(src, l, j)]] = ring.sub(
                        row[index[(src, l, j)]], Na[i][l]
                    )
                rows.append(row)
    homs = []
    for sol in ref_nullspace(ring, rows, len(layout)):
        mats = {
            v: [[ring.zero()] * m.dims[v] for _ in range(n.dims[v])]
            for v in m.quiver.vertices
        }
        for (v, i, j), x in zip(layout, sol):
            mats[v][i][j] = ring.canon(x)
        homs.append({v: tuple(tuple(r) for r in rows) for v, rows in mats.items()})
    return homs


def _blocks_matrix(m, e):
    # the library's action blocks of e placed at their vertex offsets, zeros
    # elsewhere
    out = [[m.ring.zero()] * m.total_dim for _ in range(m.total_dim)]
    for (t, s), blk in m.action_blocks(e).items():
        roff, coff = offset(m, t), offset(m, s)
        for i, row in enumerate(blk):
            out[roff + i][coff : coff + len(row)] = row
    return tuple(map(tuple, out))


def _reference_corner(e):
    # a basis of eAe: the echelon span of e*p*e over every path p
    q, ring = e.quiver, e.ring
    paths = all_paths(q)
    index = {p: i for i, p in enumerate(paths)}
    products = (e * path_element(q, ring, p) * e for p in paths)
    space = RefRowSpace(ring, (path_vector(x, index) for x in products))
    return [
        AlgElem.make(q, ring, {paths[i]: c for i, c in enumerate(row) if c})
        for row in space.rows
    ]


def _in_basis(space, vectors):
    # the matrix whose columns are the coordinates of vectors in space's basis
    cols = [space.coords(y) for y in vectors]
    assert None not in cols
    return tuple(tuple(c[i] for c in cols) for i in range(len(space.rows)))


def _reference_corner_module(e, m, corner):
    # eM as the column space of e's action, with one action matrix per
    # element of the eAe basis, in the coordinates of that space's basis
    space = RefRowSpace(m.ring, zip(*action_matrix(m, e)))
    actions = [
        _in_basis(space, [mat_vec(m.ring, action_matrix(m, b), w) for w in space.rows])
        for b in corner
    ]
    return space, actions


def _reference_corner_intertwiners(cm, cn):
    # g is dn x dm, row-major; one equation per corner basis element and entry
    (space_m, actions_m), (space_n, actions_n) = cm, cn
    ring = space_m.ring
    dm, dn = len(space_m.rows), len(space_n.rows)
    rows = []
    for Am, An in zip(actions_m, actions_n):
        for i in range(dn):
            for j in range(dm):
                row = [ring.zero()] * (dn * dm)
                for k in range(dm):
                    row[i * dm + k] = ring.add(row[i * dm + k], Am[k][j])
                for l in range(dn):
                    row[l * dm + j] = ring.sub(row[l * dm + j], An[i][l])
                rows.append(row)
    return ref_nullspace(ring, rows, dn * dm)


def _reference_morita(e, m, n, cm=None, cn=None):
    # Hom(M, N), Hom_eAe(eM, eN) and the rank of the restriction to eM, all
    # on the eAe basis, with no quiver Q_S; cm, cn are the
    # _reference_corner_module of m and n, to share them between pairs
    ring = m.ring
    if cm is None or cn is None:
        corner = _reference_corner(e)
        cm, cn = _reference_corner_module(e, m, corner), _reference_corner_module(e, n, corner)
    homs = _reference_hom_space_field(m, n)
    restricted = RefRowSpace(ring)
    for f in homs:
        images = [
            tuple(x for v in m.quiver.vertices for x in mat_vec(ring, f[v], block(m, w, v)))
            for w in cm[0].rows
        ]
        restricted.add(tuple(x for row in _in_basis(cn[0], images) for x in row))
    hom_dim = len(homs)
    corner_dim = len(_reference_corner_intertwiners(cm, cn))
    return {
        "hom_dim": hom_dim,
        "corner_dim": corner_dim,
        "restricted_rank": len(restricted.rows),
        "bijective": hom_dim == corner_dim == len(restricted.rows),
    }


def _subsets(q):
    return [
        frozenset(v for i, v in enumerate(q.vertices) if bits >> i & 1)
        for bits in range(1 << len(q.vertices))
    ]


def _nonempty_subsets(q):
    return _subsets(q)[1:]


class TestIntertwinersAgainstReference:
    """hom_space over Q and over Q_S against the equation builders written out
    entry by entry with Ring arithmetic, and Hom over Q_S against the
    intertwiners of eM on the eAe basis, on the reps of acceptance test 07
    (arrow and A3 over F_2 and F_3, every nonempty left-closed S) at total
    dimension <= 2."""

    BUDGET = OracleBudget(max_total_dim=2)
    CASES = [
        (q, Ring("Fp", p), s)
        for q in (q_arrow(), q_a3())
        for p in (2, 3)
        for s in q.enumerate_left_closed()
        if s
    ]
    IDS = [f"{len(q.vertices)}v-F{r.modulus}-{'+'.join(sorted(s))}" for q, r, s in CASES]

    @pytest.mark.parametrize("q, ring, s", CASES, ids=IDS)
    def test_same_solutions(self, q, ring, s):
        e = vertex_idempotent(q, ring, s)
        corner, ref_corner = corner_algebra(e), _reference_corner(e)
        assert len(all_paths(corner[0])) == len(ref_corner)
        reps = [m for m in full_reps(q, ring, self.BUDGET) if in_category_e(e, m)]
        cms = [corner_module(e, m, corner) for m in reps]
        refs = [_reference_corner_module(e, m, ref_corner) for m in reps]
        for m, cm, rm in zip(reps, cms, refs):
            for n, cn, rn in zip(reps, cms, refs):
                assert hom_space(m, n) == _reference_hom_space_field(m, n)
                corner_homs = hom_space(cm, cn)
                assert corner_homs == _reference_hom_space_field(cm, cn)
                assert len(corner_homs) == len(_reference_corner_intertwiners(rm, rn))

    @pytest.mark.parametrize("ring", [Ring("Fp", 5), Ring("Q")], ids=["F5", "Q"])
    def test_same_solutions_other_fields(self, a3, ring):
        m = Representation(
            a3, ring, {"v1": 2, "v2": 1, "v3": 1}, {"a": ((1, 2),), "b": ((3,),)}
        )
        n = Representation(
            a3, ring, {"v1": 1, "v2": 2, "v3": 1}, {"a": ((1,), (4,)), "b": ((2, 1),)}
        )
        for s in ({"v1", "v3"}, a3.vertices):
            e = vertex_idempotent(a3, ring, s)
            corner = corner_algebra(e)
            for x in (m, n):
                for y in (m, n):
                    assert hom_space(x, y) == _reference_hom_space_field(x, y)
                    cx, cy = corner_module(e, x, corner), corner_module(e, y, corner)
                    assert hom_space(cx, cy) == _reference_hom_space_field(cx, cy)
                    assert _morita(e, x, y) == _reference_morita(e, x, y)


def _hom_kernel_cases():
    """(m, n) pairs of the kernel's edge cases, by name."""
    arrow, a3, two = q_arrow(), q_a3(), q_isolated(2)
    back = Quiver(("v1", "v2"), (("a", "v2", "v1"),))
    loop = Quiver(("v1", "v2"), (("l", "v1", "v1"), ("a", "v1", "v2")))
    f3, f5, q = Ring("Fp", 3), Ring("Fp", 5), Ring("Q")
    fr = Fraction
    return {
        # unknowns but no equation: m is 0 at the source of the only edge
        "no-equation-arrow": (
            Representation(arrow, f3, {"v1": 0, "v2": 2}, {}),
            Representation(arrow, f3, {"v1": 1, "v2": 2}, {"a": ((1,), (2,))}),
        ),
        "no-equation-no-edges": (
            Representation(two, q, {"v1": 2, "v2": 1}, {}),
            Representation(two, q, {"v1": 1, "v2": 2}, {}),
        ),
        # f_v1 is 2 x 0 (m is 0 there) and f_v3 is 0 x 1 (n is 0 there)
        "zero-on-one-side": (
            Representation(a3, f5, {"v1": 0, "v2": 1, "v3": 1}, {"b": ((2,),)}),
            Representation(a3, f5, {"v1": 2, "v2": 1, "v3": 0}, {"a": ((1, 3),)}),
        ),
        # equations whose pivots are 2 over F_3, and 2, 3, 4 over F_5
        "pivots-F3": (
            Representation(arrow, f3, {"v1": 2, "v2": 1}, {"a": ((2, 1),)}),
            Representation(arrow, f3, {"v1": 1, "v2": 2}, {"a": ((2,), (2,))}),
        ),
        "pivots-F5": (
            Representation(a3, f5, {"v1": 1, "v2": 2, "v3": 1}, {"a": ((3,), (2,)), "b": ((4, 2),)}),
            Representation(a3, f5, {"v1": 2, "v2": 1, "v3": 1}, {"a": ((2, 3),), "b": ((3,),)}),
        ),
        "fractions-Q": (
            Representation(a3, q, {"v1": 1, "v2": 2, "v3": 1},
                           {"a": ((fr(1, 2),), (fr(-3, 4),)), "b": ((fr(2, 3), 5),)}),
            Representation(a3, q, {"v1": 2, "v2": 1, "v3": 1},
                           {"a": ((fr(5, 3), fr(-1, 7)),), "b": ((fr(7, 2),),)}),
        ),
        # every equation row is 0: zero maps on both sides
        "zero-rows": (
            Representation(arrow, f5, {"v1": 2, "v2": 1}, {}),
            Representation(arrow, f5, {"v1": 1, "v2": 2}, {}),
        ),
        # an edge into an earlier vertex: its target's unknowns come first
        "edge-to-earlier-vertex": (
            Representation(back, f5, {"v1": 1, "v2": 2}, {"a": ((0, 3),)}),
            Representation(back, f5, {"v1": 2, "v2": 1}, {"a": ((0,), (0,))}),
        ),
        # a loop: f_v1 on both sides of one equation. With M_l = N_l some
        # entries cancel into a zero row (all of them for a 1 x 1 block)
        "loop-equal-maps-F3": (
            Representation(loop, f3, {"v1": 2, "v2": 1}, {"l": ((1, 2), (0, 1)), "a": ((2, 1),)}),
            Representation(loop, f3, {"v1": 2, "v2": 1}, {"l": ((1, 2), (0, 1)), "a": ((1, 0),)}),
        ),
        "loop-equal-scalars-F3": (
            Representation(loop, f3, {"v1": 1, "v2": 0}, {"l": ((2,),)}),
            Representation(loop, f3, {"v1": 1, "v2": 2}, {"l": ((2,),), "a": ((1,), (2,))}),
        ),
        "loop-maps-differ-F3": (
            Representation(loop, f3, {"v1": 2, "v2": 1}, {"l": ((0, 1), (0, 0)), "a": ((1, 1),)}),
            Representation(loop, f3, {"v1": 1, "v2": 1}, {"l": ((2,),), "a": ((2,),)}),
        ),
        "loop-equal-maps-Q": (
            Representation(loop, q, {"v1": 2, "v2": 1},
                           {"l": ((fr(1, 2), 3), (0, fr(1, 2))), "a": ((fr(-2, 3), 1),)}),
            Representation(loop, q, {"v1": 2, "v2": 2},
                           {"l": ((fr(1, 2), 3), (0, fr(1, 2))), "a": ((1, 0), (0, fr(5, 4)))}),
        ),
        "loop-maps-differ-Q": (
            Representation(loop, q, {"v1": 2, "v2": 1},
                           {"l": ((fr(1, 3), 0), (1, fr(-1, 2))), "a": ((2, fr(1, 7)),)}),
            Representation(loop, q, {"v1": 1, "v2": 1}, {"l": ((fr(1, 3),),), "a": ((4,),)}),
        ),
        # two equal quivers that are distinct objects
        "equal-quivers": (
            Representation(q_arrow(), f5, {"v1": 1, "v2": 1}, {"a": ((2,),)}),
            Representation(q_arrow(), f5, {"v1": 1, "v2": 1}, {"a": ((3,),)}),
        ),
    }


HOM_KERNEL_CASES = _hom_kernel_cases()


@pytest.mark.parametrize("m, n", HOM_KERNEL_CASES.values(), ids=HOM_KERNEL_CASES)
def test_hom_kernel_cases(m, n):
    # both directions against the reference, which solves with Ring
    # arithmetic only; every f has the block shapes n.dims[v] x m.dims[v]
    # and intertwines, and a system with no equation gives one f per unknown
    for x, y in ((m, n), (n, m)):
        homs = hom_space(x, y)
        assert homs == _reference_hom_space_field(x, y)
        ring = x.ring
        for f in homs:
            for v in x.quiver.vertices:
                assert len(f[v]) == y.dims[v]
                assert all(len(row) == x.dims[v] for row in f[v])
            for eid, src, dst in x.quiver.edges:
                left = _ref_product(ring, f[dst], x.edge_maps[eid], x.dims[src])
                right = _ref_product(ring, y.edge_maps[eid], f[src], x.dims[src])
                assert left == right
        equations = sum(y.dims[dst] * x.dims[src] for _, src, dst in x.quiver.edges)
        if not equations:
            assert len(homs) == sum(x.dims[v] * y.dims[v] for v in x.quiver.vertices)


def _ref_product(ring, a, b, ncols):
    # a * b with Ring arithmetic, ncols columns even when the inner dimension is 0
    out = [[ring.zero()] * ncols for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            for j in range(ncols):
                out[i][j] = ring.add(out[i][j], ring.mul(x, b[k][j]))
    return tuple(map(tuple, out))


class TestRestrictionRank:
    """morita_surrogate_check reads the restriction's rank off the blocks at
    S of Hom(M, N)'s basis and takes Hom over Q_S from Hom over Q where M
    and N vanish off S; both against the eAe-basis reference, for every
    nonempty S, left-closed or not."""

    BUDGET = OracleBudget(max_total_dim=2)
    CASES = [
        (q, Ring("Fp", p))
        for q in sweep_quivers(3, 3, 60)
        if q.is_acyclic
        for p in (2, 3)
    ]

    def test_every_in_category_pair_of_the_pool(self):
        pairs = not_bijective = 0
        for q, ring in self.CASES:
            reps = list(enumerate_reps(q, ring, self.BUDGET))
            for s in _nonempty_subsets(q):
                e = vertex_idempotent(q, ring, s)
                corner, ref_corner = corner_algebra(e), _reference_corner(e)
                inside = [m for m in reps if in_category_e(e, m)]
                cms = [corner_module(e, m, corner) for m in inside]
                refs = [_reference_corner_module(e, m, ref_corner) for m in inside]
                for m, cm, rm in zip(inside, cms, refs):
                    for n, cn, rn in zip(inside, cms, refs):
                        got = morita_surrogate_check(m, n, cm, cn)
                        assert got == _reference_morita(e, m, n, rm, rn), (e, m, n)
                        pairs += 1
                        not_bijective += not got["bijective"]
        assert (pairs, not_bijective) == (12_924, 1_054)

    @pytest.mark.parametrize("ring", ["F2", "F3", "F5", "Q"])
    @pytest.mark.parametrize("q", [q_arrow(), q_a3()], ids=["arrow", "A3"])
    def test_every_pair_of_the_small_reps(self, q, ring):
        # every pair of the reps of acceptance test 07 at total dimension
        # <= 2, in the category or not; over Q those are the F_3 reps with
        # entries 0, 1, 2 read in Q
        if ring == "Q":
            field = Ring("Q")
            reps = [
                Representation(q, field, m.dims, m.edge_maps)
                for m in full_reps(q, Ring("Fp", 3), self.BUDGET)
            ]
        else:
            field = Ring("Fp", int(ring[1:]))
            reps = list(full_reps(q, field, self.BUDGET))
        outside = not_injective = 0
        for s in _nonempty_subsets(q):
            e = vertex_idempotent(q, field, s)
            ref_corner = _reference_corner(e)
            refs = [_reference_corner_module(e, m, ref_corner) for m in reps]
            for m, rm in zip(reps, refs):
                for n, rn in zip(reps, refs):
                    got = _morita(e, m, n)
                    assert got == _reference_morita(e, m, n, rm, rn), (e, m, n)
                    outside += not (in_category_e(e, m) and in_category_e(e, n))
                    not_injective += got["restricted_rank"] < got["hom_dim"]
        assert outside and not_injective

    def test_injective_on_the_category(self):
        # for M = AeM an f that is 0 on e_S M is 0 on eM = u e_S M, hence on
        # M = A eM: restricted_rank == hom_dim on every in-category pair, for
        # every nonempty S, left-closed or not, and for a conjugate of each e_S
        pairs = moved = 0
        for q, ring in self.CASES:
            reps = list(enumerate_reps(q, ring, self.BUDGET))
            rng = random.Random(f"injective-{q}-{ring}")
            for s in _nonempty_subsets(q):
                e_s = vertex_idempotent(q, ring, s)
                for e in (e_s, conjugate(e_s, rng)):
                    moved += e != e_s
                    corner = corner_algebra(e)
                    inside = [m for m in reps if in_category_e(e, m)]
                    cms = [corner_module(e, m, corner) for m in inside]
                    for m, cm in zip(inside, cms):
                        for n, cn in zip(inside, cms):
                            got = morita_surrogate_check(m, n, cm, cn)
                            assert got["restricted_rank"] == got["hom_dim"], (e, m, n)
                            pairs += 1
        assert (pairs, moved) == (25_848, 137)

    def test_nonzero_kernel(self, arrow, f3):
        # e = e_v1 and M = N = the simple at v2: f_v2 = 1 is an intertwiner
        # that restricts to 0 on e_S M = 0, so the kernel is all of Hom(M, N)
        e = vertex_idempotent(arrow, f3, {"v1"})
        m = Representation(arrow, f3, {"v1": 0, "v2": 1}, {})
        res = _morita(e, m, m)
        assert (res["hom_dim"], res["corner_dim"], res["restricted_rank"]) == (1, 0, 0)
        assert res == _reference_morita(e, m, m)


class TestGeneralIdempotents:
    """morita_surrogate_check, which works on Q_S for the trivial support S of
    e, against the eAe-basis reference for idempotents that are not e_S: the
    conjugates u e_S u^-1 with u = 1 + (two path terms), and e_S + κ by the
    rule of acceptance test 09, at total dimension <= 2."""

    BUDGET = OracleBudget(max_total_dim=2)
    QUIVERS = [q_arrow(), q_a3()] + [
        q for q in sweep_quivers(3, 3, 60)
        if q.is_acyclic and len(q.vertices) == 3 and len(q.edges) >= 2 and q != q_a3()
    ][:3]  # the fork, the join, and a triangle whose Q_S can have two arrows
    CASES = [(q, Ring("Fp", p)) for q in QUIVERS for p in (2, 3)]
    IDS = [f"{q.edges}-F{r.modulus}" for q, r in CASES]

    @staticmethod
    def _conjugates(q, ring, rng):
        for s in _nonempty_subsets(q):
            yield conjugate(vertex_idempotent(q, ring, s), rng)

    @staticmethod
    def _with_kappa(q, ring, rng):
        # a path of length <= 2 from outside S into S may carry any x != 0
        for s in _nonempty_subsets(q):
            terms = {Path(vertex=v): 1 for v in s}
            for p in q.paths_up_to(2):
                if p.edges and q.path_target(p) in s and q.path_source(p) not in s:
                    if rng.random() < 0.6:
                        terms[p] = rng.randrange(1, ring.modulus)
            yield AlgElem.make(q, ring, terms)

    def _assert_matches_reference(self, q, ring, elements):
        reps = list(full_reps(q, ring, self.BUDGET))
        nontrivial = 0
        for e in elements:
            assert e.is_idempotent()
            s = {p.vertex for p, _ in e.terms if p.is_trivial}
            nontrivial += e != vertex_idempotent(q, ring, s)
            corner = corner_algebra(e)
            assert len(all_paths(corner[0])) == len(_reference_corner(e))
            inside = [m for m in reps if in_category_e(e, m)]
            cms = [corner_module(e, m, corner) for m in inside]
            for m, cm in zip(inside, cms):
                for n, cn in zip(inside, cms):
                    got = morita_surrogate_check(m, n, cm, cn)
                    assert got == _reference_morita(e, m, n), (e, m, n)
        return nontrivial

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_conjugates(self, q, ring):
        rng = random.Random(f"conjugates-{q}-{ring}")
        assert self._assert_matches_reference(q, ring, self._conjugates(q, ring, rng))

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_kappa_terms(self, q, ring):
        rng = random.Random(f"kappa-{q}-{ring}")
        assert self._assert_matches_reference(q, ring, self._with_kappa(q, ring, rng))
