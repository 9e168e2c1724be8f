import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathidem.algebra import (
    AlgebraError,
    AlgElem,
    path_element,
    vertex_idempotent,
)
from pathidem.classify import (
    ClassifyError,
    classify,
    enumerate_full_families_trivial_idem,
    is_central,
    is_full_family,
    is_left_special,
    is_left_split,
    standard_form,
    strongly_orthogonal,
    try_standard_form,
)
from pathidem.oracle import OracleError, fullness_bruteforce, orthogonality_bruteforce
from pathidem.quivers import Path, Quiver
from pathidem.rings import Ring
from pathidem.sweep import sweep_quivers

from conftest import conjugate, random_coeff
from reference import (
    edge_element,
    idem_leq,
    idempotents,
    left_closed,
    reassemble,
    ref_special_by_factors,
    right_closed,
    subsets,
)
from test_acceptance import _random_special


class TestStandardForm:
    def test_e_v2_on_arrow(self, arrow, f5):
        e = vertex_idempotent(arrow, f5, {"v2"})
        form, witness = try_standard_form(e)
        assert witness is None
        assert form.vertices == frozenset({"v2"})
        assert form.diag == (("v2", 1),)
        assert form.kappa_terms == ()
        assert reassemble(form) == e

    def test_e_v1_on_arrow_rejected(self, arrow, f5):
        e = vertex_idempotent(arrow, f5, {"v1"})
        form, witness = try_standard_form(e)
        assert form is None
        assert witness.condition == "support-not-left-closed"
        assert not is_left_special(e)
        with pytest.raises(ClassifyError):
            standard_form(e)

    def test_kappa_term(self, arrow, f5):
        # e_v2 + a is left special: the path term ends inside the support
        e = vertex_idempotent(arrow, f5, {"v2"}) + edge_element(arrow, f5, "a")
        form, witness = try_standard_form(e)
        assert witness is None
        assert form.kappa_terms == ((Path(edges=("a",)), 1),)
        assert e.is_idempotent()

    def test_kappa_source_annihilation(self, arrow, z6):
        # support {v1, v2}, lambda_v1 = 3 must kill kappa on the path from v1
        good = AlgElem.make(
            arrow, z6,
            {Path(vertex="v1"): 3, Path(vertex="v2"): 1, Path(edges=("a",)): 4},
        )
        form, witness = try_standard_form(good)
        assert witness is None
        assert good.is_idempotent()
        bad = AlgElem.make(
            arrow, z6,
            {Path(vertex="v1"): 3, Path(vertex="v2"): 1, Path(edges=("a",)): 1},
        )
        form, witness = try_standard_form(bad)
        assert form is None
        assert witness.condition == "kappa-not-annihilated-by-source-lambda"

    def test_kappa_target_fix(self, arrow, z6):
        e = AlgElem.make(arrow, z6, {Path(vertex="v2"): 3, Path(edges=("a",)): 4})
        form, witness = try_standard_form(e)
        assert form is None
        assert witness.condition == "kappa-not-fixed-by-target-lambda"

    def test_lambda_monotonicity(self, arrow, z6):
        # a path v1 -> v2 forces (lambda_v1) inside (lambda_v2); 4 is not in (3)
        e = AlgElem.make(arrow, z6, {Path(vertex="v1"): 4, Path(vertex="v2"): 3})
        form, witness = try_standard_form(e)
        assert form is None
        assert witness.condition == "lambda-not-monotone-along-paths"
        ok = AlgElem.make(arrow, z6, {Path(vertex="v1"): 3, Path(vertex="v2"): 1})
        assert is_left_special(ok)

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_lambda_monotonicity_is_idem_leq(self, arrow, n):
        ring = Ring("Zn", n)
        nonzero = [x for x in idempotents(ring) if x]
        assert len(nonzero) >= 3
        for l1 in nonzero:
            for l2 in nonzero:
                e = AlgElem.make(
                    arrow, ring, {Path(vertex="v1"): l1, Path(vertex="v2"): l2}
                )
                form, witness = try_standard_form(e)
                assert (form is not None) == idem_leq(ring, l1, l2)
                if form is None:
                    assert witness.condition == "lambda-not-monotone-along-paths"

    def test_lambda_idempotent(self, arrow, z6):
        e = AlgElem.make(arrow, z6, {Path(vertex="v2"): 2})
        form, witness = try_standard_form(e)
        assert form is None
        assert witness.condition == "lambda-not-idempotent"

    def test_zero_is_special_and_split(self, arrow, f5):
        z = AlgElem.zero(arrow, f5)
        assert is_left_special(z)
        assert is_left_split(z)

    def test_form_json(self, arrow, f5):
        form = standard_form(vertex_idempotent(arrow, f5, {"v2"}))
        assert form.to_json() == {
            "vertices": ["v2"],
            "lambda": {"v2": "1"},
            "kappa_terms": [],
        }


class TestSplit:
    def test_e_v2_not_split(self, arrow, f5):
        assert not is_left_split(vertex_idempotent(arrow, f5, {"v2"}))

    def test_full_support_split(self, arrow, f5):
        assert is_left_split(vertex_idempotent(arrow, f5, arrow.vertices))

    def test_isolated_component_split(self, two_isolated, f5):
        assert is_left_split(vertex_idempotent(two_isolated, f5, {"v2"}))

    def test_lambda_constancy(self, two_isolated, z6):
        # different weak components may carry different idempotents
        e = AlgElem.make(
            two_isolated, z6, {Path(vertex="v1"): 3, Path(vertex="v2"): 4}
        )
        assert is_left_split(e)

    def test_lambda_constancy_fails_within_component(self, arrow, z6):
        e = AlgElem.make(arrow, z6, {Path(vertex="v1"): 3, Path(vertex="v2"): 1})
        assert is_left_special(e)
        assert not is_left_split(e)

    def test_split_requires_special(self, arrow, f5):
        with pytest.raises(ClassifyError):
            is_left_split(vertex_idempotent(arrow, f5, {"v1"}))


def _reachability_rules(e):
    """The rules the per-edge checks replaced, kept as the reference: for an
    element whose support S is left closed with idempotent lambda, whether
    lambda_v * lambda_w == lambda_v for every w reachable from v, and, when
    it is, whether S is right closed and lambda is constant on the part of S
    in each weak component. Returns (monotone, split), or None for an
    element that fails before the monotone check."""
    q, ring = e.quiver, e.ring
    lam = {p.vertex: c for p, c in e.terms if p.is_trivial}
    s = frozenset(lam)
    if not left_closed(q, s) or not all(ring.is_idempotent(c) for c in lam.values()):
        return None
    monotone = all(
        ring.mul(lam[v], lam[w]) == lam[v] for v in s for w in q.reachable(v)
    )
    split = right_closed(q, s) and all(
        len({lam[v] for v in comp & s}) <= 1 for comp in q.weak_components()
    )
    return monotone, split


def _named_edge(q, witness):
    """The edge a per-edge witness names, as (id, source, target)."""
    eid = witness.detail.split()[1]
    src, dst = q.edge_by_id[eid]
    assert witness.detail.startswith(f"edge {eid} runs {src} -> {dst} ")
    return eid, src, dst


class TestPerEdgeRules:
    """try_standard_form checks monotone lambda on each edge out of S, and the
    split test constant lambda on each edge into S; both agree with the
    reachability rules they replaced, and each witness names a failing edge."""

    def _check(self, e):
        ref = _reachability_rules(e)
        form, witness = try_standard_form(e)
        if ref is None:
            assert witness.condition != "lambda-not-monotone-along-paths"
            return None
        monotone, split = ref
        lam = {p.vertex: c for p, c in e.terms if p.is_trivial}
        ring = e.ring
        if not monotone:
            assert witness.condition == "lambda-not-monotone-along-paths", e
            _, v, w = _named_edge(e.quiver, witness)
            assert ring.mul(lam[v], lam[w]) != lam[v]
            return "not-monotone"
        assert witness is None or witness.condition.startswith("kappa"), e
        if form is None:
            return "kappa"
        report = classify(e)
        assert report.is_left_split == split, e
        if not split and report.witnesses[0].condition == "lambda-not-constant-on-component":
            _, u, v = _named_edge(e.quiver, report.witnesses[0])
            assert lam[u] != lam[v]
            return "not-constant"
        return f"split={split}"

    def test_every_diagonal_z30_element(self):
        seen = Counter(self._check(e) for e in _z30_diagonal_grid())
        assert {"not-monotone", "not-constant", "split=True", "split=False"} <= seen.keys()

    def test_elements_with_path_terms(self):
        seen = Counter(self._check(e) for e in _z30_path_term_grid())
        assert {"not-monotone", "kappa", "not-constant", "split=True"} <= seen.keys()


Z30 = Ring("Zn", 30)


def _z30_diagonal_grid():
    """Every element sum lambda_v e_v with each lambda_v an idempotent of
    Z/30, on the quivers of sweep_quivers(4, 4, 40)."""
    idems = idempotents(Z30)
    for q in sweep_quivers(4, 4, 40):
        for lam in _assignments(q.vertices, idems):
            yield AlgElem.make(q, Z30, {Path(vertex=v): c for v, c in lam.items()})


def _z30_path_term_grid():
    """Ten elements per quiver of sweep_quivers(4, 4, 200): an idempotent of
    Z/30 at each vertex and up to two path terms of length <= 2, each with a
    nonzero idempotent or a random coefficient; not all are idempotent."""
    rng = random.Random(30)
    idems = idempotents(Z30)
    for q in sweep_quivers(4, 4, 200):
        paths = [p for p in q.paths_up_to(2, limit=500) if not p.is_trivial]
        for _ in range(10):
            terms = {Path(vertex=v): rng.choice(idems) for v in q.vertices}
            for p in rng.sample(paths, min(len(paths), rng.randint(0, 2))):
                terms[p] = rng.choice([x for x in idems if x] + [rng.randrange(30)])
            yield AlgElem.make(q, Z30, terms)


class TestSpecialByFactors:
    """`is_left_special` against `reference.ref_special_by_factors`, which
    reads the composition factors of Ae from `AlgElem` products and takes
    no standard form, on the idempotents of acyclic quivers over Z/n: test
    09's Z/6 forms with a conjugate of each, and the Z/30 grid of
    `TestPerEdgeRules`."""

    def test_z6_forms(self):
        rng = random.Random(9)
        quivers = [q for q in sweep_quivers(4, 4, 60) if q.is_acyclic]
        for _ in range(500):
            e = _random_special(rng, quivers)
            for x in (e, conjugate(e, rng)):
                assert ref_special_by_factors(x) and is_left_special(x), x

    def test_z30_grid(self):
        seen = Counter()
        for grid in (_z30_diagonal_grid(), _z30_path_term_grid()):
            for e in grid:
                if e.quiver.is_acyclic and e * e == e:
                    special = is_left_special(e)
                    assert ref_special_by_factors(e) == special, e
                    seen[special] += 1
        assert seen[True] and seen[False]


class TestCentral:
    def test_unit_central(self, a3, f5):
        assert is_central(vertex_idempotent(a3, f5, a3.vertices))

    def test_e_v2_not_central(self, arrow, f5):
        assert not is_central(vertex_idempotent(arrow, f5, {"v2"}))

    def test_z6_scaled_unit_central(self, arrow, z6):
        e = vertex_idempotent(arrow, z6, arrow.vertices).scale(3)
        assert is_central(e)


def _central_by_products(e):
    """The reference: commutation with every generator e_v and every edge,
    decided by algebra products."""
    q, ring = e.quiver, e.ring
    gens = [path_element(q, ring, Path(vertex=v)) for v in q.vertices]
    gens += [edge_element(q, ring, eid) for eid, _, _ in q.edges]
    return all(e * g == g * e for g in gens)


ONE_LOOP = Quiver(("v1",), (("x", "v1", "v1"),))
TWO_LOOPS = Quiver(("v1",), (("x", "v1", "v1"), ("y", "v1", "v1")))
TWO_CYCLE = Quiver(("a", "b"), (("f", "a", "b"), ("g", "b", "a")))
TWO_CYCLE_LOOP = Quiver(("a", "b"), (("f", "a", "b"), ("g", "b", "a"), ("x", "a", "a")))
CENTRAL_QUIVERS = {
    "one-loop": ONE_LOOP,
    "two-loops": TWO_LOOPS,
    "two-cycle": TWO_CYCLE,
    "two-cycle-loop": TWO_CYCLE_LOOP,
}
CENTRAL_RINGS = {
    "F2": (Ring("Fp", 2), (0, 1)),
    "F3": (Ring("Fp", 3), (0, 1, 2)),
    "Z6": (Ring("Zn", 6), (0, 1, 2, 3, 4, 5)),
    "Q": (Ring("Q"), (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))),
}


def _rotation_sums(q, max_len):
    """For each cycle of length <= max_len, the set of its rotations; on a
    component that is one oriented cycle their sum is central."""
    out = []
    for p in q.paths_up_to(max_len, limit=2000):
        if not p.is_trivial and q.path_source(p) == q.path_target(p):
            out.append(
                frozenset(Path(edges=p.edges[i:] + p.edges[:i]) for i in range(len(p)))
            )
    return out


def _mixed_element(q, ring, coeffs, rng):
    """A scalar on each weak component, plus up to two rotation sums, plus
    (half of the time) one arbitrary path term: central elements with path
    terms and near misses of them."""
    terms = {}
    for comp in q.weak_components():
        c = rng.choice(coeffs)
        for v in comp:
            terms[Path(vertex=v)] = c
    rotations = _rotation_sums(q, 3)
    for rot in rng.sample(rotations, min(len(rotations), rng.randint(0, 2))):
        c = ring.canon(rng.choice(coeffs))
        for p in rot:
            terms[p] = ring.add(ring.canon(terms.get(p, 0)), c)
    if rng.random() < 0.5:
        paths = q.paths_up_to(2, limit=2000)
        terms[rng.choice(paths)] = rng.choice(coeffs)
    return AlgElem.make(q, ring, terms)


class TestCentralAgainstProducts:
    """The term-level test agrees with the product test, on elements with
    path terms and not only on diagonal ones."""

    @pytest.mark.parametrize(
        "ring", [r for r, _ in CENTRAL_RINGS.values()], ids=CENTRAL_RINGS.keys()
    )
    def test_non_diagonal_central(self, ring):
        def elem(q, terms):
            # edge ids are single letters: "fg" is the path f then g
            return AlgElem.make(q, ring, {Path(edges=tuple(k)): c for k, c in terms})

        x = elem(ONE_LOOP, [("x", 1)])
        cyc = elem(TWO_CYCLE, [("fg", 1), ("gf", 1)])
        for e in (x, x + elem(ONE_LOOP, [("xx", 1)]), cyc, cyc * cyc):
            assert is_central(e) and _central_by_products(e)
            assert not e.is_zero and e.max_degree() > 0
        unit = vertex_idempotent(TWO_CYCLE, ring, TWO_CYCLE.vertices)
        assert is_central(unit + cyc) and _central_by_products(unit + cyc)
        # one rotation alone, a loop beside the 2-cycle, two loops that
        # do not commute: none is central
        looped = elem(TWO_CYCLE_LOOP, [("fg", 1), ("gf", 1)])
        for e in (
            elem(TWO_CYCLE, [("fg", 1)]),
            looped,
            elem(TWO_CYCLE_LOOP, [("x", 1)]),
            elem(TWO_LOOPS, [("x", 1)]),
            elem(TWO_LOOPS, [("xy", 1), ("yx", 1)]),
        ):
            assert not is_central(e) and not _central_by_products(e)

    @pytest.mark.parametrize("ring,coeffs", CENTRAL_RINGS.values(), ids=CENTRAL_RINGS.keys())
    @pytest.mark.parametrize("q", CENTRAL_QUIVERS.values(), ids=CENTRAL_QUIVERS.keys())
    def test_small_quivers(self, q, ring, coeffs):
        rng = random.Random(f"{q}{ring}")
        seen = Counter()
        for _ in range(150):
            e = _mixed_element(q, ring, coeffs, rng)
            central = is_central(e)
            assert central == _central_by_products(e), e
            seen[central, e.max_degree() > 0] += 1
        assert seen[True, False] > 0
        # k[x] is commutative; with two loops, or a loop beside the 2-cycle,
        # the centre holds only scalars
        if q is not ONE_LOOP:
            assert seen[False, True] > 0
        if q in (ONE_LOOP, TWO_CYCLE):
            assert seen[True, True] > 0

    @pytest.mark.parametrize("ring,coeffs", CENTRAL_RINGS.values(), ids=CENTRAL_RINGS.keys())
    def test_sweep(self, ring, coeffs):
        rng = random.Random(7)
        seen = Counter()
        for q in sweep_quivers(3, 3, 60):
            for _ in range(12):
                e = _mixed_element(q, ring, coeffs, rng)
                central = is_central(e)
                assert central == _central_by_products(e), (q, e)
                if e.max_degree() > 0:
                    seen[central] += 1
        assert seen[True] > 0 and seen[False] > 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property_agrees_with_products(self, data):
        q = data.draw(st.sampled_from(list(CENTRAL_QUIVERS.values())))
        ring, coeffs = data.draw(st.sampled_from(list(CENTRAL_RINGS.values())))
        paths = q.paths_up_to(3)
        terms = data.draw(
            st.dictionaries(st.sampled_from(paths), st.sampled_from(coeffs), max_size=5)
        )
        e = AlgElem.make(q, ring, terms)
        rot = data.draw(st.sampled_from(_rotation_sums(q, 3)))
        c = data.draw(st.sampled_from(coeffs))
        for x in (e, e + AlgElem.make(q, ring, {p: c for p in rot})):
            assert is_central(x) == _central_by_products(x)


CENTRAL_RULE_RINGS = [Ring("Fp", 2), Ring("Fp", 3), Ring("Q"), Ring("Zn", 6), Ring("Zn", 12), Z30]


def _centrality_pool(q, ring, rng):
    """Diagonal elements (up to 64 idempotent assignments, and scalars c*1
    for every c of a finite ring, or a few over Q), conjugates of some of
    them on an acyclic quiver, a special element with path terms, and
    e_S + x*p idempotents with p running into S from outside it."""
    idems = idempotents(ring)
    assignments = list(_assignments(q.vertices, idems))
    scalars = list(ring.elements()) if ring.modulus else [2, Fraction(-1, 3)]
    out = [
        AlgElem.make(q, ring, {Path(vertex=v): c for v, c in lam.items()})
        for lam in rng.sample(assignments, min(len(assignments), 64))
    ]
    out += [AlgElem.make(q, ring, {Path(vertex=v): c for v in q.vertices}) for c in scalars]
    if q.is_acyclic and q.edges:
        out += [conjugate(e, rng) for e in rng.sample(out, min(len(out), 8))]
    out.append(_random_special_element(q, ring, rng))
    paths = [p for p in q.paths_up_to(2, limit=500) if not p.is_trivial]
    for s in subsets(q.vertices):
        terms = {Path(vertex=v): ring.one() for v in s}
        for p in paths:
            if q.path_target(p) in s and q.path_source(p) not in s:
                terms[p] = random_coeff(ring, rng) or ring.one()
        out.append(AlgElem.make(q, ring, terms))
    return out


class TestCentralFromSplit:
    """classify takes centrality as the split answer where a standard form
    exists (the proof is in its docstring) and calls `is_central` only
    where none does. Against `is_central` on diagonal elements, conjugates
    and path-term idempotents, cyclic quivers included."""

    @pytest.mark.parametrize("ring", CENTRAL_RULE_RINGS, ids=str)
    def test_agrees_with_is_central(self, ring, monkeypatch):
        calls = []

        def counted(e):
            calls.append(e)
            return is_central(e)

        monkeypatch.setattr("pathidem.classify.is_central", counted)
        rng = random.Random(f"central rule {ring}")
        seen = Counter()
        for q in sweep_quivers(3, 3, 60):
            for e in _centrality_pool(q, ring, rng):
                before = len(calls)
                report = classify(e)
                has_form = report.standard_form is not None
                assert report.is_central == is_central(e), e
                assert calls[before:] == ([] if has_form else [e]), e
                seen[has_form, report.is_central] += 1
        assert seen[True, True] and seen[True, False] and seen[False, False]
        # a non-idempotent scalar is central with no form; F_2 has none
        assert seen[False, True] or ring == Ring("Fp", 2)


class TestOrthogonality:
    def test_z6_pair(self, arrow, z6):
        e1 = vertex_idempotent(arrow, z6, arrow.vertices).scale(3)
        e2 = vertex_idempotent(arrow, z6, arrow.vertices).scale(4)
        assert strongly_orthogonal(e1, e2)

    def test_field_pair_not_orthogonal(self, arrow, f5):
        e1 = vertex_idempotent(arrow, f5, {"v2"})
        e2 = vertex_idempotent(arrow, f5, arrow.vertices)
        assert not strongly_orthogonal(e1, e2)

    def test_disjoint_components(self, two_isolated, f5):
        e1 = vertex_idempotent(two_isolated, f5, {"v1"})
        e2 = vertex_idempotent(two_isolated, f5, {"v2"})
        assert strongly_orthogonal(e1, e2)

    def test_requires_special(self, arrow, f5):
        with pytest.raises(ClassifyError):
            strongly_orthogonal(
                vertex_idempotent(arrow, f5, {"v1"}),
                vertex_idempotent(arrow, f5, {"v2"}),
            )

    def test_mixed_quivers_or_rings_refused(self, arrow, a3, f5, rationals):
        # refused before any standard form, as element arithmetic and the
        # brute-force twin refuse them
        e = vertex_idempotent(arrow, f5, {"v2"})
        for other in (
            vertex_idempotent(a3, f5, {"v2", "v3"}),
            vertex_idempotent(arrow, rationals, {"v2"}),
        ):
            for e1, e2 in ((e, other), (other, e)):
                with pytest.raises(AlgebraError, match="different quivers or rings"):
                    strongly_orthogonal(e1, e2)
                with pytest.raises(OracleError):
                    orthogonality_bruteforce(e1, e2, 2)


def _random_special_element(q, ring, rng):
    """A left-special element with path terms and (over Z/n) lambda that
    varies along paths: random idempotents on a random left-closed S, each
    replaced by its product over the vertices it reaches, which is monotone
    along paths; then path terms ending in S with coefficients
    lambda(t) * x * (1 - lambda(s)), which the source lambda annihilates."""
    s = rng.choice(q.enumerate_left_closed())
    idems = [x for x in idempotents(ring) if x]
    lam = {v: rng.choice(idems) for v in s}
    terms = {}
    for v in s:
        c = ring.one()
        for w in q.reachable(v):
            c = ring.mul(c, lam[w])
        terms[Path(vertex=v)] = c
    lam = {p.vertex: c for p, c in terms.items() if c}
    for p in q.paths_up_to(2, limit=500):
        t, src = q.path_target(p), q.path_source(p)
        if p.is_trivial or t not in lam or rng.random() < 0.5:
            continue
        x = ring.canon(rng.randint(-9, 30))
        off_source = ring.sub(ring.one(), lam.get(src, ring.zero()))
        terms[p] = ring.mul(ring.mul(lam[t], x), off_source)
    e = AlgElem.make(q, ring, terms)
    assert is_left_special(e), e
    return e


class TestOrthogonalityAgainstBruteForce:
    """strongly_orthogonal reads lambda1 * lambda2 at each vertex of S1 ∩ S2;
    the truncated brute force enumerates every path p, which on an acyclic
    quiver is every path, and multiplies e1 * p * e2 for each p that ends at
    the source of a term of e1 and starts at the target of a term of e2 (the
    other sandwiches are 0 by the junction rule of `quivers.concat`)."""

    @pytest.mark.parametrize("n", [6, 12, 30, None], ids=["Z6", "Z12", "Z30", "Q"])
    def test_random_special_pairs(self, n):
        ring = Ring("Q") if n is None else Ring("Zn", n)
        rng = random.Random(f"orthogonal-{ring}")
        quivers = [q for q in sweep_quivers(4, 4, 60) if q.is_acyclic]
        seen = Counter()
        for _ in range(250):
            q = rng.choice(quivers)
            e1, e2 = (_random_special_element(q, ring, rng) for _ in range(2))
            degree = len(q.vertices)
            ortho = strongly_orthogonal(e1, e2)
            assert ortho == strongly_orthogonal(e2, e1)
            assert ortho == orthogonality_bruteforce(e1, e2, degree), (e1, e2)
            assert ortho == orthogonality_bruteforce(e2, e1, degree), (e1, e2)
            s1, s2 = (standard_form(e).vertices for e in (e1, e2))
            seen[ortho, bool(s1 & s2)] += 1
            seen["path terms"] += e1.max_degree() > 0
        assert seen[False, True] and seen[True, False] and seen["path terms"]
        if n is not None:  # over a field, meeting supports are never orthogonal
            assert seen[True, True]


class TestFullFamily:
    def test_z6_pair_full(self, arrow, z6):
        e1 = vertex_idempotent(arrow, z6, arrow.vertices).scale(3)
        e2 = vertex_idempotent(arrow, z6, arrow.vertices).scale(4)
        assert is_full_family([e1, e2])
        assert not is_full_family([e1])

    def test_unit_alone_full(self, a3, f5):
        assert is_full_family([vertex_idempotent(a3, f5, a3.vertices)])

    def test_partition_family(self, two_isolated, f5):
        fam = [
            vertex_idempotent(two_isolated, f5, {"v1"}),
            vertex_idempotent(two_isolated, f5, {"v2"}),
        ]
        assert is_full_family(fam)

    def test_empty_family(self):
        assert not is_full_family([])

    def test_mixed_quivers_or_rings_refused(self, arrow, a3, f5, rationals):
        # refused before any standard form, as the brute-force twin refuses them
        for fam in (
            [vertex_idempotent(arrow, f5, arrow.vertices), vertex_idempotent(a3, f5, {"v3"})],
            [vertex_idempotent(arrow, f5, {"v2"}), vertex_idempotent(arrow, rationals, {"v1"})],
        ):
            with pytest.raises(AlgebraError, match="different quivers or rings"):
                is_full_family(fam)
            with pytest.raises(AlgebraError, match="different quivers or rings"):
                fullness_bruteforce(fam, 2)

    def test_non_orthogonal_pair_not_full(self, arrow, f5):
        # both special, and the diagonal at each vertex generates the unit
        # ideal; but e_v2 * 1 = e_v2 != 0, so the pair is not orthogonal
        fam = [vertex_idempotent(arrow, f5, s) for s in ({"v2"}, arrow.vertices)]
        assert all(is_left_special(e) for e in fam)
        assert not strongly_orthogonal(*fam)
        assert not is_full_family(fam)

    def test_enumerate_arrow(self, arrow, f5):
        fams = enumerate_full_families_trivial_idem(arrow, f5)
        assert fams == [[vertex_idempotent(arrow, f5, arrow.vertices)]]

    def test_enumerate_isolated(self, two_isolated, f5):
        fams = enumerate_full_families_trivial_idem(two_isolated, f5)
        supports = [
            [frozenset(p.vertex for p, _ in e.terms) for e in fam] for fam in fams
        ]
        assert supports == [
            [frozenset({"v1"}), frozenset({"v2"})],
            [frozenset({"v1", "v2"})],
        ]

    def test_enumerate_rejects_z6(self, arrow, z6):
        with pytest.raises(ClassifyError):
            enumerate_full_families_trivial_idem(arrow, z6)

    def test_enumerate_accepts_zn_as_the_idempotent_scan_does(self, arrow):
        # Z/n has only trivial idempotents exactly when n is a prime power
        for n in range(2, 200):
            ring = Ring("Zn", n)
            if len(idempotents(ring)) == 2:
                fams = enumerate_full_families_trivial_idem(arrow, ring)
                assert fams == [[vertex_idempotent(arrow, ring, arrow.vertices)]]
            else:
                with pytest.raises(ClassifyError):
                    enumerate_full_families_trivial_idem(arrow, ring)

    @pytest.mark.parametrize("q", sweep_quivers(max_vertices=3, count=12))
    def test_enumerated_families_are_full(self, q, f3):
        for fam in enumerate_full_families_trivial_idem(q, f3):
            assert is_full_family(fam)


def _set_partitions(items):
    """Every partition of the list `items` into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [[head]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[head] + blocks[i]] + blocks[i + 1 :]


@pytest.mark.parametrize("ring", [Ring("Fp", 2), Ring("Q"), Ring("Zn", 4)], ids=str)
def test_enumerated_families_are_the_left_closed_partitions(ring):
    # the brute force: every set partition of the vertices whose blocks are
    # all left closed, sorted as the enumeration sorts its output
    for q in sweep_quivers(4, 4, 200):
        want = [
            sorted((frozenset(b) for b in blocks), key=sorted)
            for blocks in _set_partitions(list(q.vertices))
            if all(left_closed(q, b) for b in blocks)
        ]
        want.sort(key=lambda parts: [sorted(b) for b in parts])
        got = enumerate_full_families_trivial_idem(q, ring)
        assert got == [[vertex_idempotent(q, ring, b) for b in parts] for parts in want], q


# 25 quivers on five vertices, from another seed than the acceptance pools:
# inputs acceptance tests 02 and 08 (at most four vertices) do not reach
FIVE_VERTICES = [q for q in sweep_quivers(5, 5, 120, seed=5) if len(q.vertices) == 5][:25]


class TestInvariants:
    @pytest.mark.parametrize("q", FIVE_VERTICES)
    def test_vertex_idem_special_iff_left_closed(self, q, f3):
        for s in subsets(q.vertices):
            assert is_left_special(vertex_idempotent(q, f3, s)) == left_closed(q, s)

    @pytest.mark.parametrize("q", FIVE_VERTICES)
    def test_central_implies_special_and_split(self, q):
        ring = Ring("Zn", 12)
        idems = idempotents(ring)
        for assignment in _assignments(q.vertices, idems):
            e = AlgElem.make(
                q, ring, {Path(vertex=v): c for v, c in assignment.items()}
            )
            if is_central(e):
                assert is_left_special(e)
                assert is_left_split(e)

    @pytest.mark.parametrize("q", sweep_quivers(max_vertices=3, count=12))
    def test_split_forms_have_no_kappa(self, q, z6):
        # once the support is right closed and lambda is componentwise constant,
        # the path-term constraints force every kappa coefficient to vanish
        for e in _special_elements(q, z6):
            form = standard_form(e)
            if is_left_split(e):
                assert form.kappa_terms == ()

    def test_report_round_trip(self, arrow, f5):
        e = vertex_idempotent(arrow, f5, {"v2"})
        report = classify(e)
        assert report.is_idempotent
        assert report.is_left_special
        assert report.is_left_split is False
        assert not report.is_central
        assert report.to_json()["witnesses"] == [
            {
                "condition": "support-not-right-closed",
                "detail": "edge a enters the support at v2",
            }
        ]

    def test_report_idempotent_but_not_special(self, arrow, f5):
        # e_v1 + 2a squares to itself but its support is not left closed
        e = edge_element(arrow, f5, "a").scale(2) + vertex_idempotent(
            arrow, f5, {"v1"}
        )
        report = classify(e)
        assert report.is_idempotent
        assert not report.is_left_special
        assert report.is_left_split is None

    def test_report_non_idempotent(self, arrow, f5):
        report = classify(vertex_idempotent(arrow, f5, {"v2"}).scale(2))
        assert not report.is_idempotent
        assert report.to_json()["witnesses"][0]["condition"] == "not-idempotent"


def _assignments(vertices, values):
    if not vertices:
        yield {}
        return
    head, tail = vertices[0], vertices[1:]
    for rest in _assignments(tail, values):
        for c in values:
            yield {head: c, **rest}


def _special_elements(q, ring):
    """Small pool of left-special elements: diagonal assignments plus one
    single-edge kappa perturbation when legal."""
    out = []
    for assignment in _assignments(q.vertices, idempotents(ring)):
        e = AlgElem.make(q, ring, {Path(vertex=v): c for v, c in assignment.items()})
        form, _ = try_standard_form(e)
        if form is None:
            continue
        out.append(e)
        lam = dict(form.diag)
        for eid, src, dst in q.edges:
            if dst not in lam:
                continue
            for c in range(ring.modulus):
                if c == 0 or ring.mul(lam[dst], c) != c:
                    continue
                if src in lam and not ring.is_zero(ring.mul(lam[src], c)):
                    continue
                cand = e + AlgElem.make(q, ring, {Path(edges=(eid,)): c})
                if is_left_special(cand):
                    out.append(cand)
                break
    return out


class TestChineseRemainder:
    """Z/6 = F_2 x F_3 and Z/30 = F_2 x F_3 x F_5, so classifying over Z/n
    must agree with classifying the reductions mod each prime: an
    idempotent, special, central or split element of a product is one in
    each factor."""

    PRIMES = (Ring("Fp", 2), Ring("Fp", 3), Ring("Fp", 5))

    @staticmethod
    def _agrees(e, factors):
        whole = classify(e)
        parts = [classify(AlgElem.make(e.quiver, r, dict(e.terms))) for r in factors]
        for field in ("is_idempotent", "is_left_special", "is_central"):
            assert getattr(whole, field) == all(getattr(r, field) for r in parts), e
        if whole.is_left_special:
            assert whole.is_left_split == all(r.is_left_split for r in parts), e
        return whole

    @pytest.mark.parametrize("q", sweep_quivers(3, 3, 60))
    def test_z6_agrees_with_f2_and_f3(self, q, z6, f2, f3):
        rng = random.Random(repr(q))
        paths = [p for p in q.paths_up_to(2) if not p.is_trivial]
        for lam in _assignments(q.vertices, (0, 1, 3, 4)):
            terms = {Path(vertex=v): c for v, c in lam.items()}
            for p in rng.sample(paths, min(len(paths), rng.randint(0, 2))):
                terms[p] = rng.randrange(1, 6)
            self._agrees(AlgElem.make(q, z6, terms), (f2, f3))

    @pytest.mark.slow
    def test_z30_every_idempotent_diagonal(self):
        # all 8^|V| assignments of the idempotents of Z/30 on each quiver,
        # 20,192 elements, with up to two path terms each
        for q in sweep_quivers(3, 3, 60):
            rng = random.Random(repr(q))
            paths = [p for p in q.paths_up_to(2) if not p.is_trivial]
            for lam in _assignments(q.vertices, idempotents(Z30)):
                terms = {Path(vertex=v): c for v, c in lam.items()}
                for p in rng.sample(paths, min(len(paths), rng.randint(0, 2))):
                    terms[p] = rng.randrange(1, 30)
                self._agrees(AlgElem.make(q, Z30, terms), self.PRIMES)

    @pytest.mark.parametrize("pool", [(3, 3, 60), (4, 4, 200)], ids=["3v3e", "4v4e"])
    def test_z30_sampled(self, pool):
        # a seeded sample of Z/30 elements: a lambda at 80% of the vertices,
        # an idempotent 3 times in 4 and any residue otherwise, and up to two
        # path terms
        rng = random.Random(f"z30 {pool}")
        idems = idempotents(Z30)
        seen = Counter()
        for q in sweep_quivers(*pool):
            paths = [p for p in q.paths_up_to(2, limit=500) if not p.is_trivial]
            for _ in range(16):
                terms = {
                    Path(vertex=v): (
                        rng.choice(idems) if rng.random() < 0.75 else rng.randrange(30)
                    )
                    for v in q.vertices
                    if rng.random() < 0.8
                }
                for p in rng.sample(paths, min(len(paths), rng.randint(0, 2))):
                    terms[p] = rng.randrange(1, 30)
                whole = self._agrees(AlgElem.make(q, Z30, terms), self.PRIMES)
                seen[whole.is_idempotent, whole.is_left_special, whole.is_left_split] += 1
        assert seen[True, True, True] and seen[True, True, False]
        assert seen[True, False, None] and seen[False, False, None]


def _check_idempotency(e):
    """classify's idempotent bit against the product e·e, and the form's
    reassembly against e: the form takes e's terms as they stand, and this
    checks that they rebuild e. Returns the report."""
    report = classify(e)
    assert report.is_idempotent == (e * e == e), e
    if report.standard_form is not None:
        assert reassemble(report.standard_form) == e
    return report


class TestIdempotencyFromForm:
    """classify reads idempotency off the standard form (a form implies
    e² = e) and multiplies e·e only where no form exists. Both branches
    against the product, on the inputs classify gets."""

    SWEEP = sweep_quivers(4, 4, 200)
    RINGS = [Ring("Fp", 2), Ring("Fp", 3), Ring("Zn", 6), Ring("Zn", 12), Ring("Q")]
    IDS = ["F2", "F3", "Z6", "Z12", "Q"]

    def test_sweep_pool(self, f5, rationals, z6):
        # the classify-sweep pool: e_S over F_5 and Q, and every diagonal Z/6
        # element with idempotent coefficients; all idempotent, and both
        # branches are reached
        special = Counter()
        for q in self.SWEEP:
            elements = [
                vertex_idempotent(q, ring, s)
                for ring in (f5, rationals)
                for s in subsets(q.vertices)
            ]
            elements += [
                AlgElem.make(q, z6, {Path(vertex=v): c for v, c in lam.items()})
                for lam in _assignments(q.vertices, idempotents(z6))
            ]
            for e in elements:
                report = _check_idempotency(e)
                assert report.is_idempotent
                special[report.is_left_special] += 1
        assert special[True] and special[False]

    def test_z6_standard_forms(self):
        # the generated special elements of acceptance test 09
        rng = random.Random(9)
        quivers = sweep_quivers(max_vertices=4, max_edges=4, count=60)
        for _ in range(1000):
            report = _check_idempotency(_random_special(rng, quivers))
            assert report.is_left_special and report.is_idempotent

    def test_z12_diagonals(self):
        z12 = Ring("Zn", 12)
        special = Counter()
        for q in sweep_quivers(3, 3, 60):
            for lam in _assignments(q.vertices, (0, 1, 4, 9)):
                e = AlgElem.make(q, z12, {Path(vertex=v): c for v, c in lam.items()})
                report = _check_idempotency(e)
                assert report.is_idempotent
                special[report.is_left_special] += 1
        assert special[True] and special[False]

    def test_rationals_with_kappa_terms(self, rationals):
        rng = random.Random(17)
        with_kappa = Counter()
        for q in sweep_quivers(3, 3, 60):
            paths = [p for p in q.paths_up_to(2) if not p.is_trivial]
            for s in subsets(q.vertices):
                terms = {Path(vertex=v): 1 for v in s}
                for p in paths:
                    if q.path_target(p) in s and rng.random() < 0.5:
                        terms[p] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
                e = AlgElem.make(q, rationals, terms)
                report = _check_idempotency(e)
                if len(e.terms) > len(s):
                    with_kappa[report.is_left_special, report.is_idempotent] += 1
        # special with path terms, and path terms starting inside S, which
        # leave no form and fail the product
        assert with_kappa[True, True] and with_kappa[False, False]

    @pytest.mark.parametrize("ring", RINGS[2:], ids=IDS[2:])
    def test_product_branch(self, arrow, ring):
        # 2·e_v: no form, not idempotent; the product decides
        report = _check_idempotency(vertex_idempotent(arrow, ring, {"v2"}).scale(2))
        assert not report.is_idempotent and not report.is_left_special
        assert [w.condition for w in report.witnesses] == [
            "not-idempotent",
            "lambda-not-idempotent",
        ]
        # e_v1 + 2a: no form (support not left closed), idempotent
        e = vertex_idempotent(arrow, ring, {"v1"}) + edge_element(arrow, ring, "a").scale(2)
        report = _check_idempotency(e)
        assert report.is_idempotent and not report.is_left_special
        assert [w.condition for w in report.witnesses] == ["support-not-left-closed"]

    @pytest.mark.parametrize("ring", RINGS, ids=IDS)
    def test_random_elements(self, ring):
        rng = random.Random(f"idempotency-{ring}")
        quivers = sweep_quivers(3, 3, 60) + self.SWEEP[:40]
        idems = idempotents(ring)
        seen = Counter()
        for _ in range(400):
            q = rng.choice(quivers)
            terms = {
                Path(vertex=v): (
                    rng.choice(idems) if rng.random() < 0.85 else random_coeff(ring, rng)
                )
                for v in q.vertices
                if rng.random() < 0.6
            }
            for p in q.paths_up_to(2, limit=500):
                if not p.is_trivial and rng.random() < 0.25:
                    terms[p] = random_coeff(ring, rng)
            report = _check_idempotency(AlgElem.make(q, ring, terms))
            seen[report.is_left_special, report.is_idempotent] += 1
        assert seen.keys() == {(True, True), (False, True), (False, False)}


class TestIdempotencyFromDiagonal:
    """With no form, classify reads e² = e off the lambda_v where they decide
    it (the trivial part of e² is sum lambda_v² e_v) and multiplies only an
    element with path terms and idempotent lambda. Against the product."""

    @pytest.mark.parametrize("n", [6, 12])
    def test_every_diagonal_element(self, n):
        # every ring value as lambda, idempotent or not, on every support,
        # left closed or not (where try_standard_form stops before lambda)
        ring = Ring("Zn", n)
        seen = Counter()
        for q in sweep_quivers(3, 3, 60):
            for lam in _assignments(q.vertices, range(n)):
                e = AlgElem.make(q, ring, {Path(vertex=v): c for v, c in lam.items()})
                report = classify(e)
                assert report.is_idempotent == (e * e == e), e
                s = frozenset(v for v, c in lam.items() if c)
                seen[left_closed(q, s), report.is_idempotent] += 1
        assert seen.keys() == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize(
        "ring",
        [Ring("Fp", 3), Ring("Zn", 6), Ring("Zn", 12), Ring("Q")],
        ids=["F3", "Z6", "Z12", "Q"],
    )
    def test_elements_with_path_terms(self, ring):
        # random lambda, idempotent or not, with random path terms; and
        # conjugates of e_S for S not left closed: idempotent, with path
        # terms and no form
        rng = random.Random(f"read-off-{ring}")
        idems = idempotents(ring)
        seen = Counter()
        for q in sweep_quivers(3, 3, 60):
            paths = [p for p in q.paths_up_to(2) if not p.is_trivial]
            if not paths:
                continue
            elements = [
                conjugate(vertex_idempotent(q, ring, s), rng)
                for s in subsets(q.vertices)
                if q.is_acyclic and not left_closed(q, s)
            ]
            for _ in range(12):
                terms = {
                    Path(vertex=v): (
                        rng.choice(idems) if rng.random() < 0.7 else random_coeff(ring, rng)
                    )
                    for v in q.vertices
                    if rng.random() < 0.7
                }
                for p in rng.sample(paths, min(len(paths), rng.randint(1, 2))):
                    terms[p] = random_coeff(ring, rng) or ring.one()
                elements.append(AlgElem.make(q, ring, terms))
            for e in elements:
                report = _check_idempotency(e)
                if e.max_degree():
                    lam_idem = all(ring.is_idempotent(c) for p, c in e.terms if p.is_trivial)
                    seen[lam_idem, report.is_left_special, report.is_idempotent] += 1
        # the product branch both ways, and lambda deciding alone
        assert (True, False, True) in seen and (True, False, False) in seen
        assert (False, False, False) in seen and (True, True, True) in seen


def _bits(report):
    return report.is_idempotent, report.is_left_special, report.is_left_split


INVARIANCE_RINGS = [
    Ring("Fp", 3),
    Ring("Fp", 5),
    Ring("Zn", 6),
    Ring("Zn", 30),
    Ring("Zn", 12),
    Ring("Zn", 8),
    Ring("Q"),
]
INVARIANCE_IDS = ["F3", "F5", "Z6", "Z30", "Z12", "Z8", "Q"]


class TestConjugationInvariance:
    """u·e·u⁻¹ for a unit u = 1 + n, n in the arrow ideal, has the category
    A(ueu⁻¹)M = AeM of e, so the same idempotent, special and split bits.
    The trivial part is that of e, so a conjugate with idempotent lambda and
    no form reaches the branch of classify that still multiplies."""

    ACYCLIC = [q for q in sweep_quivers(4, 4, 200) if q.is_acyclic and q.edges]

    @pytest.mark.parametrize("ring", INVARIANCE_RINGS, ids=INVARIANCE_IDS)
    def test_bits_unchanged(self, ring):
        rng = random.Random(f"conjugation-{ring}")
        idems = idempotents(ring)
        seen = Counter()
        for q in self.ACYCLIC * 3:
            paths = [p for p in q.paths_up_to(2) if not p.is_trivial]
            # special with path terms; any diagonal idempotent; and the
            # latter with a path term added, mostly not idempotent
            diagonal = AlgElem.make(
                q, ring, {Path(vertex=v): rng.choice(idems) for v in q.vertices}
            )
            perturbed = diagonal + AlgElem.make(q, ring, {rng.choice(paths): 1})
            for e in (_random_special_element(q, ring, rng), diagonal, perturbed):
                conj = conjugate(e, rng)
                report = classify(conj)
                assert _bits(report) == _bits(classify(e)), (e, conj)
                seen[_bits(report)] += 1
                seen["multiplied"] += (
                    report.standard_form is None
                    and conj.max_degree() > 0
                    and all(ring.is_idempotent(c) for p, c in conj.terms if p.is_trivial)
                )
        assert seen[True, True, True] and seen[True, True, False]
        assert seen[True, False, None] and seen[False, False, None]
        assert seen["multiplied"]


def _relabel(q, rng):
    """q with fresh vertex names and edge ids, both in a shuffled declared
    order, and the map of its paths."""
    vnames = [f"w{i}" for i in range(len(q.vertices))]
    enames = [f"b{i}" for i in range(len(q.edges))]
    rng.shuffle(vnames)
    rng.shuffle(enames)
    vmap = dict(zip(q.vertices, vnames))
    emap = {eid: name for (eid, _, _), name in zip(q.edges, enames)}
    vertices = list(vnames)
    edges = [(emap[eid], vmap[s], vmap[t]) for eid, s, t in q.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)

    def path(p):
        if p.is_trivial:
            return Path(vertex=vmap[p.vertex])
        return Path(edges=tuple(emap[eid] for eid in p.edges))

    return Quiver(tuple(vertices), tuple(edges)), path


_KAPPA_CONDITIONS = {
    "kappa-target-outside-support",
    "kappa-not-fixed-by-target-lambda",
    "kappa-not-annihilated-by-source-lambda",
}


class TestRelabellingInvariance:
    """Renaming and reordering vertices and edges changes no bit. The
    witnesses keep their conditions, with one exception: the path terms are
    checked in the order of their lengths and edge ids, so where the first
    failure is a path term's, a relabelled element may fail another path term first,
    on another of the three kappa conditions. A detail names the first
    failing vertex, edge or path in the order of names and declared edges,
    so it may name another one."""

    def test_bits_unchanged(self):
        rng = random.Random("relabelling")
        seen = Counter()
        for ring in INVARIANCE_RINGS:
            idems = idempotents(ring)
            for q in sweep_quivers(4, 4, 200):
                renamed, path = _relabel(q, rng)
                paths = [p for p in q.paths_up_to(2, limit=500) if not p.is_trivial]
                for _ in range(4):
                    terms = {
                        Path(vertex=v): (
                            rng.choice(idems) if rng.random() < 0.85 else random_coeff(ring, rng)
                        )
                        for v in q.vertices
                        if rng.random() < 0.7
                    }
                    for p in rng.sample(paths, min(len(paths), rng.randint(0, 2))):
                        terms[p] = random_coeff(ring, rng)
                    e = AlgElem.make(q, ring, terms)
                    want = classify(e)
                    moved = {path(p): c for p, c in terms.items()}
                    got = classify(AlgElem.make(renamed, ring, moved))
                    assert _bits(got) == _bits(want) and got.is_central == want.is_central, e
                    assert len(got.witnesses) == len(want.witnesses), e
                    for w, v in zip(want.witnesses, got.witnesses):
                        a, b = w.condition, v.condition
                        assert a == b or {a, b} <= _KAPPA_CONDITIONS, e
                        seen["kappa reordered" if a != b else a] += 1
        assert seen["kappa reordered"] and seen["support-not-left-closed"]
        assert seen["lambda-not-constant-on-component"] and seen["not-idempotent"]


class TestWitnessOrder:
    """Where two vertices fail the same condition, the witness names the
    first by name, whatever the declared order of the vertices and edges
    and the order the terms were given in."""

    # declared in reverse name order, edges too
    Q = Quiver(
        ("v4", "v3", "v2", "v1"),
        (("y", "v3", "v4"), ("x", "v1", "v2")),
    )

    def _witness(self, ring, lam):
        # the terms are given in reverse name order as well
        terms = {Path(vertex=v): lam[v] for v in sorted(lam, reverse=True)}
        report = classify(AlgElem.make(self.Q, ring, terms))
        return report.witnesses[-1]

    def test_lambda_not_idempotent(self, z6):
        w = self._witness(z6, {"v4": 1, "v3": 5, "v2": 1, "v1": 2})
        assert w.to_json() == {
            "condition": "lambda-not-idempotent",
            "detail": "coefficient 2 at v1",
        }

    def test_edge_leaves_the_support(self, f5):
        w = self._witness(f5, {"v3": 1, "v1": 1})
        assert w.to_json() == {
            "condition": "support-not-left-closed",
            "detail": "edge x leaves the support at v1",
        }

    def test_edge_enters_the_support(self, f5):
        w = self._witness(f5, {"v4": 1, "v2": 1})
        assert w.to_json() == {
            "condition": "support-not-right-closed",
            "detail": "edge x enters the support at v2",
        }

    def test_lambda_not_monotone(self, z6):
        w = self._witness(z6, {"v4": 4, "v3": 1, "v2": 3, "v1": 1})
        assert w.to_json() == {
            "condition": "lambda-not-monotone-along-paths",
            "detail": "edge x runs v1 -> v2 but (1) is not inside (3)",
        }

    def test_lambda_not_constant(self, z6):
        w = self._witness(z6, {"v4": 1, "v3": 4, "v2": 1, "v1": 3})
        assert w.to_json() == {
            "condition": "lambda-not-constant-on-component",
            "detail": "edge x runs v1 -> v2 but v1 has 3 and v2 has 1",
        }
