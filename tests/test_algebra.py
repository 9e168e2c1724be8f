import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathidem.algebra import (
    AlgebraError,
    AlgElem,
    TruncatedIdeal,
    path_element,
    vertex_idempotent,
)
from pathidem.classify import enumerate_full_families_trivial_idem
from pathidem.quivers import Path, Quiver, QuiverError, concat
from pathidem.rings import Ring, RingError
from pathidem.sweep import q_a3, q_arrow, sweep_quivers

from conftest import random_coeff
from reference import edge_element, ref_ideal_contains

A3 = q_a3()
Z6 = Ring("Zn", 6)
F5 = Ring("Fp", 5)
IDEAL_RINGS = [Ring("Fp", 2), F5, Ring("Q"), Ring("Zn", 4), Z6]


def elements(quiver, ring):
    paths = quiver.paths_up_to(3)
    coeffs = st.integers(min_value=0, max_value=11)
    return st.dictionaries(st.sampled_from(paths), coeffs, max_size=4).map(
        lambda d: AlgElem.make(quiver, ring, d)
    )


class TestSpec:
    def test_trivial_paths_multiply(self, a3, f5):
        e1 = vertex_idempotent(a3, f5, {"v1"})
        e2 = vertex_idempotent(a3, f5, {"v2"})
        a = edge_element(a3, f5, "a")  # v1 -> v2
        assert e1 * e1 == e1
        assert e1 * e2 == AlgElem.zero(a3, f5)
        # local units: a runs v1 -> v2, so e2 * a == a == a * e1
        assert e2 * a == a
        assert a * e1 == a
        assert e1 * a == AlgElem.zero(a3, f5)
        assert a * e2 == AlgElem.zero(a3, f5)

    def test_path_concatenation(self, a3, f5):
        a = edge_element(a3, f5, "a")
        b = edge_element(a3, f5, "b")
        ba = path_element(a3, f5, Path(edges=("a", "b")))
        assert b * a == ba
        assert a * b == AlgElem.zero(a3, f5)

    def test_vertex_idempotent_is_idempotent(self, a3, z6):
        e = vertex_idempotent(a3, z6, {"v2", "v3"})
        assert e.is_idempotent()
        assert [p for p, _ in e.terms] == [Path(vertex="v2"), Path(vertex="v3")]

    def test_coefficients_canonicalized(self, a3, z6):
        e = AlgElem.make(a3, z6, {Path(vertex="v1"): 7, Path(vertex="v2"): 6})
        assert e.terms == ((Path(vertex="v1"), 1),)  # 7 -> 1, 6 -> 0 dropped

    def test_scale_and_degree(self, a3, f5):
        x = edge_element(a3, f5, "a") + vertex_idempotent(a3, f5, {"v1"})
        assert x.max_degree() == 1
        assert x.scale(0).is_zero
        assert x.scale(2) == x + x

    def test_equal_from_fresh_paths(self, a3, z6):
        # make stores the quiver's interned trivial paths; elements built from
        # fresh Path objects stay equal, with equal hashes
        def build():
            return AlgElem.make(
                a3, z6, {Path(vertex="v1"): 3, Path(edges=("a", "b")): 2}
            )

        x, y = build(), build()
        assert x == y
        assert hash(x) == hash(y)
        assert x.terms[0][0] is y.terms[0][0] is a3.check_path(Path(vertex="v1"))
        assert len({x, y, vertex_idempotent(a3, z6, {"v1"})}) == 2

    def test_elements_have_no_instance_dict(self, a3, f5):
        e = vertex_idempotent(a3, f5, {"v1"})
        assert not hasattr(e, "__dict__")
        with pytest.raises(AttributeError):
            e.terms = ()

    def test_unknown_names_refused(self, a3, f5):
        with pytest.raises(QuiverError, match="unknown edge 'z'"):
            path_element(a3, f5, Path(edges=("z",)))
        with pytest.raises(QuiverError, match=r"unknown vertices \['w'\]"):
            vertex_idempotent(a3, f5, {"v1", "w"})

    def test_vertex_idempotent_refuses_a_string(self, f2):
        # "ab" is the vertex ab, not the vertices a and b
        q = Quiver(("a", "b", "ab"))
        with pytest.raises(QuiverError, match="not 'ab'"):
            vertex_idempotent(q, f2, "ab")
        assert vertex_idempotent(q, f2, {"ab"}).terms == ((Path(vertex="ab"), 1),)

    def test_mismatched_contexts_rejected(self, a3, f5, z6, arrow):
        x = vertex_idempotent(a3, f5, {"v1"})
        with pytest.raises(AlgebraError):
            x + vertex_idempotent(a3, z6, {"v1"})
        with pytest.raises(AlgebraError):
            x * vertex_idempotent(arrow, f5, {"v1"})


class TestCoefficientGate:
    """Library coefficients pass `Ring.canon`: a float, bool or string is
    refused, never rounded or parsed."""

    @pytest.mark.parametrize("c", [2.5, True, "\u0664", "1/2"], ids=repr)
    def test_make_refuses(self, a3, f5, c):
        with pytest.raises(RingError):
            AlgElem.make(a3, f5, {Path(vertex="v1"): c})

    def test_scale_refuses_a_float(self, a3, f5):
        with pytest.raises(RingError):
            vertex_idempotent(a3, f5, {"v1"}).scale(2.5)

    def test_ints_and_rationals_accepted(self, a3, f5, rationals):
        v1 = Path(vertex="v1")
        assert AlgElem.make(a3, f5, {v1: 7}).terms == ((v1, 2),)
        half = AlgElem.make(a3, rationals, {v1: Fraction(1, 2)})
        assert half.scale(4).terms == ((v1, Fraction(2)),)


class TestSharedTerms:
    """`AlgElem.make` over a ring with a modulus hands out the quiver's own
    (e_v, c) pair for an idempotent c; over Q it shares nothing."""

    def test_separately_built_elements_share_pairs(self, a3, f5):
        x = vertex_idempotent(a3, f5, {"v1", "v3"})
        y = AlgElem.make(
            a3, f5, {Path(vertex="v3"): 6, Path(vertex="v1"): 1, Path(edges=("a",)): 2}
        )
        assert x.terms[0] is y.terms[0]
        assert x.terms[1] is y.terms[1]
        assert x == AlgElem.make(a3, f5, {Path(vertex="v1"): 1, Path(vertex="v3"): 1})

    def test_only_idempotent_coefficients_are_shared(self, a3, z6):
        two = AlgElem.make(a3, z6, {Path(vertex="v1"): 2})
        assert two.terms[0] is not AlgElem.make(a3, z6, {Path(vertex="v1"): 2}).terms[0]
        three = AlgElem.make(a3, z6, {Path(vertex="v1"): 3})
        assert three.terms[0] is AlgElem.make(a3, z6, {Path(vertex="v1"): 9}).terms[0]

    def test_rationals_keep_fractions(self, a3, f5):
        vertex_idempotent(a3, f5, a3.vertices)
        AlgElem.make(a3, Z6, {Path(vertex=v): 4 for v in a3.vertices})
        for e in (
            vertex_idempotent(a3, Ring("Q"), a3.vertices),
            AlgElem.make(a3, Ring("Q"), {Path(vertex="v2"): 1, Path(vertex="v3"): 0}),
        ):
            assert e.terms
            assert all(type(c) is Fraction for _, c in e.terms)
            assert all(
                pair is not shared
                for pair in e.terms
                for shared in a3._trivial_terms.values()
            )

    def test_table_stays_within_its_bound(self):
        # at most |V| pairs for each nonzero idempotent of the rings used:
        # Z/6 has 1, 3, 4 and Z/12 adds 9 (4 is idempotent in both)
        q = Quiver(("v1", "v2", "v3"), (("a", "v1", "v2"), ("b", "v2", "v1")))
        for n in (6, 12):
            ring = Ring("Zn", n)
            for c in range(n):
                for v in q.vertices:
                    AlgElem.make(q, ring, {Path(vertex=v): c, Path(edges=("a",)): c})
        assert set(q._trivial_terms) == {
            (v, c) for v in q.vertices for c in (1, 3, 4, 9)
        }
        for (v, c), (p, d) in q._trivial_terms.items():
            assert p is q.check_path(Path(vertex=v)) and d == c


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(x=elements(A3, Z6), y=elements(A3, Z6), z=elements(A3, Z6))
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x + (-x) == AlgElem.zero(A3, Z6)

    @settings(max_examples=40, deadline=None)
    @given(x=elements(A3, F5), y=elements(A3, F5))
    def test_degree_subadditive(self, x, y):
        p = x * y
        if not p.is_zero:
            assert p.max_degree() <= x.max_degree() + y.max_degree()

    @settings(max_examples=40, deadline=None)
    @given(x=elements(A3, F5))
    def test_idempotented(self, x):
        # the sum of all trivial paths is a two-sided unit
        unit = vertex_idempotent(A3, F5, A3.vertices)
        assert unit * x == x
        assert x * unit == x

    @settings(max_examples=40, deadline=None)
    @given(x=elements(A3, F5))
    def test_corner_projection(self, x):
        # e_S * x * e_T keeps exactly the terms with target in S and source in T
        s, t = {"v2", "v3"}, {"v1", "v2"}
        y = vertex_idempotent(A3, F5, s) * x * vertex_idempotent(A3, F5, t)
        expected = {
            p: c
            for p, c in x.terms
            if A3.path_target(p) in s and A3.path_source(p) in t
        }
        assert y == AlgElem.make(A3, F5, expected)

    @settings(max_examples=40, deadline=None)
    @given(x=elements(A3, Z6))
    def test_json_round_trip(self, x):
        assert AlgElem.from_json(A3, Z6, x.to_json()) == x


def _bilinear_product(x: AlgElem, y: AlgElem) -> AlgElem:
    """x*y expanded term by term, every partial sum built by AlgElem.make."""
    q, ring = x.quiver, x.ring
    acc = AlgElem.zero(q, ring)
    for p, c in x.terms:
        for r, d in y.terms:
            pr = concat(q, p, r)
            if pr is not None:
                acc = acc + AlgElem.make(q, ring, {pr: c * d})
    return acc


LOOP = Quiver(("v1", "v2"), (("x", "v1", "v1"), ("a", "v1", "v2")))


class TestProduct:
    @pytest.mark.parametrize(
        "quiver, ring",
        [(A3, Z6), (A3, F5), (LOOP, F5), (LOOP, Ring("Q")), (LOOP, Z6)],
        ids=["A3-Z6", "A3-F5", "loop-F5", "loop-Q", "loop-Z6"],
    )
    def test_product_is_bilinear_expansion(self, quiver, ring):
        @settings(max_examples=40, deadline=None)
        @given(x=elements(quiver, ring), y=elements(quiver, ring))
        def check(x, y):
            product = x * y
            assert product == _bilinear_product(x, y)
            assert product == AlgElem.make(quiver, ring, dict(product.terms))

        check()


# references for +, negation and scale: every coefficient goes through the
# Ring methods and every result through the validating AlgElem.make


def _reference_add(x: AlgElem, y: AlgElem) -> AlgElem:
    ring = x.ring
    acc = dict(x.terms)
    for p, c in y.terms:
        acc[p] = ring.add(acc.get(p, ring.zero()), c)
    return AlgElem.make(x.quiver, ring, acc)


def _reference_neg(x: AlgElem) -> AlgElem:
    return AlgElem.make(x.quiver, x.ring, {p: x.ring.sub(0, c) for p, c in x.terms})


def _reference_scale(x: AlgElem, c) -> AlgElem:
    c = x.ring.canon(c)
    return AlgElem.make(x.quiver, x.ring, {p: x.ring.mul(c, d) for p, d in x.terms})


def _assert_same(got: AlgElem, want: AlgElem) -> None:
    # equal terms with equal coefficient types: Fraction(1) == 1 would hide an
    # int coefficient over Q
    assert got == want
    assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]


class TestLinearOperators:
    @pytest.mark.parametrize(
        "ring, coeffs",
        [
            (F5, st.integers(-12, 12)),
            (Z6, st.integers(-12, 12)),
            (Ring("Q"), st.fractions(min_value=-3, max_value=3, max_denominator=6)),
        ],
        ids=["F5", "Z6", "Q"],
    )
    def test_match_term_by_term_reference(self, ring, coeffs):
        elems = st.dictionaries(
            st.sampled_from(LOOP.paths_up_to(3)), coeffs, max_size=5
        ).map(lambda d: AlgElem.make(LOOP, ring, d))

        @settings(max_examples=60, deadline=None)
        @given(x=elems, y=elems, c=coeffs)
        def check(x, y, c):
            _assert_same(x + y, _reference_add(x, y))
            _assert_same(x - y, _reference_add(x, _reference_neg(y)))
            _assert_same(-x, _reference_neg(x))
            _assert_same(x.scale(c), _reference_scale(x, c))
            _assert_same(x - x, AlgElem.zero(LOOP, ring))

        check()


def _reference_make(quiver, ring, terms):
    """`AlgElem.make` term by term: `Quiver.check_path`, `Ring.canon` and
    `Ring.is_zero` on each term, then the sort; no pair is shared."""
    canon = {}
    for p, c in terms.items():
        p = quiver.check_path(p)
        c = ring.canon(c)
        if not ring.is_zero(c):
            canon[p] = c
    ordered = sorted(canon.items(), key=lambda pc: pc[0].sort_key())
    return AlgElem(quiver, ring, tuple(ordered))


REFUSED = [2.5, True, "1/2", Fraction(1, 2)]


@pytest.mark.parametrize("ring", [F5, Z6, Ring("Zn", 12), Ring("Q")], ids=str)
def test_make_matches_the_term_by_term_reference(ring):
    # random terms, a refused coefficient in about one element of five
    # (a Fraction is refused only over a finite ring); the trivial terms
    # with an idempotent coefficient are the quiver's shared pairs
    rng = random.Random(str(ring))
    paths = LOOP.paths_up_to(3)
    refused = 0
    for _ in range(300):
        terms = {}
        for p in rng.sample(paths, rng.randint(0, 5)):
            if ring.kind == "Q" and rng.random() < 0.5:
                terms[p] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            else:
                terms[p] = rng.randint(-30, 30) * rng.choice((0, 1, 1))
        if terms and rng.random() < 0.2:
            terms[rng.choice(list(terms))] = rng.choice(REFUSED)
        try:
            want = _reference_make(LOOP, ring, terms)
        except RingError:
            refused += 1
            with pytest.raises(RingError):
                AlgElem.make(LOOP, ring, terms)
            continue
        got = AlgElem.make(LOOP, ring, terms)
        _assert_same(got, want)
        for pair in got.terms:
            p, c = pair
            shared = LOOP._trivial_terms.get((p.vertex, c))
            if p.is_trivial and ring.modulus and c * c % ring.modulus == c:
                assert pair is shared
            else:
                assert pair is not shared
    assert refused >= 30


class TestTruncatedIdeal:
    def test_membership(self, a3, f5):
        e2 = vertex_idempotent(a3, f5, {"v2"})
        ideal = TruncatedIdeal([e2], degree=1)
        a = edge_element(a3, f5, "a")
        b = edge_element(a3, f5, "b")
        # a = e2 * a and b = b * e2 both land in the ideal; e1 does not
        assert ideal.contains(a)
        assert ideal.contains(b)
        assert ideal.contains(e2)
        assert not ideal.contains(vertex_idempotent(a3, f5, {"v1"}))
        assert ideal.contains(AlgElem.zero(a3, f5))

    def test_degree_guard(self, a3, f5):
        e2 = vertex_idempotent(a3, f5, {"v2"})
        ideal = TruncatedIdeal([e2], degree=0)
        with pytest.raises(AlgebraError):
            ideal.contains(edge_element(a3, f5, "a"))

    def test_path_outside_window(self, arrow, a3, f5):
        # e_v3 has degree 0, but it lives over A3 and the ideal over the
        # arrow quiver, whose window indexes only the arrow's paths
        ideal = TruncatedIdeal(
            [vertex_idempotent(arrow, f5, {"v1"})], degree=0
        )
        with pytest.raises(AlgebraError):
            ideal.contains(vertex_idempotent(a3, f5, {"v3"}))

    def test_bad_arguments(self, a3, f5):
        with pytest.raises(AlgebraError):
            TruncatedIdeal([], 1)
        with pytest.raises(AlgebraError):
            TruncatedIdeal([vertex_idempotent(a3, f5, {"v1"})], -1)

    @pytest.mark.parametrize("degree", [1.0, True, "1"], ids=repr)
    def test_degree_that_is_not_an_int(self, a3, f5, degree):
        with pytest.raises(AlgebraError, match="degree must be an int"):
            TruncatedIdeal([vertex_idempotent(a3, f5, {"v1"})], degree)

    def test_unit_family_spans_everything(self, a3, z6):
        # 3·e_V and 4·e_V generate the unit ideal over Z6 since 3 + 4 - 3·4 = 1
        g1 = vertex_idempotent(a3, z6, a3.vertices).scale(3)
        g2 = vertex_idempotent(a3, z6, a3.vertices).scale(4)
        ideal = TruncatedIdeal([g1, g2], degree=0)
        for v in a3.vertices:
            assert ideal.contains(vertex_idempotent(a3, z6, {v}))

    @pytest.mark.parametrize(
        "quiver, ring, vertex",
        [
            (q_arrow(), Z6, "v1"),
            (A3, F5, "v1"),
            (q_arrow(), Ring("Fp", 7), "v2"),
            (q_arrow(), Ring("Q"), "v1"),
        ],
        ids=["Z6", "three-vertex-quiver", "F7", "Q"],
    )
    def test_foreign_element_refused(self, arrow, f5, quiver, ring, vertex):
        # read in the ideal's coordinates, the first two would look like
        # members, the third like a non-member, and the Q element would fail
        # in F_5 arithmetic
        ideal = TruncatedIdeal([vertex_idempotent(arrow, f5, {"v1"})], degree=1)
        with pytest.raises(AlgebraError, match="another quiver or ring"):
            ideal.contains(vertex_idempotent(quiver, ring, {vertex}))

    def test_docstring_example(self):
        # a loop x over F_5 and generators 1 + x and x^2: e_v = (1 - x)(1 + x)
        # + x^2 needs a sandwich of degree 1
        loop = Quiver(("v",), (("x", "v", "v"),))
        e_v = vertex_idempotent(loop, F5, {"v"})
        x = path_element(loop, F5, Path(edges=("x",)))
        gens = [e_v + x, x * x]
        for degree, found in ((0, False), (1, True)):
            assert TruncatedIdeal(gens, degree).contains(e_v) is found
            assert ref_ideal_contains(gens, degree, e_v) is found

    @pytest.mark.parametrize("ring", IDEAL_RINGS, ids=[str(r) for r in IDEAL_RINGS])
    def test_matches_unpruned_reference(self, ring):
        # one to two random generators per quiver and degree, terms on paths
        # of length <= 1, and every path element and e_v of degree <= d
        rng = random.Random(f"ideal {ring}")
        seen = Counter()
        for q in sweep_quivers(3, 3, 60):
            short = q.paths_up_to(1)
            candidates = [path_element(q, ring, p) for p in q.paths_up_to(2)]
            candidates += [vertex_idempotent(q, ring, {v}) for v in q.vertices]
            for degree in (0, 1, 2):
                gens = [
                    AlgElem.make(
                        q,
                        ring,
                        {rng.choice(short): random_coeff(ring, rng) or 1 for _ in range(2)},
                    )
                    for _ in range(rng.randint(1, 2))
                ]
                ideal = TruncatedIdeal(gens, degree)
                for elem in candidates:
                    if elem.max_degree() <= degree:
                        found = ideal.contains(elem)
                        assert found == ref_ideal_contains(gens, degree, elem), (q, gens, elem)
                        seen[found] += 1
        assert seen[True] and seen[False]

    def test_family_pool_makes_no_zero_product(self, monkeypatch):
        # the full families over F_2 and Q and the scaled {3e_S, 4e_S} over
        # Z/6 on sweep_quivers(3, 3, 40), at the degrees fullness_bruteforce
        # takes them: every product is p*g or (p*g)*q with path ends that meet
        products = []
        multiply = AlgElem.__mul__

        def counted(x, y):
            product = multiply(x, y)
            products.append(product.is_zero)
            return product

        builds = []
        for q in sweep_quivers(3, 3, 40):
            for ring in (Ring("Fp", 2), Ring("Q")):
                builds += [(fam, 1) for fam in enumerate_full_families_trivial_idem(q, ring)]
            for s in q.enumerate_left_closed():
                if s:
                    e = vertex_idempotent(q, Z6, s)
                    builds.append(([e.scale(3), e.scale(4)], 0))
        monkeypatch.setattr(AlgElem, "__mul__", counted)
        for gens, degree in builds:
            TruncatedIdeal(gens, degree)
        assert products and not any(products)


@pytest.mark.parametrize(
    "ring, text, value",
    [
        (Ring("Q"), "1/3", Fraction(1, 3)),
        (Ring("Q"), "-2.50", Fraction(-5, 2)),
        (Ring("Q"), ".5", Fraction(1, 2)),
        (Ring("Q"), "3.", Fraction(3)),
        (Ring("Q"), "+7", Fraction(7)),
        (F5, "-1", 4),
        (F5, "+7", 2),
        (Z6, "0012", 0),
        # a JSON integer is taken as it is, as the README says
        (F5, 7, 2),
        (Ring("Q"), -3, Fraction(-3)),
    ],
)
def test_coefficient_strings(ring, text, value):
    # the ASCII grammar keeps every form the README names; the CLI tests
    # hold the refused ones
    term = {"path": {"trivial": "v1"}, "coeff": text}
    e = AlgElem.from_json(A3, ring, {"terms": [term]})
    assert dict(e.terms).get(Path(vertex="v1"), 0) == value
