import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from pathidem.rings import _MR_BOUND, Ring, RingError, _is_prime, _is_prime_power

from reference import idem_leq


def brute_idempotents(n):
    return {x for x in range(n) if x * x % n == x}


def principal_ideal(n, b):
    return {r * b % n for r in range(n)}


def ideal_of(n, gens):
    out = {0}
    changed = True
    while changed:
        changed = False
        for g in gens:
            for r in range(n):
                for x in list(out):
                    y = (x + r * g) % n
                    if y not in out:
                        out.add(y)
                        changed = True
    return out


class TestSpec:
    def test_ring_validation(self):
        with pytest.raises(RingError):
            Ring("Fp", 6)
        with pytest.raises(RingError):
            Ring("Zn", 1)
        with pytest.raises(RingError):
            Ring("Q", 3)
        with pytest.raises(RingError):
            Ring("R")

    def test_idem_leq(self, z6):
        assert idem_leq(z6, 3, 3)
        assert idem_leq(z6, 3, 1)
        # 3*4 == 0 != 3, and indeed 3 is not in the ideal (4) = {0, 4, 2}
        assert not idem_leq(z6, 3, 4)
        assert principal_ideal(6, 4) == {0, 2, 4}

    def test_idem_leq_rejects_non_idempotents(self, z6):
        with pytest.raises(RingError):
            idem_leq(z6, 2, 1)

    def test_idem_join_is_unit(self, z6, f5):
        assert z6.idem_join_is_unit([3, 4])  # 3 + 4 - 12 == 1 mod 6
        assert f5.idem_join_is_unit([1])
        assert not z6.idem_join_is_unit([3])  # ideal (3) = {0, 3}
        assert ideal_of(6, [3]) == {0, 3}
        assert not z6.idem_join_is_unit([])

    def test_idem_join_rejects_non_idempotents(self, z6):
        with pytest.raises(RingError):
            z6.idem_join_is_unit([2])


class TestInvariants:
    @pytest.mark.parametrize("n", [6, 10, 12, 30])
    def test_idem_leq_matches_ideal_containment(self, n):
        ring = Ring("Zn", n)
        for a in brute_idempotents(n):
            for b in brute_idempotents(n):
                assert idem_leq(ring, a, b) == (a in principal_ideal(n, b))

    @pytest.mark.parametrize("n", [6, 10, 12])
    def test_join_matches_ideal_enumeration(self, n):
        ring = Ring("Zn", n)
        idems = sorted(brute_idempotents(n))
        for k in range(3):
            for gens in product(idems, repeat=k):
                assert ring.idem_join_is_unit(list(gens)) == (1 in ideal_of(n, gens))

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_idempotents_closed_under_product_and_join(self, n):
        ring = Ring("Zn", n)
        idems = brute_idempotents(n)
        for a in idems:
            for b in idems:
                assert ring.mul(a, b) in idems
                assert ring.sub(ring.add(a, b), ring.mul(a, b)) in idems  # the join


# the differential check of the ring arithmetic: every element of these
# finite rings, and a grid of rationals with both signs and small denominators
FINITE_RINGS = [Ring("Fp", 2), Ring("Fp", 5), Ring("Zn", 6), Ring("Zn", 9)]
RATIONAL_GRID = sorted({Fraction(a, b) for a in range(-6, 7) for b in range(1, 5)})


class TestArithmeticReference:
    """`Ring` arithmetic against plain `%` over the finite rings and plain
    `Fraction` arithmetic over Q: same value, canonical type and range."""

    @pytest.mark.parametrize("ring", FINITE_RINGS, ids=str)
    def test_finite_ring(self, ring):
        n = ring.modulus

        def residue(x, want):
            return type(x) is int and 0 <= x < n and x == want

        assert list(ring.elements()) == list(range(n))
        assert residue(ring.zero(), 0) and residue(ring.one(), 1)
        for x in range(-2 * n, 2 * n):
            assert residue(ring.canon(x), x % n)
        for a in range(n):
            assert ring.is_zero(a) is (a == 0)
            if gcd(a, n) == 1:
                assert residue(ring.inv(a), pow(a, -1, n))
            else:
                with pytest.raises(RingError):
                    ring.inv(a)
            for b in range(n):
                assert residue(ring.add(a, b), (a + b) % n)
                assert residue(ring.sub(a, b), (a - b) % n)
                assert residue(ring.mul(a, b), a * b % n)

    def test_rationals(self, rationals):
        R = rationals
        with pytest.raises(RingError, match="infinite"):
            R.elements()

        def exact(x, want):
            return type(x) is Fraction and x == want

        assert exact(R.zero(), 0) and exact(R.one(), 1)
        for x in range(-5, 6):
            assert exact(R.canon(x), Fraction(x))
        for a in RATIONAL_GRID:
            assert exact(R.canon(a), a)
            assert R.is_zero(a) is (a == 0)
            if a:
                assert exact(R.inv(a), 1 / a)
            else:
                with pytest.raises(RingError):
                    R.inv(a)
            for b in RATIONAL_GRID:
                assert exact(R.add(a, b), a + b)
                assert exact(R.sub(a, b), a - b)
                assert exact(R.mul(a, b), a * b)


def test_rational_canonical_form(rationals):
    # strings are parsed only from JSON (`algebra.AlgElem.from_json`)
    with pytest.raises(RingError):
        rationals.canon("2/4")
    assert rationals.canon(Fraction(-3, -6)) == Fraction(1, 2)


class TestCoefficientGate:
    """`canon` takes an int that is not a bool over every ring, and a
    Fraction over Q; everything else raises `RingError`, never a rounding."""

    @pytest.mark.parametrize(
        "ring, x",
        [
            (Ring("Fp", 5), 2.5),
            (Ring("Fp", 5), True),
            (Ring("Fp", 5), "\u0664"),  # ARABIC-INDIC DIGIT FOUR, int() reads 4
            (Ring("Fp", 5), "1/2"),
            (Ring("Fp", 5), Fraction(1, 2)),
            (Ring("Fp", 5), Fraction(4)),
            (Ring("Zn", 6), 5.0),
            (Ring("Q"), 0.1),
            (Ring("Q"), False),
        ],
        ids=repr,
    )
    def test_refused(self, ring, x):
        with pytest.raises(RingError):
            ring.canon(x)

    @pytest.mark.parametrize("ring", [Ring("Zn", 6), Ring("Fp", 5), Ring("Q")], ids=str)
    def test_inv_refuses_floats(self, ring):
        with pytest.raises(RingError):
            ring.inv(2.9)


def test_json_round_trip():
    for ring in [Ring("Fp", 7), Ring("Zn", 9), Ring("Q")]:
        assert Ring.from_json(ring.to_json()) == ring


@pytest.mark.parametrize(
    "obj",
    [
        # a modulus key of another kind makes the ring ambiguous
        {"ring": "Q", "p": 5},
        {"ring": "Q", "n": 6},
        {"ring": "Fp", "p": 5, "n": 6},
        {"ring": "Zn", "n": 6, "p": 5},
        {"ring": "Fp", "n": 5},
        # no ring kind, no modulus, or a bad one
        {"ring": "Fp"},
        {"ring": "Zn", "n": True},
        {"ring": "R"},
        {"p": 5},
        ["Fp", 5],
    ],
    ids=repr,
)
def test_bad_ring_json_refused(obj):
    with pytest.raises(RingError):
        Ring.from_json(obj)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(10**4) if _is_prime(n)] == [
            n for n in range(10**4) if _trial_division(n)
        ]

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert Ring("Fp", 2**61 - 1).modulus == 2**61 - 1
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "n",
        [2**61 + 1, 561, 3215031751],
        ids=["2^61+1", "carmichael-561", "strong-pseudoprime-2357"],
    )
    def test_composites_refused(self, n):
        with pytest.raises(RingError):
            Ring("Fp", n)

    @pytest.mark.parametrize("kind", ["Fp", "Zn"])
    @pytest.mark.parametrize("modulus", [None, 2.5, 5.0, "5"])
    def test_modulus_must_be_an_integer(self, kind, modulus):
        with pytest.raises(RingError, match="integer modulus"):
            Ring(kind, modulus)

    def test_modulus_beyond_certified_range_refused(self):
        # the least strong pseudoprime to every prime base up to 41
        psi13 = 3317044064679887385961981
        assert _is_prime(psi13)  # the test itself is fooled here
        with pytest.raises(RingError, match="too large"):
            Ring("Fp", psi13)
        with pytest.raises(RingError, match="too large"):
            Ring("Fp", 2**89 - 1)


class TestPrimePower:
    def test_agrees_with_trial_division(self):
        def prime_power(n):
            return len({d for d in range(2, n + 1) if n % d == 0 and _trial_division(d)}) == 1

        assert [n for n in range(2, 3000) if _is_prime_power(n)] == [
            n for n in range(2, 3000) if prime_power(n)
        ]

    @pytest.mark.parametrize(
        "n, expected",
        [
            (2**80, True),
            (3**51, True),
            (1000003**3, True),
            ((10**12 + 39) ** 2, True),
            (2**61 - 1, True),
            (3 * 2**79, False),
            (2 * 3**50, False),
            (2 * 1000003**3, False),
            (10**10, False),
            ((2**61 - 1) * 1000003, False),
        ],
    )
    def test_large_moduli(self, n, expected):
        assert _is_prime_power(n) is expected

    def test_beyond_certified_range_refused(self):
        assert not _is_prime_power(_MR_BOUND - 1)
        with pytest.raises(RingError, match="too large"):
            _is_prime_power(_MR_BOUND)
