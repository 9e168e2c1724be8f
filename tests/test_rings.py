import time
from fractions import Fraction
from itertools import product

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

    def test_idempotents_z6(self, z6):
        # brute-force x*x == x over all residues gives {0, 1, 3, 4}
        assert set(z6.idempotents()) == {0, 1, 3, 4} == brute_idempotents(6)

    def test_idempotents_field(self, f5, rationals):
        assert f5.idempotents() == [0, 1]
        assert rationals.idempotents() == [Fraction(0), Fraction(1)]

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
        for a in ring.idempotents():
            for b in ring.idempotents():
                assert idem_leq(ring, a, b) == (a in principal_ideal(n, b))

    @pytest.mark.parametrize("n", [6, 10, 12])
    def test_join_matches_ideal_enumeration(self, n):
        ring = Ring("Zn", n)
        idems = ring.idempotents()
        for k in range(3):
            for gens in product(idems, repeat=k):
                assert ring.idem_join_is_unit(list(gens)) == (1 in ideal_of(n, gens))

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_idempotents_closed_under_product_and_join(self, n):
        ring = Ring("Zn", n)
        idems = set(ring.idempotents())
        for a in idems:
            for b in idems:
                assert ring.mul(a, b) in idems
                assert ring.idem_join(a, b) in idems


def test_rational_canonical_form(rationals):
    assert rationals.canon("2/4") == Fraction(1, 2)
    assert rationals.canon(Fraction(-3, -6)) == Fraction(1, 2)


def test_json_round_trip():
    for ring in [Ring("Fp", 7), Ring("Zn", 9), Ring("Q")]:
        assert Ring.from_json(ring.to_json()) == ring


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
