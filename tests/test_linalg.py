import random
import tracemalloc
from fractions import Fraction

import pytest

from pathidem.linalg import (
    FieldRowSpace,
    LinAlgError,
    ZnRowSpace,
    identity_matrix,
    image,
    join,
    mat_canon,
    mat_mul,
    mat_vec,
    nullspace,
    span,
)
from pathidem import oracle
from pathidem.rings import Ring, RingError

from reference import RefRowSpace, RefZnRowSpace, ref_nullspace


class TestFieldRowSpace:
    def test_incremental_echelon(self, f5):
        sp = FieldRowSpace(f5)
        assert sp.add((1, 2, 3))
        assert sp.add((0, 1, 1))
        assert not sp.add((1, 3, 4))  # dependent on the first two
        assert len(sp.rows) == 2
        assert sp.contains((2, 4, 6))
        assert not sp.contains((0, 0, 1))

    @pytest.mark.parametrize("vectors", [(), [(1, 3)], [(2, 1)]], ids=repr)
    def test_zn_refused_whatever_the_vectors(self, z6, vectors):
        # a unit pivot (1, 3) is refused like a non-unit one (2, 1): Z/n has
        # its own row space
        with pytest.raises(LinAlgError, match="needs a field"):
            FieldRowSpace(z6, vectors)

    def test_width_is_that_of_the_rows_held(self, f5):
        # a vector of another length is refused, not cut to the rows' width
        # by zip; before the first row any width is asked about
        with pytest.raises(LinAlgError, match="length 3 where 2"):
            FieldRowSpace(f5, [(1, 0), (0, 1, 1)])
        with pytest.raises(LinAlgError, match="length 2 where 3"):
            span(f5, [(1, 2, 3), (1, 2)])
        sp = FieldRowSpace(f5, [(0, 0, 0)])
        assert sp.rows == [] and not sp.contains((1,))
        sp.add((1, 0))
        for vec in [(0, 1, 1), (1,)]:
            with pytest.raises(LinAlgError, match="length"):
                sp.contains(vec)
            with pytest.raises(LinAlgError, match="length"):
                sp.add(vec)


class TestZnRowSpace:
    @pytest.mark.parametrize("ring", [Ring("Fp", 5), Ring("Q")], ids=str)
    def test_refused_over_a_field(self, ring):
        with pytest.raises(LinAlgError, match="for Z/n rings"):
            ZnRowSpace(ring)

    def test_holds_only_given_rows(self, z6):
        # a column with no row stands for n*e_i: a vector over 20,000
        # coordinates (TruncatedIdeal's path bound) adds one row
        tracemalloc.start()
        try:
            sp = ZnRowSpace(z6)
            assert not sp.contains([0] * 19_999 + [1])
            assert sp.add([0] * 19_999 + [3])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1 << 20
        assert list(sp.echelon) == [19_999]

    @pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 30])
    def test_against_the_dense_reference(self, n):
        # probes are combinations of the added vectors (in the span), with
        # one entry moved by a zero divisor or a unit half of the time
        ring, rng = Ring("Zn", n), random.Random(n)
        answers = []
        for _ in range(60):
            ncols = rng.randint(1, 4)
            space, ref = ZnRowSpace(ring), RefZnRowSpace(ring, ncols)
            added = []
            for _ in range(rng.randint(1, 4)):
                vec = [rng.choice((0, 1, 2, 3, 5)) * rng.randint(-n, n) for _ in range(ncols)]
                assert space.add(vec) == ref.add(vec)
                added.append(vec)
                assert all(0 < row[i] < n and n % row[i] == 0
                           for i, row in space.echelon.items())
                for _ in range(10):
                    probe = [sum(rng.randint(-n, n) * v[j] for v in added)
                             for j in range(ncols)]
                    if rng.random() < 0.5:
                        probe[rng.randrange(ncols)] += rng.randint(1, n - 1)
                    answers.append(space.contains(probe))
                    assert answers[-1] == ref.contains(probe)
        assert answers.count(True) >= 500 and answers.count(False) >= 200

    def test_lattice_membership(self, z6):
        sp = ZnRowSpace(z6, [(2, 0)])
        assert sp.echelon == {0: [2, 0]}
        assert sp.contains((4, 0))
        assert not sp.contains((1, 0))
        assert not sp.add((4, 0))

    def test_non_unit_combination(self, z6):
        # 2 and 3 together generate everything in the first coordinate
        sp = ZnRowSpace(z6)
        sp.add((2,))
        sp.add((3,))
        assert sp.contains((1,))

    def test_width_is_that_of_the_rows_held(self, z6):
        # until a row is held any width is asked about; then only its own
        sp = ZnRowSpace(z6, [(0, 0, 0)])
        assert sp.echelon == {} and not sp.contains((1,))
        sp.add((0, 3))
        for vec in [(0, 3, 0), (1,)]:
            with pytest.raises(LinAlgError, match="length"):
                sp.add(vec)
            with pytest.raises(LinAlgError, match="length"):
                sp.contains(vec)
        with pytest.raises(LinAlgError, match="length"):
            ZnRowSpace(z6, [(1, 0), (0, 1, 1)])

class TestCoefficientGate:
    def test_row_spaces_refuse_a_fraction_over_a_finite_ring(self, f5, z6):
        with pytest.raises(RingError):
            FieldRowSpace(f5, [(Fraction(7, 2), 1)])
        sp = ZnRowSpace(z6)
        with pytest.raises(RingError):
            sp.add((Fraction(7, 2), 1))
        with pytest.raises(RingError):
            sp.contains((Fraction(7, 2), 1))

    def test_row_spaces_refuse_floats(self, z6, rationals):
        with pytest.raises(RingError):
            FieldRowSpace(rationals, [(0.5, 1)])
        with pytest.raises(RingError):
            ZnRowSpace(z6).add((2.0,))

    def test_ints_accepted(self, f5, rationals):
        assert FieldRowSpace(f5, [(7, 1)]).rows == [(1, 3)]
        assert FieldRowSpace(rationals, [(2, 1)]).rows == [(1, Fraction(1, 2))]


class TestDense:
    def test_mat_ops(self, f5):
        a = ((1, 2), (3, 4))
        b = ((0, 1), (1, 0))
        assert mat_mul(f5, a, b) == ((2, 1), (4, 3))
        assert mat_vec(f5, a, (1, 1)) == (3, 2)
        with pytest.raises(LinAlgError, match="shape mismatch"):
            mat_mul(f5, a, ((1, 2, 3),))

    def test_nullspace(self, f5):
        # x + 2y + 3z = 0 has a 2-dimensional solution space
        sols = nullspace(f5, [(1, 2, 3)], 3)
        assert len(sols) == 2
        for s in sols:
            assert (s[0] + 2 * s[1] + 3 * s[2]) % 5 == 0

    def test_nullspace_full_rank(self, f5):
        assert nullspace(f5, [(1, 0), (0, 1)], 2) == []

    @pytest.mark.parametrize("rows", [[(1, 0, 1)], [(1, 0), (1,)]], ids=repr)
    def test_nullspace_refuses_a_row_of_another_width(self, f5, rows):
        with pytest.raises(LinAlgError, match="where 2"):
            nullspace(f5, rows, 2)


# ---- the kernels against a reference written with Ring arithmetic ----


def _ref_mat_vec(ring, a, v):
    out = []
    for row in a:
        acc = ring.zero()
        for x, y in zip(row, v):
            acc = ring.add(acc, ring.mul(x, y))
        out.append(acc)
    return tuple(out)


def _ref_mat_mul(ring, a, b):
    cols = list(zip(*b))
    return tuple(tuple(_ref_mat_vec(ring, [row], col)[0] for col in cols) for row in a)


def _random_entry(ring, rng):
    """Deliberately non-canonical: negative ints and ints >= p, ints and
    Fractions over Q; about half the entries are zero."""
    if rng.random() < 0.5:
        return 0
    if ring.kind == "Q":
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return rng.randint(-2 * ring.modulus, 2 * ring.modulus)


def _random_matrix(ring, rng, nrows, ncols):
    return [[_random_entry(ring, rng) for _ in range(ncols)] for _ in range(nrows)]


def _is_canonical(ring, x):
    if ring.kind == "Q":
        return type(x) is Fraction
    return type(x) is int and 0 <= x < ring.modulus


KERNEL_RINGS = [Ring("Fp", 5), Ring("Zn", 6), Ring("Q")]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
class TestKernelsAgainstReference:
    def test_row_space(self, ring):
        if not ring.is_field:
            # the subspace functions on reduced echelon bases are field-only too
            for call in (
                lambda: span(ring, [(1, 0)]),
                lambda: join(ring, ((1, 0),), ((0, 1),)),
                lambda: image(ring, ((1, 0), (0, 1)), ((1, 0),)),
            ):
                with pytest.raises(LinAlgError, match="needs a field"):
                    call()
            return
        rng = random.Random(11)
        grown = 0
        for _ in range(60):
            ncols = rng.randint(1, 5)
            space, ref = FieldRowSpace(ring), RefRowSpace(ring)
            added = []
            for vec in _random_matrix(ring, rng, rng.randint(1, 6), ncols):
                residual = ref.reduce(vec)[1]
                assert space.contains(vec) == all(ring.is_zero(x) for x in residual)
                expected = ref.add(vec)
                assert space.add(vec) == expected
                added.append(vec)
                grown += expected
                assert space.rows == ref.rows and space.pivots == ref.pivots
                assert all(_is_canonical(ring, x) for row in space.rows for x in row)
            # a space seeded with the accepted vectors is the incremental one
            seeded = FieldRowSpace(ring, added)
            assert seeded.rows == ref.rows and seeded.pivots == ref.pivots
        assert grown >= 50

    def test_dense_products(self, ring):
        rng = random.Random(12)
        for _ in range(60):
            n, k, m = rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = _random_matrix(ring, rng, n, k)
            b = _random_matrix(ring, rng, k, m)
            v = [_random_entry(ring, rng) for _ in range(k)]
            canon = mat_canon(ring, a)
            assert canon == tuple(tuple(ring.canon(x) for x in row) for row in a)
            assert all(_is_canonical(ring, x) for row in canon for x in row)
            got_mv, got_mm = mat_vec(ring, a, v), mat_mul(ring, a, b)
            assert got_mv == _ref_mat_vec(ring, a, v)
            assert got_mm == _ref_mat_mul(ring, a, b)
            assert all(_is_canonical(ring, x) for x in got_mv)
            assert all(_is_canonical(ring, x) for row in got_mm for x in row)

    def test_nullspace(self, ring):
        if not ring.is_field:
            with pytest.raises(LinAlgError):
                nullspace(ring, [(1, 0)], 2)
            return
        rng = random.Random(13)
        for _ in range(60):
            ncols = rng.randint(1, 5)
            rows = _random_matrix(ring, rng, rng.randint(0, 7), ncols)
            basis = nullspace(ring, rows, ncols)
            assert basis == ref_nullspace(ring, rows, ncols)
            for x in basis:
                assert all(ring.is_zero(y) for y in _ref_mat_vec(ring, rows, x))


F2, F3, F5, Q = Ring("Fp", 2), Ring("Fp", 3), Ring("Fp", 5), Ring("Q")
FR = Fraction
NULLSPACE_CASES = {
    # unknowns but no equation: the unit basis, with no elimination
    "no-rows-F3": (F3, [], 3),
    "no-rows-Q": (Q, [], 2),
    "no-rows-no-columns": (F2, [], 0),
    # equations that are all zero: the unit basis again, by elimination
    "zero-rows-F5": (F5, [(0, 0, 0), (0, 0, 0)], 3),
    "zero-row-among-others-F3": (F3, [(0, 0, 0, 0), (0, 2, 1, 0), (0, 0, 0, 0)], 4),
    # pivots other than 1, which must be scaled to 1
    "pivots-2-F3": (F3, [(0, 2, 1, 0), (2, 0, 0, 1)], 4),
    "pivots-3-4-F5": (F5, [(3, 1, 4, 0), (0, 0, 2, 3)], 4),
    "pivot-after-reduction-F5": (F5, [(1, 2, 0), (1, 4, 3)], 3),
    # fractions over Q
    "fractions-Q": (Q, [(FR(1, 2), FR(-2, 3), 1, 0), (3, 0, FR(5, 7), FR(-1, 4))], 4),
    "fraction-pivot-Q": (Q, [(0, 0, 0), (FR(3, 4), 0, FR(1, 3))], 3),
    # more rows than columns: full column rank, and rank 1 of 4 rows
    "overdetermined-full-rank-F5": (F5, [(1, 2), (3, 1), (2, 2), (4, 0)], 2),
    "overdetermined-rank-1-F3": (F3, [(1, 2, 0), (2, 1, 0), (1, 2, 0), (0, 0, 0)], 3),
    # duplicate rows, and a row that is the sum or a multiple of others
    "duplicate-rows-F5": (F5, [(1, 2, 3), (1, 2, 3), (2, 4, 1)], 3),
    "dependent-rows-Q": (Q, [(1, FR(1, 2), 0, 2), (0, 1, 1, 0), (1, FR(3, 2), 1, 2)], 4),
    # a column whose pivot lies below the first row without one: a row swap
    "pivot-after-swap-F3": (F3, [(0, 1, 2), (2, 0, 1)], 3),
    "pivot-after-swap-F5": (F5, [(1, 1, 0), (1, 1, 2), (0, 3, 0)], 3),
    "pivot-after-swap-Q": (Q, [(0, 0, 1), (0, FR(2, 3), 0), (5, 0, 0)], 3),
    # rows but no unknown
    "rows-no-columns-F2": (F2, [(), ()], 0),
}


@pytest.mark.parametrize("ring, rows, ncols", NULLSPACE_CASES.values(), ids=NULLSPACE_CASES)
def test_nullspace_cases(ring, rows, ncols):
    # no-row systems, all-zero rows, pivots != 1, fractions, more rows than
    # columns, dependent rows and row swaps, against the Ring-arithmetic
    # reference; each basis vector solves the system, and
    # one is found per column the equations leave free
    basis = nullspace(ring, rows, ncols)
    assert basis == ref_nullspace(ring, rows, ncols)
    assert all(_is_canonical(ring, x) for v in basis for x in v)
    for x in basis:
        assert all(ring.is_zero(y) for y in _ref_mat_vec(ring, rows, x))
    ref = RefRowSpace(ring)
    rank = sum(ref.add(row) for row in rows)
    assert len(basis) == ncols - rank
    if not any(map(any, rows)):
        one, zero = ring.one(), ring.zero()
        units = [tuple(one if i == j else zero for i in range(ncols)) for j in range(ncols)]
        assert basis == units


def test_nullspace_keeps_no_wide_unit_basis():
    # a no-row system of 500 unknowns (a Hom system of 20 x 25 unknowns with
    # no equation) returns its unit basis without asking the cache of
    # `identity_matrix`, which lives as long as the process: its size and
    # its hit and miss counts stay as they were
    before = identity_matrix.cache_info()
    basis = nullspace(F2, [], 500)
    assert basis == [tuple(int(i == j) for j in range(500)) for i in range(500)]
    assert identity_matrix.cache_info() == before


def test_join_refuses_a_non_field_with_either_side_empty():
    # the same refusal as two nonempty sides, before any empty-side shortcut
    z6 = Ring("Zn", 6)
    for a, b in (((), ((1, 0),)), (((1, 0),), ()), ((), ()), (((1, 0),), ((0, 1),))):
        with pytest.raises(LinAlgError, match="needs a field"):
            join(z6, a, b)


def _uncached_span(ring, vectors):
    space = FieldRowSpace(ring)
    for x in vectors:
        space.add(x)
    return tuple(space.rows)


@pytest.mark.parametrize(
    "ring, max_dim",
    [(Ring("Fp", 2), 3), (Ring("Fp", 3), 2), (Ring("Fp", 5), 2), (Ring("Q"), 3)],
    ids=str,
)
class TestCachedSubspaces:
    """`span`, `join` and `image` against an uncached FieldRowSpace, on
    non-canonical random input (and every subspace pair over F_p)."""

    @staticmethod
    def _subspaces(ring, d, rng):
        if ring.kind == "Fp":
            return [basis for basis, _ in oracle._subspaces(ring, d)]
        return [
            _uncached_span(ring, _random_matrix(ring, rng, rng.randint(0, d), d))
            for _ in range(12)
        ]

    def test_span(self, ring, max_dim):
        rng = random.Random(21)
        for _ in range(300):
            d = rng.randint(0, max_dim)
            vectors = tuple(map(tuple, _random_matrix(ring, rng, rng.randint(0, 4), d)))
            got = span(ring, vectors)
            assert got == _uncached_span(ring, vectors)
            assert type(got) is tuple and all(type(row) is tuple for row in got)
            assert all(_is_canonical(ring, x) for row in got for x in row)
            assert span(ring, vectors) == got

    def test_join(self, ring, max_dim):
        rng = random.Random(22)
        for d in range(max_dim + 1):
            spaces = self._subspaces(ring, d, rng)
            for a in spaces:
                for b in spaces:
                    want = _uncached_span(ring, a + b)
                    assert join(ring, a, b) == want == join(ring, b, a)

    def test_image(self, ring, max_dim):
        rng = random.Random(23)
        for d in range(max_dim + 1):
            spaces = self._subspaces(ring, d, rng)
            for _ in range(40):
                rows = rng.randint(0, max_dim)
                mat = mat_canon(ring, _random_matrix(ring, rng, rows, d))
                for basis in spaces:
                    images = [mat_vec(ring, mat, x) for x in basis]
                    assert image(ring, mat, basis) == _uncached_span(ring, images)
