"""Exact linear algebra helpers: echelon row spaces over fields and over Z/n.

Each ring kind has one row space, which refuses the other kind when built.
Over a field (F_p or Q), `FieldRowSpace` keeps a reduced echelon basis
(pivot entry 1, pivot columns cleared). Over Z/n, `ZnRowSpace` tracks a span
as the integer lattice generated by the rows together with n times each
unit vector, holding only rows built from the vectors it is given;
membership in the Z/n-span is membership in that lattice, decided by an
integer echelon form with gcd pivots, exact in the presence of zero divisors.
A row space's width is that of the first row it holds: a vector of another
length raises LinAlgError, as a row of another width does in `nullspace`.

Over a field the reduced echelon basis of a subspace is unique, so a tuple
of its rows names the subspace: two subspaces are equal exactly when their
bases are. This is the one subspace format of the package: a
`reps.Submodule` is such a basis per vertex. `span`, `join` and `image`
answer subspace questions on such bases, and refuse a ring that is not a
field; `image` keeps its answers in a fixed-size cache, so an image met
once is not computed again. A `FieldRowSpace` (seeded with spanning
vectors) is kept only where membership is asked for or vectors are added
one at a time.
`nullspace` builds no row space: it brings its rows to the same reduced
echelon form in place, in one pass.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from .rings import Ring


class LinAlgError(ValueError):
    pass


class FieldRowSpace:
    """Incrementally maintained reduced echelon basis over a field, seeded
    with `vectors`; LinAlgError over any other ring."""

    def __init__(self, ring: Ring, vectors: Iterable[Sequence] = ()):
        if not ring.is_field:
            raise LinAlgError(f"FieldRowSpace needs a field, not {ring}")
        self.ring = ring
        self.rows: list[tuple] = []  # reduced echelon order
        self.pivots: list[int] = []
        for x in vectors:
            self.add(x)

    def _reduce(self, vec: Sequence) -> list:
        """The residual of vec after subtracting its multiples of the
        echelon rows: all zero exactly when vec is in the span."""
        R, rows = self.ring, self.rows
        v = _canon(R, vec, len(rows[0]) if rows else None)
        for row, piv in zip(rows, self.pivots):
            c = v[piv]
            if c:
                v = _combine(R, v, -c, row)
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; returns True when the span grew."""
        R = self.ring
        v = self._reduce(vec)
        for piv, x in enumerate(v):
            if x:
                break
        else:
            return False
        inv = R.inv(v[piv])
        if inv != 1:  # scale to pivot 1; the residual is already reduced
            v = _combine(R, [0] * len(v), inv, v)
        v = tuple(v)
        # clear the new pivot column in the existing rows
        self.rows = [
            tuple(_combine(R, row, -row[piv], v)) if row[piv] else row
            for row in self.rows
        ]
        idx = bisect(self.pivots, piv)
        self.rows.insert(idx, v)
        self.pivots.insert(idx, piv)
        return True


# ---- subspaces as reduced echelon bases: tuples of row tuples ----


def span(ring: Ring, vectors: Iterable[Sequence]) -> tuple:
    """The reduced echelon basis of the span of `vectors`, a tuple of row
    tuples."""
    return tuple(FieldRowSpace(ring, vectors).rows)


def join(ring: Ring, a: tuple, b: tuple) -> tuple:
    """The reduced echelon basis of the sum of two subspaces, each given by
    its reduced echelon basis; LinAlgError over a ring that is not a field,
    whether or not a side is empty."""
    if not ring.is_field:
        raise LinAlgError(f"join needs a field, not {ring}")
    if not b:
        return a
    if not a:
        return b
    return span(ring, a + b)


@lru_cache(maxsize=1 << 12)
def image(ring: Ring, mat: tuple, basis: tuple) -> tuple:
    """The reduced echelon basis of mat * span(basis): mat is an r x c matrix
    (a tuple of row tuples) and basis spans a subspace of ring^c."""
    return span(ring, tuple(mat_vec(ring, mat, x) for x in basis))


def _canon(ring: Ring, vec: Iterable, width: Optional[int] = None) -> list:
    """The coefficient gate for a whole vector, `Ring.canon` entrywise: an int
    over F_p or Z/n and a Fraction over Q are handled inline, anything else
    goes through `Ring.canon`. LinAlgError when `width` is given and the
    vector has another length."""
    m = ring.modulus
    if m is None:
        v = [x if type(x) is Fraction else ring.canon(x) for x in vec]
    else:
        v = [x % m if type(x) is int else ring.canon(x) for x in vec]
    if width is not None and len(v) != width:
        raise LinAlgError(f"a vector of length {len(v)} where {width} is held")
    return v


def _combine(ring: Ring, u: Sequence, c, w: Sequence) -> list:
    """u + c*w entrywise, reduced mod the modulus (exact over Q), for
    coefficients that have already passed the gate."""
    m = ring.modulus
    if m is None:
        return [a + c * b for a, b in zip(u, w)]
    return [(a + c * b) % m for a, b in zip(u, w)]


class ZnRowSpace:
    """Span of rows over Z/n seeded with `vectors`, as the integer lattice
    rows*Z + n*Z^k in echelon form. `echelon` holds only rows built from added
    vectors, one per pivot column i: 0 before i, a proper divisor of n at i,
    entries mod n after i. A column with no row stands for n*e_i."""

    def __init__(self, ring: Ring, vectors: Iterable[Sequence] = ()):
        if ring.kind != "Zn":
            raise LinAlgError("ZnRowSpace is for Z/n rings")
        self.ring = ring
        self.n = ring.modulus
        self.echelon: dict[int, list[int]] = {}
        for x in vectors:
            self.add(x)

    def _insert(self, v: list[int]) -> None:
        n, k = self.n, len(v)
        for i in range(k):
            if v[i] == 0:
                continue
            row = self.echelon.get(i) or [n * (j == i) for j in range(k)]
            a, b = row[i], v[i]
            g = gcd(a, b)
            # a unimodular change of (row, v): the row takes the gcd pivot and
            # v, now 0 at i, keeps reducing; entries are reduced mod n, as the
            # lattice contains n*e_j
            x0, y0 = _ext_gcd(a, b)
            self.echelon[i] = [(x0 * r + y0 * w) % n for r, w in zip(row, v)]
            v = [((b // g) * r - (a // g) * w) % n for r, w in zip(row, v)]

    def add(self, vec: Sequence) -> bool:
        v = _canon(self.ring, vec)
        if self.contains(v):
            return False
        self._insert(v)
        return True

    def contains(self, vec: Sequence) -> bool:
        held = next(iter(self.echelon.values()), None)  # its width is the space's
        v = _canon(self.ring, vec, None if held is None else len(held))
        for i in range(len(v)):
            if v[i] == 0:
                continue
            row = self.echelon.get(i)
            if row is None or v[i] % row[i]:
                return False
            q = v[i] // row[i]
            v = [(a - q * b) % self.n for a, b in zip(v, row)]
        return True


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """(x, y) with x*a + y*b == gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_x, old_y


# ---- dense matrix helpers (tuples of tuples, row major) ----


def mat_canon(ring: Ring, rows: Sequence[Sequence]) -> tuple:
    return tuple(tuple(_canon(ring, row)) for row in rows)


def zero_matrix(ring: Ring, nrows: int, ncols: int) -> tuple:
    z = ring.zero()
    return tuple(tuple(z for _ in range(ncols)) for _ in range(nrows))


@lru_cache(maxsize=256)
def identity_matrix(ring: Ring, n: int) -> tuple:
    """The n x n identity (cached: the oracles ask for it once per term of e
    and per vertex of every representation they enumerate)."""
    z, o = ring.zero(), ring.one()
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def mat_mul(ring: Ring, a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    """The product a * b. The column count is read off b's first row, so
    when the inner dimension is 0 the result is len(a) empty rows, not the
    len(a) x c zero matrix; a caller that needs the shape builds it."""
    if a and b and len(a[0]) != len(b):
        raise LinAlgError("shape mismatch in matrix product")
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ring.zero()] * ncols
        for c, brow in zip(row, b):
            if c:
                acc = _combine(ring, acc, c, brow)
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(ring: Ring, a: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(_canon(ring, [sum(map(mul, row, v)) for row in a]))


def nullspace(ring: Ring, rows: Sequence[Sequence], ncols: int) -> list[tuple]:
    """Basis of {v : rows @ v == 0} over a field: one vector per free column
    j of the reduced echelon form of `rows`, with 1 at j, -row[j] at each
    row's pivot and 0 elsewhere, in column order. With no rows that is the
    unit basis, returned with no elimination.

    The rows pass the gate `_canon` once, which refuses a row whose length
    is not ncols with LinAlgError, and are then reduced in place,
    column by column (Gauss-Jordan, with `_combine`): the first row with a
    nonzero entry in the column becomes its pivot row, scaled to 1 with
    `Ring.inv` only when its pivot is not 1, and the column is cleared in
    every other row. The reduced echelon form is unique, so this is the
    basis a `FieldRowSpace` seeded with the rows would give."""
    if not ring.is_field:
        raise LinAlgError("nullspace computation requires a field")
    zero, one = ring.zero(), ring.one()
    if not rows:  # built here, so no unit basis of a wide system stays cached
        basis = []
        for i in range(ncols):
            row = [zero] * ncols
            row[i] = one
            basis.append(tuple(row))
        return basis
    work = [_canon(ring, row, ncols) for row in rows]
    pivots = []  # the pivot column of work[r], for each r < len(pivots)
    for j in range(ncols):
        rank = len(pivots)
        for r in range(rank, len(work)):
            if work[r][j]:
                break
        else:
            continue
        row = work[r]
        if row[j] != 1:
            row = _combine(ring, [0] * ncols, ring.inv(row[j]), row)
        work[r], work[rank] = work[rank], row
        for r, other in enumerate(work):
            if r != rank and other[j]:
                work[r] = _combine(ring, other, -other[j], row)
        pivots.append(j)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, piv in zip(work, pivots):
            v[piv] = -row[f]
        basis.append(tuple(_canon(ring, v)))
    return basis
