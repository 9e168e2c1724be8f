"""Commutative base rings with exact arithmetic and decidable idempotent structure.

Supported rings: prime fields F_p, residue rings Z/n, and the rationals.
Elements are plain ints (canonical residues in [0, n)) for the finite rings
and `fractions.Fraction` for the rationals, so equality is bit-exact.

A library coefficient is an int that is not a bool, or over Q also a
Fraction. `Ring.canon` is the one gate: anything else (a float, bool, string,
or a Fraction over F_p or Z/n) raises `RingError`, never rounded. Strings are
read only from JSON, by the CLI or `algebra.AlgElem.from_json`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Elem = Union[int, Fraction]


class RingError(ValueError):
    """Invalid ring specification or element."""


def _json_object(obj, required: tuple, optional: tuple, error: type, what: str) -> dict:
    """obj, if it is a JSON object with every key of `required` and no key
    outside `required` and `optional`: an unknown or misspelt key is refused,
    not dropped. Otherwise raises `error`, the caller's exception class."""
    if not isinstance(obj, dict) or not set(required) <= obj.keys() <= {*required, *optional}:
        extra = f", may have {list(optional)}" if optional else ""
        raise error(f"bad {what} {obj!r}: needs keys {list(required)}{extra}, no other")
    return obj


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1, from the integer k-th roots
    of n; refuses n >= _MR_BOUND, where `_is_prime` is no longer exact."""
    if n >= _MR_BOUND:
        raise RingError(f"modulus {n} is too large to certify as a prime power")
    if _is_prime(n):
        return True
    # for k >= 2 the root is below 2^53, so the float guess is off by at most 1
    for k in range(2, n.bit_length() + 1):
        r = round(n ** (1 / k))
        if any(c**k == n and _is_prime(c) for c in (r - 1, r, r + 1)):
            return True
    return False


_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class Ring:
    """A base ring: kind is "Fp", "Zn" or "Q"; modulus applies to the finite
    kinds. Arithmetic reduces mod the modulus, and is exact over Q (None)."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind in ("Fp", "Zn") and not isinstance(self.modulus, int):
            raise RingError(
                f"{self.kind} needs an integer modulus, got {self.modulus!r}"
            )
        if self.kind == "Fp":
            if self.modulus >= _MR_BOUND:
                raise RingError(
                    f"Fp modulus {self.modulus} is too large to certify as prime"
                )
            if not _is_prime(self.modulus):
                raise RingError(f"Fp needs a prime modulus, got {self.modulus}")
        elif self.kind == "Zn":
            if self.modulus < 2:
                raise RingError(f"Zn needs modulus >= 2, got {self.modulus}")
        elif self.kind == "Q":
            if self.modulus is not None:
                raise RingError("Q takes no modulus")
        else:
            raise RingError(f"unknown ring kind {self.kind!r}")

    # ---- basic structure ----

    @property
    def is_field(self) -> bool:
        return self.kind in ("Fp", "Q")

    def zero(self) -> Elem:
        return _Q_ZERO if self.modulus is None else 0

    def one(self) -> Elem:
        return _Q_ONE if self.modulus is None else 1

    def canon(self, x) -> Elem:
        """x as an element of this ring: an int reduced mod the modulus, or
        over Q an int or Fraction as a Fraction. Anything else is refused."""
        m = self.modulus
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x) if m is None else x % m
        if m is None and isinstance(x, Fraction):
            return x
        raise RingError(f"{x!r} is not a coefficient over {self}")

    def add(self, a: Elem, b: Elem) -> Elem:
        return self.canon(a + b)

    def sub(self, a: Elem, b: Elem) -> Elem:
        return self.canon(a - b)

    def mul(self, a: Elem, b: Elem) -> Elem:
        return self.canon(a * b)

    def is_zero(self, a: Elem) -> bool:
        return not a

    def inv(self, a: Elem) -> Elem:
        a, m = self.canon(a), self.modulus
        if m is None:
            if not a:
                raise RingError("division by zero")
            return _Q_ONE / a
        try:
            return pow(a, -1, m)
        except ValueError as exc:
            raise RingError(f"{a} is not a unit mod {m}") from exc

    def elements(self) -> range:
        if self.modulus is None:
            raise RingError("cannot enumerate an infinite ring")
        return range(self.modulus)

    def fmt(self, a: Elem) -> str:
        return str(a)

    # ---- idempotent structure ----

    def is_idempotent(self, a: Elem) -> bool:
        return self.mul(a, a) == self.canon(a)

    def idem_join_is_unit(self, elems: list[Elem]) -> bool:
        """Whether the ideal generated by the given idempotents is the whole
        ring: whether their join is 1, where (a) + (b) = (a + b - ab)."""
        acc = self.zero()
        for x in elems:
            x = self.canon(x)
            if not self.is_idempotent(x):
                raise RingError("idem_join_is_unit requires idempotent arguments")
            acc = self.sub(self.add(acc, x), self.mul(acc, x))
        return acc == self.one()

    # ---- serialization ----

    def to_json(self) -> dict:
        if self.kind == "Fp":
            return {"ring": "Fp", "p": self.modulus}
        if self.kind == "Zn":
            return {"ring": "Zn", "n": self.modulus}
        return {"ring": "Q"}

    @staticmethod
    def from_json(obj: dict) -> "Ring":
        kind = obj.get("ring") if isinstance(obj, dict) else None
        if kind not in ("Q", "Fp", "Zn"):
            raise RingError(f"bad ring spec, no ring kind Q, Fp or Zn: {obj!r}")
        key = {"Q": (), "Fp": ("p",), "Zn": ("n",)}[kind]
        # a modulus key of another kind, like any other key, is refused
        _json_object(obj, ("ring", *key), (), RingError, "ring spec")
        if kind == "Q":
            return Ring("Q")
        modulus = obj[key[0]]
        # bool is an int subclass: JSON true must not read as modulus 1
        if type(modulus) is not int:
            raise RingError(f"{kind} needs an integer {key[0]!r}, got {modulus!r}")
        return Ring(kind, modulus)

    def __str__(self):
        if self.kind == "Fp":
            return f"F_{self.modulus}"
        if self.kind == "Zn":
            return f"Z/{self.modulus}"
        return "Q"
