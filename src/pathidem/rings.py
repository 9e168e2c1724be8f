"""Commutative base rings with exact arithmetic and decidable idempotent structure.

Supported rings: prime fields F_p, residue rings Z/n, and the rationals.
Elements are plain ints (canonical residues in [0, n)) for the finite rings
and `fractions.Fraction` for the rationals, so equality is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

Elem = Union[int, Fraction]


class RingError(ValueError):
    """Invalid ring specification or element."""


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


@dataclass(frozen=True)
class Ring:
    """A base ring: kind is "Fp", "Zn" or "Q"; modulus applies to the finite kinds."""

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
    def is_finite(self) -> bool:
        return self.kind != "Q"

    @property
    def is_field(self) -> bool:
        return self.kind in ("Fp", "Q")

    def zero(self) -> Elem:
        return Fraction(0) if self.kind == "Q" else 0

    def one(self) -> Elem:
        return Fraction(1) if self.kind == "Q" else 1

    def canon(self, x) -> Elem:
        """Canonicalize an int, Fraction, or string into this ring."""
        if isinstance(x, str):
            x = Fraction(x) if self.kind == "Q" else int(x)
        if self.kind == "Q":
            return Fraction(x)
        return int(x) % self.modulus

    def add(self, a: Elem, b: Elem) -> Elem:
        return self.canon(a + b)

    def sub(self, a: Elem, b: Elem) -> Elem:
        return self.canon(a - b)

    def neg(self, a: Elem) -> Elem:
        return self.canon(-a)

    def mul(self, a: Elem, b: Elem) -> Elem:
        return self.canon(a * b)

    def is_zero(self, a: Elem) -> bool:
        return a == self.zero()

    def is_unit(self, a: Elem) -> bool:
        if self.kind == "Q":
            return a != 0
        return gcd(int(a), self.modulus) == 1

    def inv(self, a: Elem) -> Elem:
        if self.kind == "Q":
            if a == 0:
                raise RingError("division by zero")
            return Fraction(1) / a
        try:
            return pow(int(a), -1, self.modulus)
        except ValueError as exc:
            raise RingError(f"{a} is not a unit mod {self.modulus}") from exc

    def elements(self) -> Iterable[Elem]:
        if not self.is_finite:
            raise RingError("cannot enumerate an infinite ring")
        return range(self.modulus)

    def fmt(self, a: Elem) -> str:
        return str(a)

    # ---- idempotent structure ----

    def idempotents(self) -> list[Elem]:
        """All x with x*x == x, in canonical order."""
        if self.kind == "Q":
            return [Fraction(0), Fraction(1)]
        return [x for x in self.elements() if self.mul(x, x) == x]

    def is_idempotent(self, a: Elem) -> bool:
        return self.mul(a, a) == self.canon(a)

    def idem_join(self, a: Elem, b: Elem) -> Elem:
        return self.sub(self.add(a, b), self.mul(a, b))

    def idem_join_is_unit(self, elems: list[Elem]) -> bool:
        """Whether the ideal generated by the given idempotents is the whole ring."""
        acc = self.zero()
        for x in elems:
            x = self.canon(x)
            if not self.is_idempotent(x):
                raise RingError("idem_join_is_unit requires idempotent arguments")
            acc = self.idem_join(acc, x)
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
        if not isinstance(obj, dict) or "ring" not in obj:
            raise RingError(f"bad ring spec: {obj!r}")
        kind = obj["ring"]
        if kind == "Q":
            return Ring("Q")
        if kind not in ("Fp", "Zn"):
            raise RingError(f"unknown ring kind {kind!r}")
        key = "p" if kind == "Fp" else "n"
        modulus = obj.get(key)
        # bool is an int subclass: JSON true must not read as modulus 1
        if type(modulus) is not int:
            raise RingError(f"{kind} needs an integer {key!r}, got {modulus!r}")
        return Ring(kind, modulus)

    def __str__(self):
        if self.kind == "Fp":
            return f"F_{self.modulus}"
        if self.kind == "Zn":
            return f"Z/{self.modulus}"
        return "Q"
