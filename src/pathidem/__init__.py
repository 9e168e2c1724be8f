"""Exact-arithmetic classification of left-special and left-split idempotents
in path algebras of quivers, cross-checked by brute-force enumeration of
finite-dimensional representations."""

__version__ = "0.1.0"
