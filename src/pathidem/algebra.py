"""Sparse exact arithmetic in the path algebra of a quiver.

Elements are finite maps path -> coefficient; multiplication extends path
concatenation bilinearly, with trivial paths acting as local units.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .linalg import FieldRowSpace, ZnRowSpace, _canon
from .quivers import Path, Quiver, QuiverError, concat
from .rings import Ring, _is_int, _json_object

# the most paths a `TruncatedIdeal` indexes, in its window and in its sandwiches
_MAX_IDEAL_PATHS = 20_000

# coefficient strings, ASCII digits only: an integer, and over Q also "a/b"
# or a plain decimal (no exponent, no digit separator, no surrounding space)
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


class AlgebraError(ValueError):
    pass


def _sorted_terms(ring: Ring, paths: Iterable[Path], coeffs: Iterable) -> list:
    """The terms (path, coefficient) of these parallel sequences, with the
    coefficients reduced by the vector gate `linalg._canon`, zeros dropped
    and the terms sorted by `Path.sort_key`: what `AlgElem.make` and
    `AlgElem._reduced` share."""
    return sorted(
        ((p, c) for p, c in zip(paths, _canon(ring, coeffs)) if c),
        key=lambda pc: pc[0].sort_key(),
    )


@dataclass(frozen=True, slots=True)
class AlgElem:
    """An element of the path algebra: canonical sorted sparse term list."""

    quiver: Quiver
    ring: Ring
    terms: tuple[tuple[Path, object], ...]

    @staticmethod
    def make(quiver: Quiver, ring: Ring, terms: Mapping[Path, object]) -> "AlgElem":
        """The element with these terms: paths validated, then coefficients
        canonicalised, zeros dropped and terms sorted by `_sorted_terms`.

        Over a ring with a modulus, a term (e_v, c) with c idempotent is the
        quiver's shared pair for (v, c), so e_S and diagonal elements built
        separately hold the same pair objects; that is at most |V|·2^ω(n)
        pairs per ring Z/n. Over Q nothing is shared: Fraction(1) == 1 with
        equal hashes, so a table shared with an F_p element could hand a Q
        element an int."""
        ordered = _sorted_terms(
            ring, [quiver.check_path(p) for p in terms], terms.values()
        )
        m = ring.modulus
        if m is not None:
            shared = quiver._trivial_terms
            for i, (p, c) in enumerate(ordered):
                if not p.is_trivial:
                    break  # trivial paths sort first
                if c * c % m == c:
                    ordered[i] = shared.setdefault((p.vertex, c), ordered[i])
        return AlgElem(quiver, ring, tuple(ordered))

    @staticmethod
    def _reduced(quiver: Quiver, ring: Ring, terms: Mapping[Path, object]) -> "AlgElem":
        """The element with these terms, for valid paths: coefficients reduced,
        zeros dropped and terms sorted by `_sorted_terms`, and the paths not
        re-validated."""
        return AlgElem(quiver, ring, tuple(_sorted_terms(ring, terms, terms.values())))

    @staticmethod
    def zero(quiver: Quiver, ring: Ring) -> "AlgElem":
        return AlgElem(quiver, ring, ())

    def _check_compatible(self, other: "AlgElem") -> None:
        if self.quiver != other.quiver or self.ring != other.ring:
            raise AlgebraError("elements live over different quivers or rings")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgElem") -> "AlgElem":
        self._check_compatible(other)
        acc = dict(self.terms)
        for p, c in other.terms:
            acc[p] = acc.get(p, 0) + c
        return AlgElem._reduced(self.quiver, self.ring, acc)

    def __neg__(self) -> "AlgElem":
        return AlgElem._reduced(self.quiver, self.ring, {p: -c for p, c in self.terms})

    def __sub__(self, other: "AlgElem") -> "AlgElem":
        return self + (-other)

    def scale(self, c) -> "AlgElem":
        c = self.ring.canon(c)
        return AlgElem._reduced(
            self.quiver, self.ring, {p: c * x for p, x in self.terms}
        )

    def __mul__(self, other: "AlgElem") -> "AlgElem":
        self._check_compatible(other)
        acc: dict[Path, object] = {}
        for p, c in self.terms:
            for q, d in other.terms:
                pq = concat(self.quiver, p, q)
                if pq is not None:
                    acc[pq] = acc.get(pq, 0) + c * d
        return AlgElem._reduced(self.quiver, self.ring, acc)

    def is_idempotent(self) -> bool:
        return self * self == self

    def max_degree(self) -> int:
        return max((len(p) for p, _ in self.terms), default=0)

    # ---- serialization ----

    def to_json(self) -> dict:
        return {
            "terms": [
                {"path": p.to_json(), "coeff": self.ring.fmt(c)} for p, c in self.terms
            ]
        }

    @staticmethod
    def from_json(quiver: Quiver, ring: Ring, obj: dict) -> "AlgElem":
        _json_object(obj, ("terms",), (), AlgebraError, "algebra element")
        if not isinstance(obj["terms"], list):
            raise AlgebraError(f"bad algebra element: {obj!r}")
        acc: dict[Path, object] = {}
        for t in obj["terms"]:
            _json_object(t, ("path", "coeff"), (), AlgebraError, "term")
            p = Path.from_json(t["path"])
            c = _coeff_from_json(ring, t["coeff"])
            if p in acc:
                raise AlgebraError(f"duplicate path in element: {t['path']!r}")
            acc[p] = c
        return AlgElem.make(quiver, ring, acc)


def _coeff_from_json(ring: Ring, c):
    """A JSON coefficient: an int, or a string matching `_INTEGER` (over Q,
    `_RATIONAL`). Floats and bools are refused, not rounded. The grammar has
    no exponent: Fraction("1e999999999") would build 10**999999999 first."""
    if type(c) is int:
        return ring.canon(c)
    if not isinstance(c, str):
        raise AlgebraError(f"coefficient must be a string or an integer, got {c!r}")
    if not (_RATIONAL if ring.kind == "Q" else _INTEGER).fullmatch(c):
        raise AlgebraError(f"bad coefficient {c!r} over {ring}")
    try:
        return ring.canon(Fraction(c) if ring.kind == "Q" else int(c))
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraError(f"bad coefficient {c!r} over {ring}") from exc


def path_vector(elem: AlgElem, index: Mapping[Path, int]) -> list:
    """The coefficients of elem as a vector with one entry per path of
    `index` (path -> position)."""
    vec = [elem.ring.zero()] * len(index)
    for p, c in elem.terms:
        i = index.get(p)
        if i is None:
            raise AlgebraError(f"path of length {len(p)} outside the coordinate index")
        vec[i] = c
    return vec


def path_element(quiver: Quiver, ring: Ring, p: Path) -> AlgElem:
    return AlgElem.make(quiver, ring, {p: ring.one()})


def vertex_idempotent(quiver: Quiver, ring: Ring, vertices: Iterable[str]) -> AlgElem:
    """The idempotent e_S = sum of trivial paths over a vertex subset."""
    if isinstance(vertices, str):
        # a string would pass as a set of one-letter vertex ids
        raise QuiverError(f"vertices must be a collection, not {vertices!r}")
    s = frozenset(vertices)
    unknown = s - quiver.vertex_set
    if unknown:
        raise QuiverError(f"unknown vertices {sorted(unknown)}")
    return AlgElem.make(quiver, ring, {Path(vertex=v): ring.one() for v in s})


class TruncatedIdeal:
    """Echelonized slice of a two-sided ideal: the span of p*g*q over
    generators g and paths p, q with len(p) + len(q) <= degree.

    By the junction rule of `quivers.concat`, p*g is 0 unless p starts at
    the target of a term of g, and (p*g)*q is 0 unless q ends at the source
    of a term of p*g. Only those products are multiplied out, and none of
    them is 0: distinct terms give distinct paths. The sandwiches are added
    for g, then p, then q in path order, as without the pruning.

    Membership is one-sided. True certifies that the element lies in the
    ideal. False only means it is not in the degree-d slice: an ideal element
    of degree <= d may need sandwiches of higher degree whose top terms
    cancel. For a loop x over F_5 and generators 1 + x and x^2, the element
    e_v = (1 - x)(1 + x) + x^2 is missed at degree 0 and found at degree 1.
    An element over another quiver or ring raises AlgebraError."""

    def __init__(self, gens: list[AlgElem], degree: int):
        if not _is_int(degree):
            raise AlgebraError(f"degree must be an int, not {degree!r}")
        if degree < 0:
            raise AlgebraError("degree must be nonnegative")
        if not gens:
            raise AlgebraError("need at least one generator")
        quiver, ring = gens[0].quiver, gens[0].ring
        for g in gens:
            gens[0]._check_compatible(g)
        self.quiver, self.ring, self.degree = quiver, ring, degree

        gen_deg = max(g.max_degree() for g in gens)
        paths = quiver.paths_up_to(degree, limit=_MAX_IDEAL_PATHS)
        # index the coordinate space by all paths that can occur in a sandwich
        coord_paths = quiver.paths_up_to(degree + gen_deg, limit=_MAX_IDEAL_PATHS)
        self._index = {p: i for i, p in enumerate(coord_paths)}
        self._space = FieldRowSpace(ring) if ring.is_field else ZnRowSpace(ring)
        elems = [(p, path_element(quiver, ring, p)) for p in paths]
        for g in gens:
            targets = {quiver.path_target(t) for t, _ in g.terms}
            for p, left in elems:
                if quiver.path_source(p) not in targets:
                    continue
                pg = left * g
                sources = {quiver.path_source(t) for t, _ in pg.terms}
                for q, right in elems:
                    if len(p) + len(q) <= degree and quiver.path_target(q) in sources:
                        self._space.add(path_vector(pg * right, self._index))

    def contains(self, elem: AlgElem) -> bool:
        if elem.quiver != self.quiver or elem.ring != self.ring:
            raise AlgebraError("element lives over another quiver or ring than the ideal")
        if elem.is_zero:
            return True
        if elem.max_degree() > self.degree:
            raise AlgebraError(
                f"element degree {elem.max_degree()} exceeds truncation {self.degree}"
            )
        return self._space.contains(path_vector(elem, self._index))
