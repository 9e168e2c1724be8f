"""Decision procedures for left-special and left-split idempotents in path
algebras: standard forms, centrality, strong orthogonality, and full families.

An element is left special exactly when it decomposes as
e = sum_{v in S} lambda_v e_v + sum_i kappa_i p_i with S left closed, the
lambda_v nonzero idempotents compatible along paths inside S, and the kappa
terms supported on non-trivial paths ending in S. Splitness, orthogonality
and fullness are then read off the (S, lambda) diagonal data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .algebra import AlgElem, vertex_idempotent
from .quivers import Path, Quiver
from .rings import Ring, _is_prime_power


class ClassifyError(ValueError):
    pass


@dataclass(frozen=True)
class StandardForm:
    """Certified decomposition of a left-special element."""

    quiver: Quiver
    ring: Ring
    vertices: frozenset[str]                       # the left-closed support S
    diag: tuple[tuple[str, object], ...]           # (v, lambda_v), sorted by vertex
    kappa_terms: tuple[tuple[Path, object], ...]   # non-trivial (p_i, kappa_i)

    def lam(self, v: str):
        for w, c in self.diag:
            if w == v:
                return c
        raise KeyError(v)

    def reassemble(self) -> AlgElem:
        terms: dict[Path, object] = {Path(vertex=v): c for v, c in self.diag}
        for p, c in self.kappa_terms:
            terms[p] = c
        return AlgElem.make(self.quiver, self.ring, terms)

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "lambda": {v: self.ring.fmt(c) for v, c in self.diag},
            "kappa_terms": [
                {"path": p.to_json(), "coeff": self.ring.fmt(c)}
                for p, c in self.kappa_terms
            ],
        }


@dataclass(frozen=True)
class Witness:
    """First failing condition, with the offending vertex/edge/path."""

    condition: str
    detail: str

    def to_json(self) -> dict:
        return {"condition": self.condition, "detail": self.detail}


def try_standard_form(e: AlgElem) -> tuple[Optional[StandardForm], Optional[Witness]]:
    """Attempt to certify a standard form; the support of the trivial paths is
    read off as S, with no search. Returns (form, None) or (None, witness)."""
    q, ring = e.quiver, e.ring
    diag: dict[str, object] = {}
    kappa: list[tuple[Path, object]] = []
    for p, c in e.terms:
        if p.is_trivial:
            diag[p.vertex] = c
        else:
            kappa.append((p, c))
    s = frozenset(diag)

    for v in sorted(s):
        for eid in q.out_edges[v]:
            if q.edge_target(eid) not in s:
                return None, Witness(
                    "support-not-left-closed", f"edge {eid} leaves the support at {v}"
                )

    for v in sorted(s):
        if not ring.is_idempotent(diag[v]):
            return None, Witness(
                "lambda-not-idempotent", f"coefficient {ring.fmt(diag[v])} at {v}"
            )

    # lambda_v must generate a smaller ideal than lambda_{v'} along any path
    # v -> v'; for idempotents (the loop above has checked them) that is
    # lambda_v * lambda_{v'} == lambda_v. Since S is left closed,
    # reachability from v stays inside S
    for v in sorted(s):
        for w in sorted(q.reachable(v)):
            if w in s and ring.mul(diag[v], diag[w]) != diag[v]:
                return None, Witness(
                    "lambda-not-monotone-along-paths",
                    f"path {v} -> {w} but ({ring.fmt(diag[v])}) is not inside "
                    f"({ring.fmt(diag[w])})",
                )

    for p, c in kappa:
        t = q.path_target(p)
        if t not in s:
            return None, Witness(
                "kappa-target-outside-support",
                f"path term {p.to_json()} ends at {t} outside S",
            )
        if ring.mul(diag[t], c) != c:
            return None, Witness(
                "kappa-not-fixed-by-target-lambda",
                f"lambda at {t} does not fix coefficient {ring.fmt(c)}",
            )
        src = q.path_source(p)
        if src in s and not ring.is_zero(ring.mul(diag[src], c)):
            return None, Witness(
                "kappa-not-annihilated-by-source-lambda",
                f"lambda at {src} does not annihilate coefficient {ring.fmt(c)}",
            )

    form = StandardForm(
        quiver=q,
        ring=ring,
        vertices=s,
        diag=tuple(sorted(diag.items())),
        kappa_terms=tuple(sorted(kappa, key=lambda pc: pc[0].sort_key())),
    )
    # the form's canonical terms, trivial paths by vertex and then the kappa
    # terms, are exactly e's sorted terms (what `reassemble` would rebuild)
    k = len(form.diag)
    assert [(p.vertex, c) for p, c in e.terms[:k]] == list(form.diag)
    assert e.terms[k:] == form.kappa_terms
    return form, None


def is_left_special(e: AlgElem) -> bool:
    form, _ = try_standard_form(e)
    return form is not None


def standard_form(e: AlgElem) -> StandardForm:
    form, witness = try_standard_form(e)
    if form is None:
        raise ClassifyError(f"element is not left special: {witness.detail}")
    return form


def is_left_split(e: AlgElem) -> bool:
    """Split test: the support is right closed and the diagonal coefficients are
    constant on each weak component it meets. Requires a left-special element."""
    form = standard_form(e)
    return _split_of_form(form)[0]


def _split_of_form(form: StandardForm) -> tuple[bool, Optional[Witness]]:
    q, ring, s = form.quiver, form.ring, form.vertices
    for v in sorted(s):
        for eid in q.in_edges[v]:
            if q.edge_source(eid) not in s:
                return False, Witness(
                    "support-not-right-closed", f"edge {eid} enters the support at {v}"
                )
    for comp in q.weak_components():
        met = sorted(comp & s)
        for v, w in zip(met, met[1:]):
            if form.lam(v) != form.lam(w):
                return False, Witness(
                    "lambda-not-constant-on-component",
                    f"{v} has {ring.fmt(form.lam(v))} but {w} has "
                    f"{ring.fmt(form.lam(w))}",
                )
    return True, None


def is_central(e: AlgElem) -> bool:
    """Commutation with every generator, read off the terms of e.

    e commutes with every trivial path e_v exactly when each term is a cycle.
    Then, for an edge a: s -> t, a*e is the sum of c (p then a) over the
    cycles p at s, and e*a the sum of c (a then p) over the cycles p at t;
    distinct p give distinct products and the coefficients are canonical, so
    comparing the two maps of edge sequences is exact."""
    q = e.quiver
    cycles: dict[str, list[tuple[tuple[str, ...], object]]] = {}
    for p, c in e.terms:
        v = q.path_source(p)
        if q.path_target(p) != v:
            return False
        cycles.setdefault(v, []).append((p.edges, c))
    for eid, src, dst in q.edges:
        after = {edges + (eid,): c for edges, c in cycles.get(src, ())}
        before = {(eid,) + edges: c for edges, c in cycles.get(dst, ())}
        if after != before:
            return False
    return True


def strongly_orthogonal(e1: AlgElem, e2: AlgElem) -> bool:
    """Whether e1*A*e2 = 0 = e2*A*e1 for left-special e1, e2.

    Reduced to the diagonal data: e1*A*e2 is nonzero exactly when some path p
    runs from the support of e2 into the support of e1 with
    lambda1(t(p)) * lambda2(s(p)) != 0; directed reachability decides this."""
    return _forms_orthogonal(standard_form(e1), standard_form(e2))


def _forms_orthogonal(f1: StandardForm, f2: StandardForm) -> bool:
    """`strongly_orthogonal` on standard forms; both one-sided tests must agree."""
    left = _one_sided_nonzero(f1, f2)
    right = _one_sided_nonzero(f2, f1)
    if left != right:  # pragma: no cover - contradiction with the symmetry theorem
        raise ClassifyError("one-sided orthogonality tests disagree")
    return not left


def _one_sided_nonzero(f_left: StandardForm, f_right: StandardForm) -> bool:
    """Whether e_left * A * e_right != 0, via the diagonal reduction."""
    q, ring = f_left.quiver, f_left.ring
    for u in sorted(f_right.vertices):
        reach = q.reachable(u)
        for w in sorted(f_left.vertices & reach):
            if not ring.is_zero(ring.mul(f_left.lam(w), f_right.lam(u))):
                return True
    return False


def is_full_family(es: list[AlgElem]) -> bool:
    """Pairwise strong orthogonality plus the vertex-local ideal condition:
    at every vertex v, the diagonal coefficients of the members supported at v
    must generate the unit ideal of the base ring."""
    if not es:
        return False
    forms = [standard_form(e) for e in es]
    q, ring = forms[0].quiver, forms[0].ring
    if not all(_forms_orthogonal(f1, f2) for f1, f2 in combinations(forms, 2)):
        return False
    for v in q.vertices:
        lams = [f.lam(v) for f in forms if v in f.vertices]
        if not lams or not ring.idem_join_is_unit(lams):
            return False
    return True


def enumerate_full_families_trivial_idem(q: Quiver, ring: Ring) -> list[list[AlgElem]]:
    """All full families over a ring with only trivial idempotents: exactly the
    partitions of the vertex set into left-closed parts, as {e_S_i} families."""
    # a field has only 0 and 1; Z/n exactly when n is a prime power
    if not (ring.is_field or _is_prime_power(ring.modulus)):
        raise ClassifyError(
            "full-family enumeration requires a ring with only trivial idempotents"
        )
    closed = [s for s in q.enumerate_left_closed() if s]
    order = list(q.vertices)

    def extend(remaining: frozenset[str], parts: list[frozenset[str]], out):
        if not remaining:
            out.append(list(parts))
            return
        anchor = next(v for v in order if v in remaining)
        for s in closed:
            if anchor in s and s <= remaining:
                parts.append(s)
                extend(remaining - s, parts, out)
                parts.pop()

    partitions: list[list[frozenset[str]]] = []
    extend(frozenset(q.vertices), [], partitions)
    partitions = [sorted(parts, key=sorted) for parts in partitions]
    partitions.sort(key=lambda parts: [sorted(s) for s in parts])
    return [
        [vertex_idempotent(q, ring, s) for s in parts] for parts in partitions
    ]


@dataclass(frozen=True)
class ClassificationReport:
    is_idempotent: bool
    is_left_special: bool
    standard_form: Optional[StandardForm]
    is_left_split: Optional[bool]
    is_central: bool
    witnesses: tuple[Witness, ...]

    def to_json(self) -> dict:
        return {
            "idempotent": self.is_idempotent,
            "special": self.is_left_special,
            "standard_form": self.standard_form.to_json() if self.standard_form else None,
            "split": self.is_left_split,
            "central": self.is_central,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def classify(e: AlgElem) -> ClassificationReport:
    """Every decision on e, with the first failing condition of each.

    Idempotency is read off the standard form where one exists. Write
    e = D + K with D the diagonal and K the kappa part: D² = D as each
    lambda_v is idempotent, DK = K as lambda at each kappa target fixes
    kappa, KD = 0 as lambda at each kappa source in S annihilates kappa, and
    K² = 0 as p_i·p_j needs t(p_j) = s(p_i) in S, where
    kappa_i kappa_j = kappa_i lambda_{s(p_i)} kappa_j = 0. So e² = e, and
    only an element with no standard form pays for the product e·e."""
    witnesses: list[Witness] = []
    form, w = try_standard_form(e)
    special = form is not None
    idem = special or e.is_idempotent()
    if not idem:
        witnesses.append(Witness("not-idempotent", "e*e differs from e"))
    if w is not None:
        witnesses.append(w)
    split: Optional[bool] = None
    if special:
        split, sw = _split_of_form(form)
        if sw is not None:
            witnesses.append(sw)
    return ClassificationReport(
        is_idempotent=idem,
        is_left_special=special,
        standard_form=form,
        is_left_split=split,
        is_central=is_central(e),
        witnesses=tuple(witnesses),
    )
