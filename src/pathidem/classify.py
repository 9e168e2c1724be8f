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
from .quivers import Path, Quiver, QuiverError
from .rings import Ring, _is_prime_power


class ClassifyError(ValueError):
    pass


# the most weak components that `full_family_partitions` takes
_MAX_FAMILY_COMPONENTS = 10


@dataclass(frozen=True)
class StandardForm:
    """Certified decomposition of a left-special element."""

    quiver: Quiver
    ring: Ring
    vertices: frozenset[str]                       # the left-closed support S
    diag: tuple[tuple[str, object], ...]           # (v, lambda_v), sorted by vertex
    kappa_terms: tuple[tuple[Path, object], ...]   # non-trivial (p_i, kappa_i)

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
    read off as S, with no search. Returns (form, None) or (None, witness).

    An `AlgElem` is built only by `make`, `_reduced` and `zero`, and all
    three sort its terms by `Path.sort_key`: the trivial paths first, by
    vertex, then the rest. So e's trivial terms are the diagonal in vertex
    order, its other terms the kappa terms in canonical order, and every
    check below walks them as they stand.

    Once the diagonal passes (S left closed, every lambda_v idempotent and
    lambda monotone along each edge), the three kappa checks hold exactly
    when e² = e (README "What it decides", part (a)): the kappa pass is an
    idempotency test, and a kappa witness marks an element that is not
    idempotent."""
    q, ring = e.quiver, e.ring
    diag = tuple((p.vertex, c) for p, c in e.terms if p.is_trivial)
    kappa = e.terms[len(diag) :]
    lam = dict(diag)

    for v, _ in diag:
        for eid in q.out_edges[v]:
            if q.edge_target(eid) not in lam:
                return None, Witness(
                    "support-not-left-closed", f"edge {eid} leaves the support at {v}"
                )

    for v, c in diag:
        if not ring.is_idempotent(c):
            return None, Witness(
                "lambda-not-idempotent", f"coefficient {ring.fmt(c)} at {v}"
            )

    # lambda_v must generate a smaller ideal than lambda_w along any path
    # v -> w; for idempotents (the loop above has checked them) that is
    # lambda_v * lambda_w == lambda_v. The order a <= b (ab = a) is
    # transitive, so a failing path holds a failing edge, and each edge out
    # of the left-closed S ends in S
    for v, c in diag:
        for eid in q.out_edges[v]:
            w = q.edge_target(eid)
            if ring.mul(c, lam[w]) != c:
                return None, Witness(
                    "lambda-not-monotone-along-paths",
                    f"edge {eid} runs {v} -> {w} but ({ring.fmt(c)}) is "
                    f"not inside ({ring.fmt(lam[w])})",
                )

    for p, c in kappa:
        t = q.path_target(p)
        if t not in lam:
            return None, Witness(
                "kappa-target-outside-support",
                f"path term {p.to_json()} ends at {t} outside S",
            )
        if ring.mul(lam[t], c) != c:
            return None, Witness(
                "kappa-not-fixed-by-target-lambda",
                f"lambda at {t} does not fix coefficient {ring.fmt(c)}",
            )
        src = q.path_source(p)
        if src in lam and not ring.is_zero(ring.mul(lam[src], c)):
            return None, Witness(
                "kappa-not-annihilated-by-source-lambda",
                f"lambda at {src} does not annihilate coefficient {ring.fmt(c)}",
            )

    return StandardForm(q, ring, frozenset(lam), diag, kappa), None


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
    return _split_of_form(standard_form(e))[0]


def _split_of_form(form: StandardForm) -> tuple[bool, Optional[Witness]]:
    q, ring, s, lam = form.quiver, form.ring, form.vertices, dict(form.diag)
    for v, _ in form.diag:
        for eid in q.in_edges[v]:
            if q.edge_source(eid) not in s:
                return False, Witness(
                    "support-not-right-closed", f"edge {eid} enters the support at {v}"
                )
    # S is now closed on both sides, so each weak component that meets S lies
    # inside S, and lambda is constant on it when it agrees across each edge
    for v, c in form.diag:
        for eid in q.in_edges[v]:
            u = q.edge_source(eid)
            if lam[u] != c:
                return False, Witness(
                    "lambda-not-constant-on-component",
                    f"edge {eid} runs {u} -> {v} but {u} has {ring.fmt(lam[u])} "
                    f"and {v} has {ring.fmt(c)}",
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

    e1*A*e2 is nonzero exactly when some path u -> w with u in S2, w in S1
    has lambda1(w) * lambda2(u) != 0. Then w is in S2 (S2 is left closed)
    and lambda2(u) = lambda2(u) * lambda2(w), so lambda1(w) * lambda2(w) != 0
    and the trivial path e_w is such a path. So both sides vanish exactly
    when lambda1(w) * lambda2(w) = 0 at every w in S1 ∩ S2. AlgebraError
    when e1 and e2 live over different quivers or rings."""
    e1._check_compatible(e2)
    lam1, lam2 = dict(standard_form(e1).diag), dict(standard_form(e2).diag)
    return all(e1.ring.is_zero(e1.ring.mul(lam1[w], lam2[w])) for w in lam1.keys() & lam2)


def is_full_family(es: list[AlgElem]) -> bool:
    """Pairwise strong orthogonality plus the ideal condition, one vertex at a
    time: at every v, the diagonal coefficients of the members supported at
    v must be pairwise orthogonal (`strongly_orthogonal` at v) and generate
    the unit ideal of the base ring. AlgebraError when the members live
    over different quivers or rings."""
    if not es:
        return False
    for e in es[1:]:
        es[0]._check_compatible(e)
    forms = [standard_form(e) for e in es]
    ring, lams = forms[0].ring, [dict(f.diag) for f in forms]
    for v in forms[0].quiver.vertices:
        at_v = [lam[v] for lam in lams if v in lam]
        if not at_v or not ring.idem_join_is_unit(at_v):
            return False
        if not all(ring.is_zero(ring.mul(a, b)) for a, b in combinations(at_v, 2)):
            return False
    return True


def enumerate_full_families_trivial_idem(q: Quiver, ring: Ring) -> list[list[AlgElem]]:
    """All full families over a ring with only trivial idempotents: exactly the
    partitions of the vertex set into left-closed parts, as {e_S_i} families,
    in the order of `full_family_partitions`."""
    return [
        [vertex_idempotent(q, ring, part) for part in parts]
        for parts in full_family_partitions(q, ring)
    ]


def full_family_partitions(q: Quiver, ring: Ring) -> list[list[tuple[str, ...]]]:
    """The vertex sets of the full families over a ring with only trivial
    idempotents: each part a sorted tuple of vertices, the parts of a
    partition sorted, and the partitions sorted. A part's complement is a
    union of parts, so left closed too, and no edge joins two parts: the
    parts are the blocks of a set partition of the weak components, merged.
    That is Bell(10) = 115,975 partitions at the bound."""
    # a field has only 0 and 1; Z/n exactly when n is a prime power
    if not (ring.is_field or _is_prime_power(ring.modulus)):
        raise ClassifyError(
            "full-family enumeration requires a ring with only trivial idempotents"
        )
    comps = q.weak_components()
    if len(comps) > _MAX_FAMILY_COMPONENTS:
        raise QuiverError(
            f"quiver has {len(comps)} weak components, above the family"
            f" enumeration bound {_MAX_FAMILY_COMPONENTS}"
        )
    # a part is a bit mask over the components, named by one shared tuple
    partitions: list[list[int]] = [[]]
    for k in range(len(comps)):
        bit = 1 << k
        partitions = [
            parts[:i] + [parts[i] | bit] + parts[i + 1 :]
            for parts in partitions
            for i in range(len(parts))
        ] + [parts + [bit] for parts in partitions]
    names = [
        tuple(sorted(v for k, comp in enumerate(comps) if mask >> k & 1 for v in comp))
        for mask in range(1 << len(comps))
    ]
    return sorted(sorted(names[mask] for mask in parts) for parts in partitions)


def _idempotent_without_form(e: AlgElem, witness: Witness) -> bool:
    """e² == e for an element with no standard form, read off the stage at
    which `try_standard_form` stopped; `classify` has the proofs. A kappa
    witness, or a lambda_v with lambda_v² != lambda_v, means e² != e. Past
    the lambda check every lambda_v is idempotent: an element with no path
    term is idempotent, and one with a path term pays for e·e. Only a
    support that is not left closed leaves the lambda_v to check here."""
    stage = witness.condition
    if stage.startswith("kappa") or stage == "lambda-not-idempotent":
        return False
    ring = e.ring
    if stage == "support-not-left-closed" and not all(
        ring.is_idempotent(c) for p, c in e.terms if p.is_trivial
    ):
        return False
    # trivial paths sort first, so the last term is a path term if any is
    return e.terms[-1][0].is_trivial or e.is_idempotent()


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
    kappa_i kappa_j = kappa_i lambda_{s(p_i)} kappa_j = 0. So e² = e.

    With no form, the stage at which `try_standard_form` stopped decides
    what it can. The path algebra is graded by path length, so the trivial
    part of e² is D² = sum lambda_v² e_v: a lambda_v with lambda_v² !=
    lambda_v means e² != e, and an element with no path term (K = 0) is
    idempotent exactly when every lambda_v is. A kappa witness means the
    diagonal passed and a kappa check failed, so e² != e by part (a) of
    README "What it decides": in each local factor of the ring lambda is
    0 or 1, and e² = e forces, by induction on path length, kappa_p = 0 on
    every path p that starts where lambda is 1 or ends where it is 0, which
    is what the kappa checks ask. So only an element with path terms,
    idempotent lambda and a support that is not left closed or a lambda
    that is not monotone pays for e·e.

    Centrality is the split answer where a form exists. If e is split, a
    kappa term on a path p ends in S, so p lies in S (S is right closed)
    inside one weak component, where lambda is constant: kappa =
    lambda_t kappa = lambda_s kappa = 0. So e is diagonal, and it is
    central exactly when lambda (0 off S) agrees at both ends of every
    edge, which is what split says of (S, lambda). If e is special but not
    split, either it has a kappa term, which is never a cycle (at a cycle
    lambda_t = lambda_s would fix and annihilate kappa), or some edge joins
    vertices of unequal lambda; either way e is not central.

    An idempotent with no form is not central either. In a central e every
    term is a cycle, and for an edge a: u -> v the length-one terms of a·e
    and e·a are lambda_u a and lambda_v a, so lambda (0 off S) is equal at
    both ends of every edge. Then S is left closed and, e being idempotent,
    lambda is idempotent and monotone, so e has a form by part (a). So
    `is_central` runs only on elements that are not idempotent, where
    centrality implies nothing: over Z/6, 2·(e_a + e_b) on a -> b is
    central and not special."""
    witnesses: list[Witness] = []
    form, w = try_standard_form(e)
    special = form is not None
    idem = special or _idempotent_without_form(e, w)
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
        is_central=split if special else (not idem and is_central(e)),
        witnesses=tuple(witnesses),
    )
