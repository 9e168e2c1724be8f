"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single pass/fail line,
and enforces the stated runtime bound where one exists.
"""

import random
import time
from itertools import product

import pytest

from pathidem.algebra import AlgElem, vertex_idempotent
from pathidem.classify import (
    classify,
    enumerate_full_families_trivial_idem,
    is_central,
    is_full_family,
    is_left_special,
    is_left_split,
    try_standard_form,
)
from pathidem.oracle import (
    OracleBudget,
    check_special_by_modules,
    check_split_by_sequences,
    enumerate_reps,
    fullness_bruteforce,
    orthogonality_bruteforce,
)
from pathidem.quivers import Path
from pathidem.reps import corner_algebra, corner_module, in_category_e, morita_surrogate_check
from pathidem.rings import Ring
from pathidem.sweep import q_a3, q_arrow, sweep_quivers

from reference import idempotents, left_closed, reassemble, right_closed, subsets

F2 = Ring("Fp", 2)
F3 = Ring("Fp", 3)
F5 = Ring("Fp", 5)
Z6 = Ring("Zn", 6)


def _report(label, started, limit=None):
    elapsed = time.monotonic() - started
    print(f"PASS {label} ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"{label}: {elapsed:.2f}s exceeded {limit}s"


def test_01_arrow_sink_vertex_is_special_not_split():
    started = time.monotonic()
    report = classify(vertex_idempotent(q_arrow(), F5, {"v2"}))
    assert report.is_idempotent
    assert report.is_left_special is True
    assert report.is_left_split is False
    _report("1: arrow sink vertex classifies special=true split=false", started, 1.0)


def test_02_special_iff_left_closed_sweep():
    started = time.monotonic()
    quivers = sweep_quivers(max_vertices=4, max_edges=4, count=200)
    assert len(quivers) >= 200
    checked = 0
    for q in quivers:
        for s in subsets(q.vertices):
            assert is_left_special(vertex_idempotent(q, F5, s)) == left_closed(q, s)
            checked += 1
    _report(
        f"2: special(e_S) iff left-closed(S) on {checked} subset cases", started, 60.0
    )


def test_03_split_iff_right_closed_sweep():
    started = time.monotonic()
    quivers = sweep_quivers(max_vertices=4, max_edges=4, count=200)
    checked = 0
    for q in quivers:
        for s in q.enumerate_left_closed():
            e = vertex_idempotent(q, F5, s)
            assert is_left_split(e) == right_closed(q, s)
            checked += 1
    _report(
        f"3: split(e_S) iff right-closed(S) on {checked} left-closed cases", started
    )


def test_04_module_oracle_agrees_on_specialness():
    started = time.monotonic()
    budget = OracleBudget(max_total_dim=2)
    quivers = sweep_quivers(max_vertices=3, max_edges=3, count=60)
    checked = 0
    for q in quivers:
        for s in subsets(q.vertices):
            e = vertex_idempotent(q, F2, s)
            verdict = check_special_by_modules(e, q, F2, budget)
            assert verdict.is_counterexample == (not is_left_special(e))
            checked += 1
    _report(f"4: module oracle agrees on specialness ({checked} cases)", started, 300.0)


def test_05_sequence_oracle_agrees_on_splitness():
    started = time.monotonic()
    budget = OracleBudget(max_total_dim=2)
    quivers = sweep_quivers(max_vertices=3, max_edges=3, count=60)
    checked = 0
    for q in quivers:
        for s in q.enumerate_left_closed():
            e = vertex_idempotent(q, F2, s)
            verdict = check_split_by_sequences(e, q, F2, budget)
            assert verdict.is_counterexample == (not is_left_split(e))
            checked += 1
    _report(f"5: complement oracle agrees on splitness ({checked} cases)", started)


def test_06_nontrivial_ring_idempotent_families():
    started = time.monotonic()
    arrow = q_arrow()
    e3 = vertex_idempotent(arrow, Z6, arrow.vertices).scale(3)
    e4 = vertex_idempotent(arrow, Z6, arrow.vertices).scale(4)
    assert is_full_family([e3, e4])
    assert orthogonality_bruteforce(e3, e4, 2)
    assert orthogonality_bruteforce(e4, e3, 2)
    assert fullness_bruteforce([e3, e4], 0)
    families = enumerate_full_families_trivial_idem(arrow, F5)
    assert families == [[vertex_idempotent(arrow, F5, arrow.vertices)]]
    _report("6: mod-6 family is full; only the unit family exists over F5", started)


def test_07_corner_restriction_is_bijective():
    started = time.monotonic()
    budget = OracleBudget(max_total_dim=3)
    pairs_checked = 0
    for q in (q_arrow(), q_a3()):
        for ring in (F2, F3):
            for s in q.enumerate_left_closed():
                if not s:
                    continue
                e = vertex_idempotent(q, ring, s)
                reps = [
                    m for m in enumerate_reps(q, ring, budget) if in_category_e(e, m)
                ]
                corner = corner_algebra(e)
                corners = [corner_module(e, m, corner) for m in reps]
                for m, cm in zip(reps, corners):
                    for n, cn in zip(reps, corners):
                        res = morita_surrogate_check(m, n, cm, cn)
                        assert res["bijective"], (q, ring, sorted(s), m, n, res)
                        pairs_checked += 1
    _report(
        f"7: hom restriction to eM bijective on {pairs_checked} pairs", started
    )


def test_08_central_implies_special_and_split():
    started = time.monotonic()
    idems = idempotents(Z6)
    checked = 0
    for q in sweep_quivers(max_vertices=4, max_edges=4, count=200):
        for assignment in product(idems, repeat=len(q.vertices)):
            e = AlgElem.make(
                q,
                Z6,
                {Path(vertex=v): c for v, c in zip(q.vertices, assignment)},
            )
            if not is_central(e):
                continue
            report = classify(e)
            assert report.is_left_special is True
            assert report.is_left_split is True
            checked += 1
    _report(f"8: every diagonal central idempotent splits ({checked} cases)", started)


def _random_special(rng, quivers):
    """A random certified-by-construction special element over Z/6."""
    q = rng.choice(quivers)
    closed = q.enumerate_left_closed()
    s = rng.choice(closed)
    c = rng.choice([3, 4])
    seed = {v for v in s if rng.random() < 0.5}
    t = set()
    for v in seed:
        t |= q.reachable(v) & s
    lam = {v: (1 if v in t else c) for v in s}
    terms = {Path(vertex=v): lam[v] for v in s}
    for p in q.paths_up_to(2, limit=500):
        if p.is_trivial or rng.random() < 0.6:
            continue
        tgt = q.path_target(p)
        if tgt not in s:
            continue
        src = q.path_source(p)
        options = [
            x
            for x in range(1, 6)
            if lam[tgt] * x % 6 == x
            and (src not in s or lam[src] * x % 6 == 0)
        ]
        if options:
            terms[p] = rng.choice(options)
    return AlgElem.make(q, Z6, terms)


def _independent_square(e):
    """Recompute e*e by direct path concatenation, bypassing the library
    multiplication."""
    from pathidem.quivers import concat

    acc = {}
    for p, cp in e.terms:
        for r, cr in e.terms:
            pr = concat(e.quiver, p, r)
            if pr is None:
                continue
            acc[pr] = (acc.get(pr, 0) + cp * cr) % 6
    return {p: c for p, c in acc.items() if c != 0}


def test_09_standard_form_round_trip_and_idempotency():
    started = time.monotonic()
    rng = random.Random(9)
    quivers = sweep_quivers(max_vertices=4, max_edges=4, count=60)
    for _ in range(1000):
        e = _random_special(rng, quivers)
        form, witness = try_standard_form(e)
        assert witness is None, (e, witness)
        assert reassemble(form) == e
    rejected = 0
    while rejected < 1000:
        q = rng.choice(quivers)
        paths = q.paths_up_to(2, limit=500)
        terms = {
            rng.choice(paths): rng.randrange(1, 6)
            for _ in range(rng.randrange(1, 4))
        }
        e = AlgElem.make(q, Z6, terms)
        square = _independent_square(e)
        if square == dict(e.terms):
            continue  # genuinely idempotent; not a test subject
        assert e.is_idempotent() is False
        rejected += 1
    _report(
        "9: 1000 generated special elements round-trip; 1000 non-idempotents "
        "detected",
        started,
    )


def test_10_orthogonality_is_symmetric():
    started = time.monotonic()
    checked = 0
    for q in sweep_quivers(max_vertices=3, max_edges=3, count=40):
        specials = [
            vertex_idempotent(q, F2, s) for s in q.enumerate_left_closed()
        ]
        degree = len(q.vertices)
        for e1 in specials:
            for e2 in specials:
                assert orthogonality_bruteforce(
                    e1, e2, degree
                ) == orthogonality_bruteforce(e2, e1, degree)
                checked += 1
    arrow = q_arrow()
    e3 = vertex_idempotent(arrow, Z6, arrow.vertices).scale(3)
    e4 = vertex_idempotent(arrow, Z6, arrow.vertices).scale(4)
    assert orthogonality_bruteforce(e3, e4, 2) == orthogonality_bruteforce(e4, e3, 2)
    _report(f"10: one-sided orthogonality tests agree ({checked + 1} pairs)", started)


def test_11_oracles_reach_f3_at_dimension_two():
    # the bodies of tests 04 and 05 over F_3, each oracle inside 60 s with
    # no case over the representation cap (BudgetExceeded fails the test)
    budget = OracleBudget(max_total_dim=2)
    quivers = sweep_quivers(max_vertices=3, max_edges=3, count=60)
    started, checked = time.monotonic(), 0
    for q in quivers:
        for s in subsets(q.vertices):
            verdict = check_special_by_modules(vertex_idempotent(q, F3, s), q, F3, budget)
            assert verdict.is_counterexample == (not left_closed(q, s))
            checked += 1
    _report(f"11: module oracle over F3 agrees ({checked} cases)", started, 60.0)
    started, checked = time.monotonic(), 0
    for q in quivers:
        for s in q.enumerate_left_closed():
            verdict = check_split_by_sequences(vertex_idempotent(q, F3, s), q, F3, budget)
            assert verdict.is_counterexample == (not right_closed(q, s))
            checked += 1
    _report(f"11: complement oracle over F3 agrees ({checked} cases)", started, 60.0)
