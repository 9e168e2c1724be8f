"""Case generation and independent answer checks for the three workloads.

A case is one user-facing decision: a zero-argument call into the public API
of `pathidem`, plus the answer that call must give. Expected answers come
from theorems the benchmark evaluates with its own code on the raw edge
lists (left/right closure, reachability), except for the oracle cross-check
of elements with path terms, where the classifier's answer is the reference
the oracle must reproduce.

Library functions are looked up on their modules when a case runs, never
bound at set-up, so the tracer's wrappers see every call.

Inputs depend only on `seed`. Seed 0 reproduces the acceptance pools
(`sweep_quivers` seed 20240824, `random.Random(9)` for the elements with path
terms). Any other seed renames the vertices and edges of every pool quiver by
a seeded permutation, keeping their declared order, and carries every
element over by the same renaming: each seed is an isomorphic copy of the
seed-0 workload, so a pass does the same work on every seed while every
concrete input (names, JSON, sort orders, hashes) changes. Drawing other
`sweep_quivers` pools instead swung the oracle pass from 17 s to 69 s
between seeds, because one quiver with three loops costs 19 s alone.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable

from pathidem.quivers import Path, Quiver
from pathidem.rings import Ring
from pathidem.sweep import sweep_quivers

# the package re-exports a function named classify, so fetch modules by name
algebra, classify, cli, oracle = (
    importlib.import_module(f"pathidem.{m}") for m in ("algebra", "classify", "cli", "oracle")
)

ACCEPTANCE_SEED = 0

F2 = Ring("Fp", 2)
F5 = Ring("Fp", 5)
QQ = Ring("Q")
Z6 = Ring("Zn", 6)
Z6_IDEMPOTENTS = (0, 1, 3, 4)

ORACLE_BUDGET = oracle.OracleBudget(max_total_dim=2)


@dataclass
class Case:
    """`run` makes the decision; `judge` maps its answer to (decision bits,
    answer is correct). Bits feed the default-seed digest."""

    kind: str
    run: Callable[[], object]
    judge: Callable[[object], tuple[str, bool]]


# ---- independent graph predicates on (vertices, edges) ----


def _out(q: Quiver) -> dict[str, list[str]]:
    out = {v: [] for v in q.vertices}
    for _, s, t in q.edges:
        out[s].append(t)
    return out


def left_closed(q: Quiver, s: frozenset) -> bool:
    return all(t in s for _, src, t in q.edges if src in s)


def right_closed(q: Quiver, s: frozenset) -> bool:
    return all(src in s for _, src, t in q.edges if t in s)


def reach(q: Quiver) -> dict[str, set[str]]:
    """Vertices reachable from each vertex by a path of length >= 0."""
    out = _out(q)
    res = {}
    for v in q.vertices:
        seen, stack = {v}, [v]
        while stack:
            for w in out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        res[v] = seen
    return res


def acyclic(q: Quiver) -> bool:
    r, out = reach(q), _out(q)
    return not any(v in r[w] for v in q.vertices for w in out[v])


def subsets(vertices) -> list[frozenset]:
    return [frozenset(c) for k in range(len(vertices) + 1) for c in combinations(vertices, k)]


def left_closed_sets(q: Quiver) -> list[frozenset]:
    return [s for s in subsets(q.vertices) if left_closed(q, s)]


def weak_components(q: Quiver) -> list[set[str]]:
    parent = {v: v for v in q.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for _, s, t in q.edges:
        parent[find(s)] = find(t)
    comps: dict[str, set[str]] = {}
    for v in q.vertices:
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def closed_partitions(q: Quiver) -> set[frozenset]:
    """Partitions of the vertex set into nonempty left-closed parts."""
    closed = [s for s in left_closed_sets(q) if s]
    out: set[frozenset] = set()

    def extend(remaining: frozenset, parts: list):
        if not remaining:
            out.add(frozenset(parts))
            return
        anchor = min(remaining)
        for s in closed:
            if anchor in s and s <= remaining:
                extend(remaining - s, parts + [s])

    extend(frozenset(q.vertices), [])
    return out


# ---- seeded pools ----


class Renamed:
    """A pool quiver and its seeded renaming: vertex and edge names permuted,
    declared order kept. Without an rng the renaming is the identity."""

    def __init__(self, source: Quiver, rng: random.Random | None):
        vnames, enames = list(source.vertices), [eid for eid, _, _ in source.edges]
        if rng is not None:
            vnames = [f"v{i + 1}" for i in range(len(vnames))]
            enames = [f"a{i + 1}" for i in range(len(enames))]
            rng.shuffle(vnames)
            rng.shuffle(enames)
        self.source = source
        self.vmap = dict(zip(source.vertices, vnames))
        self.emap = dict(zip((eid for eid, _, _ in source.edges), enames))
        self.quiver = Quiver(
            tuple(vnames),
            tuple((self.emap[eid], self.vmap[s], self.vmap[t]) for eid, s, t in source.edges),
        )

    def path(self, p: Path) -> Path:
        if p.is_trivial:
            return Path(vertex=self.vmap[p.vertex])
        return Path(edges=tuple(self.emap[a] for a in p.edges))

    def element(self, e):
        """The same element of the path algebra of the renamed quiver."""
        return algebra.AlgElem.make(self.quiver, e.ring, {self.path(p): c for p, c in e.terms})


def pool(max_vertices: int, max_edges: int, count: int, seed: int, tag: str) -> list[Renamed]:
    quivers = sweep_quivers(max_vertices=max_vertices, max_edges=max_edges, count=count)
    rng = None if seed == ACCEPTANCE_SEED else random.Random(f"{tag}-{seed}")
    return [Renamed(q, rng) for q in quivers]


def _bit(x) -> str:
    return "1" if x else "0"


# ---- oracle-sweep ----


def _kappa_elements(q: Quiver, rng: random.Random, want: int, attempts: int):
    """Up to `want` distinct F_2 idempotents on q with at least one path term:
    a random vertex support plus random paths of length 1 or 2."""
    paths = [p for p in q.paths_up_to(2, limit=500) if not p.is_trivial]
    found = []
    if not paths:
        return found
    for _ in range(attempts):
        support = [Path(vertex=v) for v in q.vertices if rng.random() < 0.5]
        kappa = [p for p in paths if rng.random() < 0.3]
        if not kappa:
            continue
        e = algebra.AlgElem.make(q, F2, dict.fromkeys(support + kappa, 1))
        if e not in found and e.is_idempotent():
            found.append(e)
            if len(found) == want:
                break
    return found


def _oracle_case(kind: str, e, q: Quiver, expect_cex: bool) -> Case:
    name = "check_special_by_modules" if kind == "special" else "check_split_by_sequences"

    def run():
        return getattr(oracle, name)(e, q, F2, ORACLE_BUDGET)

    def judge(verdict):
        cex = verdict.is_counterexample
        return _bit(cex), verdict.kind != "exhausted" and cex == expect_cex

    return Case(f"oracle-{kind}", run, judge)


def oracle_sweep(seed: int) -> list[Case]:
    """Acceptance tests 04 and 05, plus the oracles on elements with path
    terms, whose expected answers are the classifier's."""
    renamed = pool(3, 3, 60, seed, "sweep3")
    quivers = [r.quiver for r in renamed]
    cases = []
    for q in quivers:
        for s in subsets(q.vertices):
            e = algebra.vertex_idempotent(q, F2, s)
            cases.append(_oracle_case("special", e, q, not left_closed(q, s)))
    for q in quivers:
        for s in left_closed_sets(q):
            e = algebra.vertex_idempotent(q, F2, s)
            cases.append(_oracle_case("split", e, q, not right_closed(q, s)))
    rng = random.Random(9)
    for r in renamed:
        q = r.quiver
        for e in map(r.element, _kappa_elements(r.source, rng, want=2, attempts=60)):
            special = classify.is_left_special(e)
            cases.append(_oracle_case("special", e, q, not special))
            if special:
                cases.append(_oracle_case("split", e, q, not classify.is_left_split(e)))
    return cases


# ---- classify-sweep ----


def _classify_case(kind: str, e, expect: tuple) -> Case:
    """expect = (idempotent, special, split or None, central)."""

    def run():
        return classify.classify(e)

    def judge(r):
        got = (r.is_idempotent, r.is_left_special, r.is_left_split, r.is_central)
        return "".join(_bit(x) for x in got), got == expect

    return Case(kind, run, judge)


def _diagonal_expectation(q: Quiver, lam: dict, reachable) -> tuple:
    """Classifier answers for sum lam_v e_v over Z/6, from the theorems:
    special iff the support S is left closed and lam_v * lam_w == lam_v along
    every path v -> w in S; split iff also S is right closed and lam is
    constant on each weak component's part of S; central iff lam agrees at
    both ends of every edge."""
    s = frozenset(v for v, c in lam.items() if c)
    special = left_closed(q, s) and all(
        lam[v] * lam[w] % 6 == lam[v] for v in s for w in reachable[v] if w in s
    )
    split = None
    if special:
        split = right_closed(q, s) and all(
            len({lam[v] for v in comp & s}) <= 1 for comp in weak_components(q)
        )
    central = all(lam[src] == lam[t] for _, src, t in q.edges)
    return True, special, split, central


def _random_special(rng: random.Random, renamed: list[Renamed]):
    """A special element over Z/6 built on the source quiver to satisfy the
    standard-form conditions, in the shape of acceptance test 09, then
    renamed. Returns (e, S, lambda)."""
    r = rng.choice(renamed)
    q = r.source
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
            if lam[tgt] * x % 6 == x and (src not in s or lam[src] * x % 6 == 0)
        ]
        if options:
            terms[p] = rng.choice(options)
    e = r.element(algebra.AlgElem.make(q, Z6, terms))
    return e, frozenset(r.vmap[v] for v in s), {r.vmap[v]: c for v, c in lam.items()}


def _standard_form_case(e, s, lam) -> Case:
    def run():
        form, witness = classify.try_standard_form(e)
        return form, witness, e.is_idempotent()

    def judge(answer):
        form, witness, idem = answer
        ok = (
            form is not None
            and witness is None
            and idem
            and form.vertices == s
            and dict(form.diag) == lam
        )
        return _bit(form is not None) + _bit(idem), ok

    return Case("standard-form", run, judge)


def _orthogonality_case(q: Quiver, e1, e2, expect: bool) -> Case:
    degree = len(q.vertices)

    def run():
        return (
            classify.strongly_orthogonal(e1, e2),
            oracle.orthogonality_bruteforce(e1, e2, degree),
            oracle.orthogonality_bruteforce(e2, e1, degree),
        )

    def judge(answer):
        return "".join(_bit(x) for x in answer), answer == (expect, expect, expect)

    return Case("orthogonality", run, judge)


def _enumerate_families_case(q: Quiver, ring: Ring, expect: set) -> Case:
    def run():
        return classify.enumerate_full_families_trivial_idem(q, ring)

    def judge(families):
        got = {frozenset(frozenset(p.vertex for p, _ in e.terms) for e in fam) for fam in families}
        return _bit(got == expect), got == expect and len(got) == len(families)

    return Case("enumerate-families", run, judge)


def _family_case(kind: str, family, degree: int, expect_full: bool, pairs=()) -> Case:
    """is_full_family and the truncated-ideal brute force on one family, plus
    brute-force orthogonality on the given ordered pairs."""

    def run():
        return (
            classify.is_full_family(family),
            oracle.fullness_bruteforce(family, degree),
            tuple(oracle.orthogonality_bruteforce(a, b, 2) for a, b in pairs),
        )

    def judge(answer):
        full, brute, orth = answer
        bits = _bit(full) + _bit(brute) + "".join(_bit(x) for x in orth)
        return bits, full == brute == expect_full and all(orth)

    return Case(kind, run, judge)


def classify_sweep(seed: int) -> list[Case]:
    """Direct decisions, each checked against a theorem."""
    cases = []
    renamed_big = pool(4, 4, 200, seed, "sweep4")
    big = [r.quiver for r in renamed_big]
    small = [r.quiver for r in pool(3, 3, 40, seed, "sweep3-40")]

    # classify(e_S) over F_5 and Q: special iff S left closed, split iff right closed
    for q in big:
        for ring in (F5, QQ):
            for s in subsets(q.vertices):
                special = left_closed(q, s)
                split = right_closed(q, s) if special else None
                central = left_closed(q, s) and right_closed(q, s)
                e = algebra.vertex_idempotent(q, ring, s)
                cases.append(_classify_case("classify-vertex", e, (True, special, split, central)))

    # every diagonal Z/6 idempotent: central implies special and split
    for q in big:
        r = reach(q)
        for assignment in product(Z6_IDEMPOTENTS, repeat=len(q.vertices)):
            lam = dict(zip(q.vertices, assignment))
            e = algebra.AlgElem.make(q, Z6, {Path(vertex=v): c for v, c in lam.items()})
            cases.append(_classify_case("classify-z6", e, _diagonal_expectation(q, lam, r)))

    # standard forms with path terms over Z/6
    rng = random.Random(9)
    for _ in range(1000):
        cases.append(_standard_form_case(*_random_special(rng, renamed_big[:60])))

    # structural orthogonality against both brute-force one-sided products
    for q in small:
        r = reach(q)
        closed = left_closed_sets(q)
        specials = [algebra.vertex_idempotent(q, F2, s) for s in closed]
        for s1, e1 in zip(closed, specials):
            for s2, e2 in zip(closed, specials):
                touch = any(w in s1 for u in s2 for w in r[u]) or any(
                    w in s2 for u in s1 for w in r[u]
                )
                cases.append(_orthogonality_case(q, e1, e2, not touch))

    # full families over rings with trivial idempotents: left-closed partitions
    for q in small:
        parts = closed_partitions(q)
        for ring in (F2, QQ):
            cases.append(_enumerate_families_case(q, ring, parts))
            for partition in sorted(parts, key=lambda p: sorted(sorted(s) for s in p)):
                family = [
                    algebra.vertex_idempotent(q, ring, s) for s in sorted(partition, key=sorted)
                ]
                cases.append(_family_case("full-family", family, 1, True))

    # scaled {3e_S, 4e_S} over Z/6: full exactly when S is every vertex
    for q in small:
        for s in left_closed_sets(q):
            if not s:
                continue
            e = algebra.vertex_idempotent(q, Z6, s)
            e3, e4 = e.scale(3), e.scale(4)
            full = s == frozenset(q.vertices)
            cases.append(_family_case("scaled-family", [e3, e4], 0, full, ((e3, e4), (e4, e3))))
    return cases


# ---- morita-cli ----


def _quiver_json(q: Quiver) -> str:
    edges = [{"id": i, "src": s, "dst": t} for i, s, t in q.edges]
    return json.dumps({"vertices": list(q.vertices), "edges": edges})


def _vertex_element_json(s) -> str:
    return json.dumps({"terms": [{"path": {"trivial": v}, "coeff": "1"} for v in sorted(s)]})


def _cli_case(argv: list[str]) -> Case:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def judge(answer):
        code, text = answer
        if code != 0:
            return "0", False
        result = json.loads(text)["result"]
        return _bit(result["all_bijective"]), result["all_bijective"] is True

    return Case("morita-check", run, judge)


def morita_cli(seed: int) -> list[Case]:
    """`pathidem morita-check` in process, on every acyclic pool quiver over
    F_2 and F_3 and every nonempty left-closed S."""
    cases = []
    for q in (r.quiver for r in pool(3, 3, 60, seed, "sweep3")):
        if not acyclic(q):
            continue
        for ring in ("F2", "F3"):
            for s in left_closed_sets(q):
                if s:
                    argv = [
                        "morita-check",
                        "--quiver", _quiver_json(q),
                        "--ring", ring,
                        "--element", _vertex_element_json(s),
                        "--max-dim", "2",
                    ]
                    cases.append(_cli_case(argv))
    return cases


WORKLOADS = {
    "oracle-sweep": oracle_sweep,
    "classify-sweep": classify_sweep,
    "morita-cli": morita_cli,
}
