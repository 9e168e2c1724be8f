import random
import time
import tracemalloc
from itertools import product

import pytest

from pathidem import oracle
from pathidem.algebra import AlgElem, edge_element, path_element, vertex_idempotent
from pathidem.classify import classify, is_left_special, is_left_split, strongly_orthogonal
from pathidem.linalg import FieldRowSpace
from pathidem.oracle import (
    BudgetExceeded,
    OracleBudget,
    OracleError,
    Verdict,
    check_special_by_modules,
    check_split_by_sequences,
    enumerate_reps,
    enumerate_submodules,
    fullness_bruteforce,
    orthogonality_bruteforce,
)
from pathidem.quivers import Path, Quiver
from pathidem.reps import (
    Representation,
    _generated,
    gamma,
    in_category_e,
    submodule_from_local,
)
from pathidem.rings import Ring
from pathidem.sweep import q_a3, q_arrow, q_isolated, sweep_quivers

from conftest import conjugate, full_reps
from reference import block, e_fixed, is_edge_closed, sub_representation


class TestEnumeration:
    def test_rep_counts(self, arrow, f2):
        # dim vectors with total <= 2; only (1, 1) carries a nontrivial edge
        # matrix, contributing two choices over the two field elements
        reps = list(enumerate_reps(arrow, f2, OracleBudget(max_total_dim=2)))
        assert len(reps) == 7
        dims = [(m.dims["v1"], m.dims["v2"]) for m in reps]
        # deterministic order: total dimension, then vector lexicographically
        assert dims == sorted(dims, key=lambda d: (sum(d), d))

    def test_rep_enumeration_rejects_non_prime_field(self, arrow, z6):
        with pytest.raises(OracleError):
            next(enumerate_reps(arrow, z6))

    def test_budget_exhaustion(self, arrow, f2):
        # (0,0), (0,1), (1,0), (0,2) and the rank-0 form at (1,1) are the
        # five reps yielded; the rank-1 form at (1,1) would be the sixth
        with pytest.raises(BudgetExceeded) as info:
            list(enumerate_reps(arrow, f2, OracleBudget(max_total_dim=2, max_reps=5)))
        assert str(info.value) == "representation cap 5 exceeded"
        assert info.value.reps_checked == 5
        assert info.value.dims == {"v1": 1, "v2": 1}

    def test_budget_exceeded_from_a_message(self):
        exc = BudgetExceeded("representation cap 3 exceeded")
        assert str(exc) == "representation cap 3 exceeded"
        assert exc.reps_checked is None and exc.dims is None

    def test_submodule_counts(self, arrow, f2):
        # M = (K, K, a=1): submodules are 0, the v2 line, and M itself
        m = Representation(arrow, f2, {"v1": 1, "v2": 1}, {"a": ((1,),)})
        subs = enumerate_submodules(m)
        assert len(subs) == 3
        assert sorted(s.total_dim for s in subs) == [0, 1, 2]

    @pytest.mark.parametrize(
        "p, galois",
        [(2, (1, 2, 5, 16)), (3, (1, 2, 6, 28)), (5, (1, 2, 8))],
        ids=["F2", "F3", "F5"],
    )
    def test_submodule_counts_one_vertex(self, p, galois):
        # every subspace of K^d is a submodule; their number is the Galois number
        q, ring = q_isolated(1), Ring("Fp", p)
        for d, expected in enumerate(galois):
            subs = enumerate_submodules(Representation(q, ring, {"v1": d}, {}))
            assert len(subs) == expected
            dims = [s.total_dim for s in subs]
            assert dims == sorted(dims)

    def test_submodule_counts_zero_edge(self, arrow, f2):
        m = Representation(arrow, f2, {"v1": 1, "v2": 1}, {})
        assert len(enumerate_submodules(m)) == 4

    def test_no_field_elements_held_without_a_free_entry(self, arrow):
        # no dimension vector up to total 0 has an entry to run over F_p, so
        # the residues of a large field are never built
        ring = Ring("Fp", 4_000_037)
        tracemalloc.start()
        try:
            reps = list(enumerate_reps(arrow, ring, OracleBudget(max_total_dim=0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [m.to_json() for m in reps] == [
            {"dims": {"v1": 0, "v2": 0}, "edges": {"a": []}}
        ]
        assert peak < 1 << 20

    def test_dim_vectors_in_lexicographic_order(self):
        # enumerate_reps takes them as they come, unsorted
        for n in range(6):
            for t in range(6):
                want = sorted(v for v in product(range(t + 1), repeat=n) if sum(v) == t)
                assert list(oracle._dim_vectors(n, t)) == want
        # lazily, and without recursion on a long vector
        assert next(oracle._dim_vectors(1200, 1)) == (0,) * 1199 + (1,)

    def test_bad_budget(self):
        with pytest.raises(OracleError):
            OracleBudget(max_total_dim=-1)


class TestSpecialOracle:
    def test_counterexample_for_source_vertex(self, arrow, f2):
        e = vertex_idempotent(arrow, f2, {"v1"})
        verdict = check_special_by_modules(e, arrow, f2, OracleBudget(max_total_dim=2))
        assert verdict.is_counterexample
        # the witness is M = (K, K, a=1) with the v2 line as submodule
        assert verdict.module.dims == {"v1": 1, "v2": 1}
        assert verdict.module.edge_maps["a"] == ((1,),)
        assert verdict.submodule.dims == {"v1": 0, "v2": 1}

    def test_consistent_for_sink_vertex(self, arrow, f2):
        e = vertex_idempotent(arrow, f2, {"v2"})
        verdict = check_special_by_modules(e, arrow, f2, OracleBudget(max_total_dim=2))
        assert verdict.kind == "consistent"
        assert verdict.reps_checked == 7

    def test_requires_idempotent(self, arrow, f2):
        # a single edge squares to zero, not to itself
        with pytest.raises(OracleError):
            check_special_by_modules(edge_element(arrow, f2, "a"), arrow, f2)
        with pytest.raises(OracleError):
            check_split_by_sequences(edge_element(arrow, f2, "a"), arrow, f2)

    def test_refuses_a_foreign_element(self, arrow, a3, f2, f3):
        for e in (vertex_idempotent(a3, f2, {"v1"}), vertex_idempotent(arrow, f3, {"v1"})):
            with pytest.raises(OracleError, match="another quiver or ring"):
                check_special_by_modules(e, arrow, f2)


class TestSplitOracle:
    def test_counterexample_for_sink_vertex(self, arrow, f2):
        # e_v2 is special but not split: in M = (K, K, a=1) the generated
        # submodule is the v2 line and its only graded complement (the v1
        # line) is not edge-closed
        e = vertex_idempotent(arrow, f2, {"v2"})
        verdict = check_split_by_sequences(e, arrow, f2, OracleBudget(max_total_dim=2))
        assert verdict.is_counterexample
        assert verdict.module.edge_maps["a"] == ((1,),)
        assert verdict.submodule.dims == {"v1": 0, "v2": 1}

    def test_consistent_for_unit(self, arrow, f2):
        e = vertex_idempotent(arrow, f2, arrow.vertices)
        verdict = check_split_by_sequences(e, arrow, f2, OracleBudget(max_total_dim=2))
        assert verdict.kind == "consistent"

    def test_refuses_a_foreign_element(self, arrow, a3, f2, f3):
        for e in (vertex_idempotent(a3, f2, {"v1"}), vertex_idempotent(arrow, f3, {"v1"})):
            with pytest.raises(OracleError, match="another quiver or ring"):
                check_split_by_sequences(e, arrow, f2)


class TestBruteForce:
    def test_orthogonality(self, arrow, z6):
        e1 = vertex_idempotent(arrow, z6, arrow.vertices).scale(3)
        e2 = vertex_idempotent(arrow, z6, arrow.vertices).scale(4)
        assert orthogonality_bruteforce(e1, e2, 2)
        assert orthogonality_bruteforce(e2, e1, 2)

    def test_orthogonality_rejects_negative_degree(self, arrow, f5):
        e = vertex_idempotent(arrow, f5, {"v2"})
        with pytest.raises(OracleError):
            orthogonality_bruteforce(e, e, -1)

    def test_orthogonality_failure(self, arrow, f5):
        e1 = vertex_idempotent(arrow, f5, {"v2"})
        e2 = vertex_idempotent(arrow, f5, arrow.vertices)
        assert not orthogonality_bruteforce(e1, e2, 1)

    def test_fullness(self, arrow, z6, f5):
        fam = [
            vertex_idempotent(arrow, z6, arrow.vertices).scale(3),
            vertex_idempotent(arrow, z6, arrow.vertices).scale(4),
        ]
        assert fullness_bruteforce(fam, 0)
        assert not fullness_bruteforce(fam[:1], 1)
        assert fullness_bruteforce([vertex_idempotent(arrow, f5, arrow.vertices)], 0)
        assert not fullness_bruteforce([], 0)


class TestAgreement:
    """The structural decision procedures agree with exhaustive module search
    on every vertex idempotent of a pool of small quivers."""

    QUIVERS = sweep_quivers(max_vertices=2, max_edges=2, count=8)

    @pytest.mark.parametrize("q", QUIVERS)
    def test_special_agreement(self, q, f2):
        budget = OracleBudget(max_total_dim=2)
        for s in _subsets(q.vertices):
            e = vertex_idempotent(q, f2, s)
            verdict = check_special_by_modules(e, q, f2, budget)
            assert verdict.is_counterexample == (not is_left_special(e))

    @pytest.mark.parametrize("q", QUIVERS)
    def test_split_agreement(self, q, f2):
        budget = OracleBudget(max_total_dim=2)
        for s in _subsets(q.vertices):
            e = vertex_idempotent(q, f2, s)
            if not is_left_special(e):
                continue
            verdict = check_split_by_sequences(e, q, f2, budget)
            assert verdict.is_counterexample == (not is_left_split(e))

    @pytest.mark.parametrize("q", QUIVERS)
    def test_orthogonality_agreement(self, q, f2):
        specials = [
            vertex_idempotent(q, f2, s)
            for s in _subsets(q.vertices)
            if q.is_left_closed(s)
        ]
        for e1 in specials:
            for e2 in specials:
                assert strongly_orthogonal(e1, e2) == orthogonality_bruteforce(
                    e1, e2, len(q.vertices)
                )


class TestAgainstReference:
    """The oracles against the direct transcription of the definitions: each
    submodule rebuilt as a representation and tested on its own, and the
    complements found by filtering every submodule by dimension vector."""

    BUDGET = OracleBudget(max_total_dim=2)
    CASES = [
        (q, Ring("Fp", p)) for q in TestAgreement.QUIVERS for p in (2, 3)
    ]
    IDS = [f"q{i // 2}-F{r.modulus}" for i, (q, r) in enumerate(CASES)]

    @staticmethod
    def _reference_gamma(e, m):
        # the closure seeded from the echelon basis of e*M, the column space
        # of e's global action matrix
        fixed = e_fixed(e, m)
        seed = {v: [block(m, w, v) for w in fixed] for v in m.quiver.vertices}
        return submodule_from_local(m, seed, close=True)

    @classmethod
    def _reference_in_category(cls, e, m):
        return cls._reference_gamma(e, m).dims == m.dims

    @staticmethod
    def _reference_submodules(m):
        # every product of per-vertex subspaces, kept when edge-closed
        verts = m.quiver.vertices
        per_vertex = [oracle._enumerate_subspaces(m.ring, m.dims[v]) for v in verts]
        for choice in product(*per_vertex):
            sub = submodule_from_local(m, dict(zip(verts, choice)), close=False)
            if is_edge_closed(sub):
                yield sub

    @classmethod
    def _reference_special(cls, e, q, ring, budget):
        checked = 0
        for m in enumerate_reps(q, ring, budget):
            checked += 1
            if not cls._reference_in_category(e, m):
                continue
            for sub in cls._reference_submodules(m):
                if not cls._reference_in_category(e, sub_representation(sub)[0]):
                    return Verdict("counterexample", checked, module=m, submodule=sub)
        return Verdict("consistent", checked)

    @classmethod
    def _reference_complements(cls, m, g):
        for c in cls._reference_submodules(m):
            if any(c.dims[v] + g.dims[v] != m.dims[v] for v in m.quiver.vertices):
                continue
            if all(
                _independent(m.ring, m.dims[v], g.basis(v) + c.basis(v))
                for v in m.quiver.vertices
            ):
                yield c

    @classmethod
    def _reference_split(cls, e, q, ring, budget):
        checked = 0
        for m in enumerate_reps(q, ring, budget):
            checked += 1
            g = cls._reference_gamma(e, m)
            if next(cls._reference_complements(m, g), None) is None:
                return Verdict("counterexample", checked, module=m, submodule=g)
        return Verdict("consistent", checked)

    def _assert_oracles_match(self, e, q, ring):
        for new, ref in [
            (check_special_by_modules, self._reference_special),
            (check_split_by_sequences, self._reference_split),
        ]:
            got, want = new(e, q, ring, self.BUDGET), ref(e, q, ring, self.BUDGET)
            assert got.to_json() == want.to_json()
            assert got.reps_checked == want.reps_checked

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_verdicts_identical(self, q, ring):
        for s in _subsets(q.vertices):
            self._assert_oracles_match(vertex_idempotent(q, ring, s), q, ring)

    # quivers with paths between distinct vertices, of length 1 and 2, some
    # through a loop
    PATH_QUIVERS = [
        q_arrow(),
        q_a3(),
        Quiver(("v1", "v2"), (("a", "v1", "v2"), ("b", "v2", "v1"))),
        Quiver(("v1", "v2"), (("a", "v1", "v2"), ("l", "v2", "v2"))),
        Quiver(("v1", "v2"), (("l", "v1", "v1"), ("a", "v1", "v2"))),
    ]
    PATH_CASES = [(q, Ring("Fp", p)) for q in PATH_QUIVERS for p in (2, 3)]

    @pytest.mark.parametrize(
        "q, ring", PATH_CASES, ids=[f"{q.edges}-{r}" for q, r in PATH_CASES]
    )
    def test_verdicts_identical_with_path_terms(self, q, ring):
        # e_S plus path terms: the off-diagonal action blocks that no e_S has.
        # AeM = Ae_S M for these e, so a block misplaced by the oracle shows
        # here, while a lost one leaves every verdict as it is (that one
        # shows in test_reps' test_action_blocks_match_action_matrix)
        elements = _path_term_idempotents(q, ring, random.Random(f"{q}-{ring}"), 4)
        assert elements
        for e in elements:
            assert e.is_idempotent()
            self._assert_oracles_match(e, q, ring)

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_pruned_submodules_match_product_filter(self, q, ring):
        for m in full_reps(q, ring, self.BUDGET):
            want = [s.bases for s in self._reference_submodules(m)]
            assert [s.bases for s in oracle._submodules(m)] == want
            for ranks in product(*(range(m.dims[v] + 1) for v in q.vertices)):
                ranks = dict(zip(q.vertices, ranks))
                got = [s.bases for s in oracle._submodules(m, ranks)]
                assert got == [b for b in want if _rank_vector(b) == ranks]

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_gamma_matches_e_fixed_closure(self, q, ring):
        elements = [vertex_idempotent(q, ring, s) for s in _subsets(q.vertices)]
        # e_t + a for an edge a: s -> t with s != t has a path term
        for eid, src, dst in q.edges:
            if src != dst:
                e = vertex_idempotent(q, ring, {dst}) + path_element(
                    q, ring, Path(edges=(eid,))
                )
                assert e.is_idempotent()
                elements.append(e)
                break
        for e in elements:
            for m in full_reps(q, ring, self.BUDGET):
                got, want = gamma(e, m), self._reference_gamma(e, m)
                assert got == want
                for v in q.vertices:
                    assert got.basis(v) == want.basis(v)

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_generated_submodule_decides_membership(self, q, ring):
        # N = AeN computed inside M agrees with N rebuilt on its own
        for s in _subsets(q.vertices):
            e = vertex_idempotent(q, ring, s)
            for m in full_reps(q, ring, self.BUDGET):
                blocks = m.action_blocks(e)
                for sub in enumerate_submodules(m):
                    inside = _generated(m, blocks, sub.bases) == sub.bases
                    assert inside == in_category_e(e, sub_representation(sub)[0])

    @pytest.mark.parametrize("q, ring", CASES[:4], ids=IDS[:4])
    def test_action_blocks_once_per_rep(self, q, ring, monkeypatch):
        # the special oracle hands its blocks to in_category_e, once per rep
        # it builds; the reps of a counted dimension vector are never acted on
        calls, built = [], []
        blocks_of = Representation.action_blocks
        reps_of = oracle.enumerate_reps

        def counting(m, e):
            calls.append(1)
            return blocks_of(m, e)

        def counting_reps(*args, **kwargs):
            for m in reps_of(*args, **kwargs):
                if not isinstance(m, int):
                    built.append(1)
                yield m

        monkeypatch.setattr(Representation, "action_blocks", counting)
        monkeypatch.setattr(oracle, "enumerate_reps", counting_reps)
        for s in _subsets(q.vertices):
            calls.clear()
            built.clear()
            e = vertex_idempotent(q, ring, s)
            check_special_by_modules(e, q, ring, self.BUDGET)
            assert len(calls) == len(built)

    @pytest.mark.parametrize("q, ring", CASES[:4], ids=IDS[:4])
    def test_one_submodule_built_per_submodule(self, q, ring, monkeypatch):
        calls = _count_submodules_built(monkeypatch)
        for m in full_reps(q, ring, self.BUDGET):
            calls.clear()
            assert len(enumerate_submodules(m)) == len(calls)
            for ranks in product(*(range(m.dims[v] + 1) for v in q.vertices)):
                calls.clear()
                got = list(oracle._submodules(m, dict(zip(q.vertices, ranks))))
                assert len(got) == len(calls)


class TestForcedAnswers:
    """The searches the oracles skip have forced answers: where e acts on M
    as the identity every submodule is generated by its e-part, and where
    Γ_e(M) is 0 or M a complement exists. Checked against the reference
    layer on every matrix tuple, for e_S, idempotents with path terms and
    conjugates u e_S u^-1."""

    BUDGET = OracleBudget(max_total_dim=2)
    CASES = TestAgainstReference.CASES + TestAgainstReference.PATH_CASES
    IDS = TestAgainstReference.IDS + [
        f"{q.edges}-F{r.modulus}" for q, r in TestAgainstReference.PATH_CASES
    ]

    @staticmethod
    def _elements(q, ring):
        out = [vertex_idempotent(q, ring, s) for s in _subsets(q.vertices)]
        out += _path_term_idempotents(q, ring, random.Random(f"{q}-{ring}"), 4)
        if q.is_acyclic:
            rng = random.Random(f"forced-{q}-{ring}")
            out += [conjugate(vertex_idempotent(q, ring, s), rng) for s in _subsets(q.vertices)]
        return out

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_identity_action_forces_special(self, q, ring):
        ref = TestAgainstReference
        elements = self._elements(q, ring)
        skipped = 0
        for m in full_reps(q, ring, self.BUDGET):
            subs = None  # every submodule of m as a representation, when needed
            for e in elements:
                if not oracle._acts_as_identity(m, m.action_blocks(e)):
                    continue
                if subs is None:
                    subs = [sub_representation(n)[0] for n in ref._reference_submodules(m)]
                assert all(ref._reference_in_category(e, n) for n in subs), (e, m)
                skipped += 1
        assert skipped

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_trivial_gamma_forces_a_complement(self, q, ring):
        ref = TestAgainstReference
        elements = self._elements(q, ring)
        skipped = 0
        for m in full_reps(q, ring, self.BUDGET):
            for e in elements:
                g = gamma(e, m)
                if g.total_dim not in (0, m.total_dim):
                    continue
                assert next(ref._reference_complements(m, g), None) is not None
                skipped += 1
        assert skipped

    def test_special_skips_every_left_closed_vertex_set(self, f2, monkeypatch):
        # e_S acts as the identity on each M = Ae_S M for S left-closed; for
        # any other S a counterexample needs a submodule
        calls = _count_submodules_built(monkeypatch)
        for q in sweep_quivers(3, 3, 60):
            for s in _subsets(q.vertices):
                calls.clear()
                e = vertex_idempotent(q, f2, s)
                check_special_by_modules(e, q, f2, self.BUDGET)
                assert bool(calls) != q.is_left_closed(s), (q, s)

    def test_split_skips_zero_and_one(self, f2, monkeypatch):
        calls = _count_submodules_built(monkeypatch)
        for q in sweep_quivers(3, 3, 60):
            for s in (set(), q.vertices):
                verdict = check_split_by_sequences(
                    vertex_idempotent(q, f2, s), q, f2, self.BUDGET
                )
                assert verdict.kind == "consistent" and verdict.reps_checked
        assert not calls


def _count_submodules_built(monkeypatch):
    """A list that grows by one at each submodule the oracle module builds."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return submodule_from_local(*args, **kwargs)

    monkeypatch.setattr(oracle, "submodule_from_local", counting)
    return calls


def _path_term_idempotents(q, ring, rng, count):
    """Up to `count` idempotents e_S + sum of x_p * p, drawn by the rule of
    acceptance test 09 over F_p: a path p of length <= 2 may carry x when
    λ_t(p) * x = x and, if s(p) lies in S, λ_s(p) * x = 0. Over a field every
    λ_v on S is 1, so p must run from outside S into S, and any x != 0 will
    do. S runs over every vertex subset, so non-special elements occur too."""
    paths = [r for r in q.paths_up_to(2, limit=500) if not r.is_trivial]
    subsets = list(_subsets(q.vertices))
    found = []
    for _ in range(40 * count):
        s = rng.choice(subsets)
        terms = {Path(vertex=v): 1 for v in s}
        for r in paths:
            if q.path_target(r) in s and q.path_source(r) not in s:
                if rng.random() < 0.6:
                    terms[r] = rng.randrange(1, ring.modulus)
        e = AlgElem.make(q, ring, terms)
        if len(e.terms) > len(s) and e not in found:
            found.append(e)
            if len(found) == count:
                break
    return found


def _rank_vector(bases):
    return {v: len(b) for v, b in bases.items()}


def _independent(ring, dim, vectors):
    space = FieldRowSpace(ring, dim)
    return all(space.add(x) for x in vectors)


def _subsets(vertices):
    from itertools import combinations

    for k in range(len(vertices) + 1):
        for c in combinations(vertices, k):
            yield frozenset(c)


def test_verdict_json(arrow, f2):
    v = Verdict("consistent", 5)
    assert v.to_json() == {"verdict": "consistent", "reps_checked": 5}
    m = Representation(arrow, f2, {"v1": 1, "v2": 1}, {"a": ((1,),)})
    c = Verdict("counterexample", 3, module=m)
    assert c.to_json()["verdict"] == "counterexample"
    assert c.to_json()["module"] == m.to_json()


def _rep_key(m):
    q = m.quiver
    return (
        tuple(m.dims[v] for v in q.vertices),
        tuple(m.edge_maps[eid] for eid, _, _ in q.edges),
    )


TWO_LOOPS = Quiver(("v1",), (("l", "v1", "v1"), ("m", "v1", "v1")))


class TestReductionByIsomorphism:
    """`enumerate_reps` restricts one anchor edge per vertex to its normal
    forms. The oracles must reach the same verdicts, and the same first
    counterexample dimension vector, as on every matrix tuple."""

    BUDGET = OracleBudget(max_total_dim=2)

    def test_verdicts_match_full_enumeration(self, f2, monkeypatch):
        # every e_S of the acceptance pool of tests 04/05, both oracles
        compared = 0
        for q in sweep_quivers(3, 3, 60):
            for s in _subsets(q.vertices):
                e = vertex_idempotent(q, f2, s)
                for check in (check_special_by_modules, check_split_by_sequences):
                    got = check(e, q, f2, self.BUDGET)
                    with monkeypatch.context() as patch:
                        patch.setattr(oracle, "enumerate_reps", full_reps)
                        want = check(e, q, f2, self.BUDGET)
                    assert got.kind == want.kind, (q, s, check.__name__)
                    assert got.reps_checked <= want.reps_checked
                    if want.is_counterexample:
                        assert got.module.dims == want.module.dims
                    compared += 1
        assert compared == 760

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "q", TestAgainstReference.PATH_QUIVERS + [TWO_LOOPS], ids=lambda q: str(q.edges)
    )
    def test_subsequence_meeting_every_class(self, q, p):
        ring = Ring("Fp", p)
        full = [_rep_key(m) for m in full_reps(q, ring, self.BUDGET)]
        reduced = [_rep_key(m) for m in enumerate_reps(q, ring, self.BUDGET)]
        # each reduced rep is found, in order, in the rest of the full sequence
        rest = iter(full)
        assert all(key in rest for key in reduced)
        assert len(set(reduced)) == len(reduced)
        # every orbit of the base changes at the vertices has a reduced rep
        for dims in {d for d, _ in full}:
            orbit = _orbits(
                [maps for d, maps in full if d == dims],
                _base_changes(q, dict(zip(q.vertices, dims)), p),
            )
            met = {orbit[maps] for d, maps in reduced if d == dims}
            assert met == set(orbit.values()), dims

    def test_anchors_share_no_vertex(self, f2):
        # the arrow v1 -> v2 takes both ends, so the loop at v1 stays free
        q = Quiver(("v1", "v2"), (("a", "v1", "v2"), ("l", "v1", "v1"), ("m", "v2", "v2")))
        dims = {"v1": 2, "v2": 1}
        assert set(oracle._anchor_forms(q, f2, dims)) == {"a"}
        # a zero-dimensional end makes no anchor of the arrow
        assert set(oracle._anchor_forms(q, f2, {"v1": 2, "v2": 0})) == {"l"}

    def test_budget_stops_a_lazy_enumeration(self, f2, monkeypatch):
        # only the anchor's normal forms may be built up front: restricted to
        # the dimension vector (8,), the loop that is no anchor runs over
        # 2^64 matrices, and the cap must still be reached at once
        monkeypatch.setattr(
            oracle, "_dim_vectors", lambda n, total: [(8,)] if total == 8 else []
        )
        started = time.monotonic()
        with pytest.raises(BudgetExceeded) as info:
            for m in enumerate_reps(TWO_LOOPS, f2, OracleBudget(max_total_dim=8, max_reps=1000)):
                assert m.dims == {"v1": 8}
        assert time.monotonic() - started < 1.0
        assert (info.value.reps_checked, info.value.dims) == (1000, {"v1": 8})


def _primitive_root(p):
    return next(
        g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1
    )


def _orbits(matrices, moves):
    """Orbit index of each matrix under the group generated by `moves`
    (functions from a matrix to a matrix), by breadth-first search."""
    orbit, count = {}, 0
    for start in matrices:
        if start in orbit:
            continue
        orbit[start] = count
        frontier = [start]
        while frontier:
            found = []
            for m in frontier:
                for move in moves:
                    x = move(m)
                    if x not in orbit:
                        orbit[x] = count
                        found.append(x)
            frontier = found
        count += 1
    return orbit


def _row_op(p, i, j, g):
    """Row i += g * row j when i != j; row i *= g when i == j."""

    def move(m):
        rows = list(m)
        rows[i] = tuple(
            (a * g if i == j else a + g * b) % p for a, b in zip(m[i], m[j])
        )
        return tuple(rows)

    return move


def _col_op(p, i, j, g):
    """Column j += g * column i when i != j; column j *= g when i == j."""

    def move(m):
        return tuple(
            r[:j] + (((r[j] * g) if i == j else r[j] + g * r[i]) % p,) + r[j + 1 :]
            for r in m
        )

    return move


def _base_changes(q, dims, p):
    """Generators of the product of GL(dims[v]) over the vertices, acting on
    a tuple of edge matrices (in declared edge order) by M -> g_t M g_s^-1."""
    g = _primitive_root(p)
    moves = []
    for v in q.vertices:
        d = dims[v]
        # I + E_ij: row i += row j where v is the target, column j -= column
        # i where v is the source; diag(g, 1, ..., 1) likewise
        gens = [(i, j, 1, p - 1) for i in range(d) for j in range(d) if i != j]
        gens += [(0, 0, g, pow(g, -1, p))] if d else []
        for i, j, a, b in gens:

            def move(maps, v=v, row=_row_op(p, i, j, a), col=_col_op(p, i, j, b)):
                out = []
                for m, (_, src, dst) in zip(maps, q.edges):
                    m = row(m) if dst == v else m
                    out.append(col(m) if src == v else m)
                return tuple(out)

            moves.append(move)
    return moves


def _all_matrices(p, rows, cols):
    return [
        tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))
        for flat in product(range(p), repeat=rows * cols)
    ]


def _assert_one_per_orbit(forms, matrices, moves):
    orbit = _orbits(matrices, moves)
    assert list(forms) == sorted(forms)
    assert sorted(orbit[f] for f in forms) == sorted(set(orbit.values()))


class TestNormalForms:
    """One normal form per orbit, against orbits found by search under the
    transvections I + E_ij and diag(g, 1, ..., 1), g generating F_p^*."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_rank_forms(self, p):
        g = _primitive_root(p)
        for rows, cols in product(range(1, 7), repeat=2):
            if rows * cols > 6:
                continue
            # (A, B) . M = A M B for A in GL(rows), B in GL(cols)
            moves = [_row_op(p, i, j, 1) for i in range(rows) for j in range(rows) if i != j]
            moves += [_col_op(p, i, j, 1) for i in range(cols) for j in range(cols) if i != j]
            moves += [_row_op(p, 0, 0, g), _col_op(p, 0, 0, g)]
            forms = oracle._rank_forms(Ring("Fp", p), rows, cols)
            assert len(forms) == min(rows, cols) + 1
            _assert_one_per_orbit(forms, _all_matrices(p, rows, cols), moves)

    @pytest.mark.parametrize("p, max_d", [(2, 3), (3, 3), (5, 2)])
    def test_loop_forms(self, p, max_d):
        g = _primitive_root(p)
        for d in range(1, max_d + 1):
            # conjugation T M T^-1 by T = I + E_ij: row i += row j, then
            # column j -= column i
            pairs = [
                (_row_op(p, i, j, 1), _col_op(p, i, j, p - 1))
                for i in range(d)
                for j in range(d)
                if i != j
            ]
            pairs.append((_row_op(p, 0, 0, g), _col_op(p, 0, 0, pow(g, -1, p))))
            moves = [lambda m, r=r, c=c: c(r(m)) for r, c in pairs]
            forms = oracle._loop_forms(Ring("Fp", p), d)
            assert len(forms) == sum(p**k for k in range(1, d + 1))
            _assert_one_per_orbit(forms, _all_matrices(p, d, d), moves)


class TestConjugates:
    """Both oracles agree with `classify` on conjugates u e_S u^-1, u = 1 + n
    with n two random path terms, for every left-closed S of the acyclic
    quivers of the acceptance pool: elements whose terms are not those of
    a vertex idempotent, though the classifier reads S off them."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_oracles_agree_with_classify(self, p):
        ring = Ring("Fp", p)
        rng = random.Random(f"conjugates-F{p}")
        budget = OracleBudget(max_total_dim=2)
        checked = moved = 0
        for q in sweep_quivers(3, 3, 60):
            if not q.is_acyclic:
                continue
            for s in q.enumerate_left_closed():
                e_s = vertex_idempotent(q, ring, s)
                e = conjugate(e_s, rng)
                assert e.is_idempotent()
                moved += e != e_s
                report = classify(e)
                special = check_special_by_modules(e, q, ring, budget)
                assert special.is_counterexample == (not report.is_left_special)
                split = check_split_by_sequences(e, q, ring, budget)
                assert split.is_counterexample == (not report.is_left_split), (q, s, e)
                checked += 1
        assert checked == 91  # 19 quivers, the empty S included
        # e = e_S when n and e_S commute, as for S empty or every vertex
        assert moved >= 20


SWEEP3 = sweep_quivers(3, 3, 60)


def _sweep_cases():
    """Every quiver of the pool over F_2 and F_3. The cases with more than
    2,000 matrix tuples up to total dimension 2, all over F_3 and with two
    or three loops at one vertex (6,571 to 531,469 tuples), run only with
    the slow tests."""
    for i, q in enumerate(SWEEP3):
        for p in (2, 3):
            tuples = 0
            for total in range(3):
                for vec in oracle._dim_vectors(len(q.vertices), total):
                    dims = dict(zip(q.vertices, vec))
                    tuples += p ** sum(dims[s] * dims[t] for _, s, t in q.edges)
            marks = [pytest.mark.slow] if tuples > 2_000 else []
            yield pytest.param(q, Ring("Fp", p), id=f"q{i}-F{p}", marks=marks)


def _no_skip(monkeypatch):
    """Makes the oracles build every rep: their `skip` is dropped."""
    reps_of = oracle.enumerate_reps
    monkeypatch.setattr(
        oracle, "enumerate_reps", lambda q, ring, budget, skip=None: reps_of(q, ring, budget)
    )


def _outcome(check, e, q, ring, budget):
    try:
        v = check(e, q, ring, budget)
    except BudgetExceeded as exc:
        return str(exc), exc.reps_checked, exc.dims
    return v.to_json(), v.reps_checked


class TestCountedVectors:
    """The dimension vectors the oracles count without building: the rules
    that pick them (`_outside_reach` for the special oracle, `_gamma_forced`
    for the split oracle), checked against the reference layer on every
    matrix tuple, and the counts, verdicts and budget stops against the
    oracles with no vector skipped."""

    BUDGET = OracleBudget(max_total_dim=2, max_reps=10**6)

    @pytest.mark.parametrize("q, ring", list(_sweep_cases()))
    def test_skipped_vectors_have_forced_answers(self, q, ring):
        # outside the reach M != AeM; with no live term or identity terms
        # only, Γ_e(M) is 0 or M. e runs over every e_S, idempotents with
        # path terms and, on acyclic quivers, conjugates u e_S u^-1
        ref = TestAgainstReference
        elements = TestForcedAnswers._elements(q, ring)
        rules = [(oracle._outside_reach(e), oracle._gamma_forced(e), e) for e in elements]
        per_dims = {}  # dims -> (elements whose reach skips, whose Γ is forced)
        reached = forced = 0
        for m in full_reps(q, ring, self.BUDGET):
            key = tuple(m.dims.values())
            if key not in per_dims:
                per_dims[key] = (
                    [e for reach, _, e in rules if reach(m.dims)],
                    [e for _, gamma_forced, e in rules if gamma_forced(m.dims)],
                )
            outside, trivial = per_dims[key]
            for e in outside:
                assert not ref._reference_in_category(e, m), (e, m)
            for e in trivial:
                assert ref._reference_gamma(e, m).total_dim in (0, m.total_dim), (e, m)
            reached += len(outside)
            forced += len(trivial)
        assert reached and forced

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "q", TestAgainstReference.PATH_QUIVERS + [TWO_LOOPS], ids=lambda q: str(q.edges)
    )
    def test_count_is_the_number_of_reps(self, q, p):
        # a skipped vector yields exactly as many reps as it holds unskipped
        ring = Ring("Fp", p)
        budget = OracleBudget(max_total_dim=2)
        counts = list(enumerate_reps(q, ring, budget, skip=lambda dims: True))
        built = {}
        for m in enumerate_reps(q, ring, budget):
            key = tuple(m.dims.values())
            built[key] = built.get(key, 0) + 1
        assert counts == list(built.values())

    @pytest.mark.parametrize(
        "q, ring",
        TestAgainstReference.PATH_CASES,
        ids=[f"{q.edges}-{r}" for q, r in TestAgainstReference.PATH_CASES],
    )
    def test_budget_stops_as_without_skip(self, q, ring, monkeypatch):
        # every cap from 1 to one past the reps of q: the same verdict, or the
        # same BudgetExceeded (message, cap, dims), with and without skipping,
        # also where the cap falls inside a counted dimension vector
        elements = [vertex_idempotent(q, ring, s) for s in _subsets(q.vertices)]
        elements += _path_term_idempotents(q, ring, random.Random(f"{q}-{ring}"), 4)
        reps = sum(1 for _ in enumerate_reps(q, ring, OracleBudget(max_total_dim=2)))
        inside = 0
        for cap in range(1, reps + 2):
            budget = OracleBudget(max_total_dim=2, max_reps=cap)
            for e in elements:
                for check, rule in [
                    (check_special_by_modules, oracle._outside_reach),
                    (check_split_by_sequences, oracle._gamma_forced),
                ]:
                    got = _outcome(check, e, q, ring, budget)
                    with monkeypatch.context() as patch:
                        _no_skip(patch)
                        want = _outcome(check, e, q, ring, budget)
                    assert got == want, (e, cap, check.__name__)
                    inside += len(got) == 3 and rule(e)(got[2])
        assert inside

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "p, max_dim, max_reps", [(2, 2, 200_000), (3, 2, 200_000), (2, 3, 20_000)]
    )
    def test_sweep_verdicts_match_no_skip(self, p, max_dim, max_reps, monkeypatch):
        # every e_S of the acceptance pool of tests 04/05, both oracles: the
        # same verdict JSON and reps_checked, or the same BudgetExceeded
        ring = Ring("Fp", p)
        budget = OracleBudget(max_total_dim=max_dim, max_reps=max_reps)
        compared = 0
        for q in SWEEP3:
            for s in _subsets(q.vertices):
                e = vertex_idempotent(q, ring, s)
                for check in (check_special_by_modules, check_split_by_sequences):
                    got = _outcome(check, e, q, ring, budget)
                    with monkeypatch.context() as patch:
                        _no_skip(patch)
                        want = _outcome(check, e, q, ring, budget)
                    assert got == want, (q, s, check.__name__)
                    compared += 1
        assert compared == 760
