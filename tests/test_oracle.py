import ast
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product
from pathlib import Path as FsPath

import pytest

from pathidem import oracle
from pathidem.algebra import (
    AlgElem,
    AlgebraError,
    path_element,
    vertex_idempotent,
)
from pathidem.classify import classify, is_left_special, is_left_split, strongly_orthogonal
from pathidem.linalg import identity_matrix
from pathidem.oracle import (
    BudgetExceeded,
    OracleBudget,
    OracleError,
    Verdict,
    check_morita_by_restriction,
    check_special_by_modules,
    check_split_by_sequences,
    enumerate_reps,
    enumerate_submodules,
    fullness_bruteforce,
    orthogonality_bruteforce,
)
from pathidem.quivers import Path, Quiver
from pathidem.reps import (
    RepError,
    Representation,
    _generated,
    gamma,
    in_category_e,
    submodule_from_local,
)
from pathidem.rings import Ring
from pathidem.sweep import q_a3, q_arrow, q_isolated, sweep_quivers

from conftest import conjugate, full_reps, path_term_idempotents, random_coeff
import reference
from reference import (
    action_matrix,
    edge_element,
    is_edge_closed,
    left_closed,
    ref_closure,
    ref_complements,
    ref_gamma,
    ref_in_category,
    ref_orthogonality,
    ref_special,
    ref_split,
    ref_submodules,
    right_closed,
    sub_representation,
    subsets,
)


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
        assert info.value.reps_built == 5  # no skip: every rep checked was built

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

    def test_submodule_enumeration_rejects_non_prime_field(self, arrow, rationals):
        m = Representation(arrow, rationals, {"v1": 1, "v2": 1}, {"a": ((1,),)})
        with pytest.raises(OracleError, match="prime field"):
            enumerate_submodules(m)

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

    def test_field_elements_held_up_to_the_cap(self):
        # the second Kronecker edge runs over F_p at (1, 1), where a cap of 7
        # reaches its first three values; a large field holds 8 elements and
        # walks as F_5 does, to the same BudgetExceeded
        kronecker = Quiver(("v1", "v2"), (("a", "v1", "v2"), ("b", "v1", "v2")))
        budget = OracleBudget(max_total_dim=2, max_reps=7)

        def walk(ring):
            reps = []
            with pytest.raises(BudgetExceeded) as info:
                for m in enumerate_reps(kronecker, ring, budget):
                    reps.append(m.to_json())
            exc = info.value
            return reps, (str(exc), exc.reps_checked, exc.reps_built, exc.dims)

        small = walk(Ring("Fp", 5))
        tracemalloc.start()
        try:
            large = walk(Ring("Fp", 4_000_037))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert large == small
        assert small[1] == ("representation cap 7 exceeded", 7, 7, {"v1": 1, "v2": 1})
        assert [m["edges"]["b"] for m in small[0][4:]] == [[["0"]], [["1"]], [["2"]]]
        assert peak < 1 << 20

    @pytest.mark.parametrize("cap", [sys.maxsize, 2**64])
    def test_cap_above_the_index_range(self, f3, cap):
        # the field elements are a slice of a range, which takes a stop past
        # sys.maxsize, so a cap that large walks as the default one does
        kronecker = Quiver(("v1", "v2"), (("a", "v1", "v2"), ("b", "v1", "v2")))

        def walk(max_reps):
            budget = OracleBudget(max_total_dim=2, max_reps=max_reps)
            return [m.to_json() for m in enumerate_reps(kronecker, f3, budget)]

        assert walk(cap) == walk(OracleBudget.max_reps)

    def test_dim_vectors_in_lexicographic_order(self):
        # enumerate_reps takes them as they come, unsorted
        for n in range(6):
            for t in range(6):
                want = sorted(v for v in product(range(t + 1), repeat=n) if sum(v) == t)
                assert list(oracle._dim_vectors(n, t)) == want
        # lazily, and without recursion on a long vector
        assert next(oracle._dim_vectors(1200, 1)) == (0,) * 1199 + (1,)

    def test_bad_budget(self):
        # the message names the bound that failed; dimension 0 is a budget
        with pytest.raises(OracleError, match=r"^max_total_dim must be >= 0$"):
            OracleBudget(max_total_dim=-1)
        for reps in (0, -1):
            with pytest.raises(OracleError, match=r"^max_reps must be >= 1$"):
                OracleBudget(max_reps=reps)
        assert OracleBudget(max_total_dim=0, max_reps=1).max_total_dim == 0


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


class TestMoritaOracle:
    def test_refuses_a_foreign_element(self, arrow, a3, f2, f3):
        for e in (vertex_idempotent(a3, f2, {"v1"}), vertex_idempotent(arrow, f3, {"v1"})):
            with pytest.raises(OracleError, match="another quiver or ring"):
                check_morita_by_restriction(e, arrow, f2)

    def test_corner_ring_refuses_first(self, arrow, f2, z6):
        # a non-idempotent e and Z/n are refused by `corner_algebra`
        with pytest.raises(RepError, match="idempotent"):
            check_morita_by_restriction(edge_element(arrow, f2, "a"), arrow, f2)
        e = vertex_idempotent(arrow, z6, {"v2"})
        with pytest.raises(RepError, match="field"):
            check_morita_by_restriction(e, arrow, z6)


def test_a_quiver_given_lists_is_the_quiver_given_tuples(arrow, f2):
    listed = Quiver(["v1", "v2"], [["a", "v1", "v2"]])
    assert (listed.vertices, listed.edges) == (("v1", "v2"), (("a", "v1", "v2"),))
    assert listed == arrow and hash(listed) == hash(arrow)
    budget = OracleBudget(max_total_dim=2)
    for s in ({"v1"}, {"v2"}, {"v1", "v2"}):
        for check in (check_special_by_modules, check_split_by_sequences):
            got = check(vertex_idempotent(listed, f2, s), listed, f2, budget)
            want = check(vertex_idempotent(arrow, f2, s), arrow, f2, budget)
            assert got.to_json() == want.to_json()


class TestBruteForce:
    RINGS = [Ring("Fp", 2), Ring("Fp", 5), Ring("Q")] + [Ring("Zn", n) for n in (6, 8, 30)]

    def test_orthogonality(self, arrow, z6):
        e1 = vertex_idempotent(arrow, z6, arrow.vertices).scale(3)
        e2 = vertex_idempotent(arrow, z6, arrow.vertices).scale(4)
        assert orthogonality_bruteforce(e1, e2, 2)
        assert orthogonality_bruteforce(e2, e1, 2)

    def test_orthogonality_rejects_incompatible_elements(self, arrow, a3, f5):
        e = vertex_idempotent(arrow, f5, {"v2"})
        with pytest.raises(OracleError, match="incompatible"):
            orthogonality_bruteforce(e, vertex_idempotent(a3, f5, {"v2"}), 1)

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

    def test_fullness_rejects_negative_degree(self, arrow, f5):
        # the empty family too, as `TruncatedIdeal` refuses any other family
        for fam in ([], [vertex_idempotent(arrow, f5, arrow.vertices)]):
            with pytest.raises(AlgebraError, match="degree must be nonnegative"):
                fullness_bruteforce(fam, -1)

    def test_orthogonality_matches_reference(self, monkeypatch):
        """The pruned brute force against `reference.ref_orthogonality`, which
        multiplies every sandwich, in both orders, on random elements with
        up to three terms of length <= 2 and arbitrary coefficients (zero
        divisors over Z/n included), and on the zero element. The paths it
        builds are, in enumeration order, those that end at the source of a
        term of the left element and start at the target of a term of the
        right one: all of them when the answer is True, a prefix otherwise."""
        built = []

        def recording(q, ring, p):
            built.append(p)
            return path_element(q, ring, p)

        monkeypatch.setattr(oracle, "path_element", recording)
        rng = random.Random("orthogonality-reference")
        seen = Counter()
        for q in sweep_quivers(4, 4, 120):
            paths = q.paths_up_to(2, limit=500)
            for ring in self.RINGS:
                zero = AlgElem.zero(q, ring)
                e1, e2 = (_random_element(q, ring, paths, rng) for _ in range(2))
                degree = rng.randint(0, 3)
                for a, b in ((e1, e2), (e2, e1), (e1, zero), (zero, e2)):
                    built.clear()
                    want = ref_orthogonality(a, b, degree)
                    assert orthogonality_bruteforce(a, b, degree) == want, (a, b, degree)
                    ends = {q.path_source(p) for p, _ in a.terms}
                    starts = {q.path_target(p) for p, _ in b.terms}
                    meeting = [
                        p
                        for p in q.paths_up_to(degree)
                        if q.path_target(p) in ends and q.path_source(p) in starts
                    ]
                    assert built == (meeting if want else meeting[: len(built)])
                    seen[want] += 1
                seen["cyclic"] += not q.is_acyclic
                for e in (e1, e2):
                    trivial = {p.vertex for p, _ in e.terms if p.is_trivial}
                    seen["source off the trivial support"] += any(
                        q.path_source(p) not in trivial for p, _ in e.terms if p.edges
                    )
        assert seen[True] and seen[False]
        assert seen["cyclic"] and seen["source off the trivial support"]


def _random_element(q, ring, paths, rng):
    """Up to three terms on paths drawn from `paths`, each with a
    `random_coeff` (0 included, so fewer terms may remain)."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[rng.choice(paths)] = random_coeff(ring, rng)
    return AlgElem.make(q, ring, terms)


class TestAgreement:
    """The structural decision procedures agree with exhaustive module search
    on every vertex idempotent of a pool of small quivers."""

    QUIVERS = sweep_quivers(max_vertices=2, max_edges=2, count=8)

    @pytest.mark.parametrize("q", QUIVERS)
    def test_special_agreement(self, q, f2):
        budget = OracleBudget(max_total_dim=2)
        for s in subsets(q.vertices):
            e = vertex_idempotent(q, f2, s)
            verdict = check_special_by_modules(e, q, f2, budget)
            assert verdict.is_counterexample == (not is_left_special(e))

    @pytest.mark.parametrize("q", QUIVERS)
    def test_split_agreement(self, q, f2):
        budget = OracleBudget(max_total_dim=2)
        for s in subsets(q.vertices):
            e = vertex_idempotent(q, f2, s)
            if not is_left_special(e):
                continue
            verdict = check_split_by_sequences(e, q, f2, budget)
            assert verdict.is_counterexample == (not is_left_split(e))

    @pytest.mark.parametrize("q", QUIVERS)
    def test_orthogonality_agreement(self, q, f2):
        specials = [
            vertex_idempotent(q, f2, s)
            for s in subsets(q.vertices)
            if left_closed(q, s)
        ]
        for e1 in specials:
            for e2 in specials:
                assert strongly_orthogonal(e1, e2) == orthogonality_bruteforce(
                    e1, e2, len(q.vertices)
                )


class TestAgainstReference:
    """The oracles against the direct transcription of the definitions in
    `reference` (`ref_special`, `ref_split`): e's action summed from path
    matrices, Γ_e closed over `RefRowSpace`, the subspaces listed by the
    reference itself, each submodule rebuilt as a representation and tested
    on its own, and the complements found by filtering every submodule by
    dimension vector. Only the reps come from `enumerate_reps`."""

    BUDGET = OracleBudget(max_total_dim=2)
    CASES = [
        (q, Ring("Fp", p)) for q in TestAgreement.QUIVERS for p in (2, 3)
    ]
    IDS = [f"q{i // 2}-F{r.modulus}" for i, (q, r) in enumerate(CASES)]

    def _assert_oracles_match(self, e, q, ring):
        for new, ref in [
            (check_special_by_modules, ref_special),
            (check_split_by_sequences, ref_split),
        ]:
            got = new(e, q, ring, self.BUDGET)
            want = Verdict(*ref(e, enumerate_reps(q, ring, self.BUDGET)))
            assert got.to_json() == want.to_json()
            assert got.reps_checked == want.reps_checked

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_verdicts_identical(self, q, ring):
        for s in subsets(q.vertices):
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
        elements = path_term_idempotents(q, ring, random.Random(f"{q}-{ring}"), 4)
        assert elements
        for e in elements:
            assert e.is_idempotent()
            self._assert_oracles_match(e, q, ring)

    @staticmethod
    def _rank_tables(m, ranks):
        # the `_subspaces` table of each vertex v, cut to rank ranks[v]
        return [
            [c for c in oracle._subspaces(m.ring, m.dims[v]) if len(c[0]) == ranks[v]]
            for v in m.quiver.vertices
        ]

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_pruned_submodules_match_product_filter(self, q, ring):
        for m in full_reps(q, ring, self.BUDGET):
            want = [s.bases for s in ref_submodules(m)]
            assert [s.bases for s in enumerate_submodules(m)] == want
            for ranks in product(*(range(m.dims[v] + 1) for v in q.vertices)):
                ranks = dict(zip(q.vertices, ranks))
                got = [s.bases for s in oracle._edge_closed(m, self._rank_tables(m, ranks))]
                assert got == [b for b in want if _rank_vector(b) == ranks]

    # the cases above at total dimension 2, and one at total dimension 3,
    # where some Γ_e(M)_v is a line in a plane: the least case in which a C_v
    # of the complementary rank may still meet Γ_e(M)_v (at the loop's vertex)
    COMPLEMENT_CASES = [(q, ring, 2) for q, ring in CASES] + [
        (PATH_QUIVERS[3], Ring("Fp", 2), 3)
    ]

    @pytest.mark.parametrize(
        "q, ring, max_dim", COMPLEMENT_CASES, ids=IDS + ["arrow-into-loop-F2-dim3"]
    )
    def test_split_finds_a_complement_exactly_when_reference_does(
        self, q, ring, max_dim, monkeypatch
    ):
        # the split oracle run on one M at a time, every dimension vector
        # built: a counterexample exactly where Γ_e(M) has no complement
        budget = OracleBudget(max_total_dim=max_dim)
        elements = [vertex_idempotent(q, ring, s) for s in subsets(q.vertices)]
        elements += path_term_idempotents(q, ring, random.Random(f"{q}-{ring}"), 4)
        searched = 0
        for m in full_reps(q, ring, budget):
            monkeypatch.setattr(oracle, "enumerate_reps", lambda *a, **k: iter([m]))
            for e in elements:
                g = gamma(e, m)
                found = next(ref_complements(m, g), None) is not None
                verdict = check_split_by_sequences(e, q, ring, budget)
                assert verdict.is_counterexample != found, (e, m)
                searched += g.total_dim not in (0, m.total_dim)
        # on one vertex every Γ_e(M) is 0 or M
        assert searched or len(q.vertices) == 1

    def test_shared_row_spaces_unchanged(self):
        # both oracles on every case, then every cached row space still
        # spans exactly its basis, in the same rows
        for q, ring in self.CASES:
            for s in subsets(q.vertices):
                e = vertex_idempotent(q, ring, s)
                check_special_by_modules(e, q, ring, self.BUDGET)
                check_split_by_sequences(e, q, ring, self.BUDGET)
        for ring in {ring for _, ring in self.CASES}:
            for d in range(self.BUDGET.max_total_dim + 1):
                for basis, space in oracle._subspaces(ring, d):
                    assert space.rows == list(basis)

    # the cases above at total dimension 2, and A3 with its edges declared
    # against the path at total dimension 3: closing M_v1 there takes a
    # second walk over the edges, which no case of total dimension 2 needs
    GAMMA_CASES = [(q, ring, 2) for q, ring in CASES] + [
        (Quiver(("v1", "v2", "v3"), (("b", "v2", "v3"), ("a", "v1", "v2"))),
         Ring("Fp", 2), 3)
    ]

    @pytest.mark.parametrize(
        "q, ring, max_dim", GAMMA_CASES, ids=IDS + ["a3-declared-backwards-F2-dim3"]
    )
    def test_gamma_matches_e_fixed_closure(self, q, ring, max_dim):
        elements = [vertex_idempotent(q, ring, s) for s in subsets(q.vertices)]
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
            for m in full_reps(q, ring, OracleBudget(max_total_dim=max_dim)):
                got, want = gamma(e, m), ref_gamma(e, m)
                assert got == want
                for v in q.vertices:
                    assert got.bases[v] == want.bases[v]

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_generated_submodule_decides_membership(self, q, ring):
        # N = AeN computed inside M agrees with N rebuilt on its own
        for s in subsets(q.vertices):
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
        calls = []
        blocks_of = Representation.action_blocks

        def counting(m, e):
            calls.append(1)
            return blocks_of(m, e)

        monkeypatch.setattr(Representation, "action_blocks", counting)
        built = _count_reps_built(monkeypatch)
        for s in subsets(q.vertices):
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
                tables = self._rank_tables(m, dict(zip(q.vertices, ranks)))
                got = list(oracle._edge_closed(m, tables))
                assert len(got) == len(calls)


class TestForcedAnswers:
    """Two searches have forced answers: where e acts on M as the identity
    every submodule is generated by its e-part (the special oracle still
    searches such M, and must find no counterexample there), and where
    Γ_e(M) is 0 or M a complement exists (the split oracle skips that
    search). Checked against the reference layer on every matrix tuple, for
    e_S, idempotents with path terms and conjugates u e_S u^-1."""

    BUDGET = OracleBudget(max_total_dim=2)
    CASES = TestAgainstReference.CASES + TestAgainstReference.PATH_CASES
    IDS = TestAgainstReference.IDS + [
        f"{q.edges}-F{r.modulus}" for q, r in TestAgainstReference.PATH_CASES
    ]

    @staticmethod
    def _elements(q, ring):
        out = [vertex_idempotent(q, ring, s) for s in subsets(q.vertices)]
        out += path_term_idempotents(q, ring, random.Random(f"{q}-{ring}"), 4)
        if q.is_acyclic:
            rng = random.Random(f"forced-{q}-{ring}")
            out += [conjugate(vertex_idempotent(q, ring, s), rng) for s in subsets(q.vertices)]
        return out

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_identity_action_forces_special(self, q, ring):
        # e acts as the identity: an identity block at each vertex of nonzero
        # dimension and no other block; then N = eN ⊆ AeN ⊆ N for every N
        elements = self._elements(q, ring)
        identity = 0
        for m in full_reps(q, ring, self.BUDGET):
            ones = {(v, v): identity_matrix(ring, d) for v, d in m.dims.items() if d}
            subs = None  # every submodule of m, when needed
            for e in elements:
                blocks = m.action_blocks(e)
                if blocks != ones:
                    continue
                if subs is None:
                    subs = list(ref_submodules(m))
                for n in subs:
                    assert _generated(m, blocks, n.bases) == n.bases, (e, m)
                    assert ref_in_category(e, sub_representation(n)[0]), (e, m)
                identity += 1
        assert identity

    @pytest.mark.parametrize("q, ring", CASES, ids=IDS)
    def test_trivial_gamma_forces_a_complement(self, q, ring):
        elements = self._elements(q, ring)
        skipped = 0
        for m in full_reps(q, ring, self.BUDGET):
            for e in elements:
                g = gamma(e, m)
                if g.total_dim not in (0, m.total_dim):
                    continue
                assert next(ref_complements(m, g), None) is not None
                skipped += 1
        assert skipped

    def test_special_skips_every_left_closed_vertex_set(self, f2, monkeypatch):
        # e_S acts as the identity on each M = Ae_S M for S left-closed; for
        # any other S a counterexample needs a submodule
        calls = _count_submodules_built(monkeypatch)
        for q in sweep_quivers(3, 3, 60):
            for s in subsets(q.vertices):
                calls.clear()
                e = vertex_idempotent(q, f2, s)
                check_special_by_modules(e, q, f2, self.BUDGET)
                assert bool(calls) != left_closed(q, s), (q, s)

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


def _count_reps_built(monkeypatch):
    """A list that grows by one at each rep the oracles' enumerator builds;
    a counted dimension vector adds nothing."""
    built = []
    reps_of = oracle.enumerate_reps

    def counting(*args, **kwargs):
        for m in reps_of(*args, **kwargs):
            if not isinstance(m, int):
                built.append(1)
            yield m

    monkeypatch.setattr(oracle, "enumerate_reps", counting)
    return built


@pytest.mark.parametrize("p, dim, count", [(2, 3, 16), (2, 4, 67), (3, 3, 28), (5, 2, 8)])
def test_subspace_table_is_counted_before_it_is_built(monkeypatch, p, dim, count):
    # count is the number of subspaces of F_p^dim: a bound of count builds
    # the table, a bound of count - 1 refuses it
    ring = Ring("Fp", p)
    oracle._subspaces.cache_clear()
    try:
        monkeypatch.setattr(oracle, "_MAX_SUBSPACES", count)
        assert len(oracle._subspaces(ring, dim)) == count
        oracle._subspaces.cache_clear()
        monkeypatch.setattr(oracle, "_MAX_SUBSPACES", count - 1)
        with pytest.raises(OracleError, match=f"F_{p}\\^{dim} has more than {count - 1}"):
            oracle._subspaces(ring, dim)
    finally:
        oracle._subspaces.cache_clear()


def _rank_vector(bases):
    return {v: len(b) for v, b in bases.items()}


def _reference_breaches(source):
    """What `source` takes from the library that the reference layer must
    not: any name from `pathidem.linalg`, `pathidem.oracle` or
    `pathidem.classify`, any name from `pathidem.reps` but `Representation`,
    `Submodule` and `RepError`, and any call of `action_blocks`."""
    allowed = {"pathidem.reps": {"Representation", "Submodule", "RepError"}}
    barred = ("pathidem.linalg", "pathidem.oracle", "pathidem.reps", "pathidem.classify")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "pathidem":
            found += [a.name for a in node.names if f"pathidem.{a.name}" in barred]
        elif isinstance(node, ast.ImportFrom) and node.module in barred:
            kept = allowed.get(node.module, ())
            found += [a.name for a in node.names if a.name not in kept]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith(barred)]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "action_blocks":
                found.append("action_blocks()")
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("from pathidem.linalg import span", ["span"]),
        ("from pathidem.oracle import _subspaces", ["_subspaces"]),
        ("from pathidem import oracle, rings", ["oracle"]),
        ("from pathidem.classify import try_standard_form", ["try_standard_form"]),
        ("from pathidem import classify", ["classify"]),
        ("import pathidem.linalg", ["pathidem.linalg"]),
        ("from pathidem.reps import Submodule, _generated", ["_generated"]),
        ("from pathidem.reps import Representation, RepError, Submodule", []),
        ("m.action_blocks(e)", ["action_blocks()"]),
        ("from pathidem.algebra import AlgElem\nfrom pathidem.rings import Ring", []),
    ],
)
def test_reference_breaches_are_found(source, found):
    assert _reference_breaches(source) == found


def test_reference_takes_no_library_linear_algebra():
    # the reference does its own linear algebra, lists its own subspaces,
    # acts by path matrices and reads specialness off Ae, so a fault in
    # linalg, in the oracles' tables, in the action blocks or in the
    # classifier cannot hide on both sides of a comparison
    source = FsPath(reference.__file__).read_text(encoding="utf-8")
    assert _reference_breaches(source) == []


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
            for s in subsets(q.vertices):
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

        def anchors(vec):
            plans = oracle._vector_plans(q, f2, sum(vec))
            return next(a for v, a, _, _ in plans if v == vec)

        assert set(anchors((2, 1))) == {"a"}
        # a zero-dimensional end makes no anchor of the arrow
        assert set(anchors((2, 0))) == {"l"}

    def test_budget_stops_a_lazy_enumeration(self, f2, monkeypatch, fresh_plans):
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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_loop_count(self, p):
        # what a counted vector multiplies by for a loop anchor
        for d in range(5):
            assert oracle._loop_count(p, d) == len(oracle._loop_forms(Ring("Fp", p), d))


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


def _live_terms(e, dims):
    """The terms of e whose source and target both have nonzero dimension."""
    q = e.quiver
    return [(p, c) for p, c in e.terms if dims[q.path_source(p)] and dims[q.path_target(p)]]


def _has_apart_pair(q):
    """Whether two vertices of q share no edge: exactly then some vector has
    live terms on a proper nonempty part L of its support that no edge joins
    to the rest (dimension 1 at both, e = e_v for one of them)."""
    return any(
        not any({s, t} == {v, w} for _, s, t in q.edges)
        for v, w in combinations(q.vertices, 2)
    )


class TestCountedVectors:
    """The dimension vectors the oracles count without building: the rules
    that pick them (`_special_skip` for the special oracle,
    `_acts_on_a_summand` for the split oracle), checked against the
    reference layer on every matrix tuple, and the counts, verdicts and
    budget stops against the oracles with no vector skipped."""

    BUDGET = OracleBudget(max_total_dim=2, max_reps=10**6)

    @pytest.mark.parametrize("q, ring", list(_sweep_cases()))
    def test_skipped_vectors_have_forced_answers(self, q, ring):
        # outside the reach M != AeM. Where e acts as the projection onto a
        # summand, L being the vertices of its live terms, Γ_e(M) = M|_L and
        # M restricted to the other vertices is a submodule. Of the other
        # vectors the special oracle counts, those with no live term hold
        # only M = 0 or M != AeM, and on those with live terms e acts as the
        # identity. e runs over every e_S, idempotents with path terms and,
        # on acyclic quivers, conjugates u e_S u^-1
        elements = TestForcedAnswers._elements(q, ring)
        rules = [
            (oracle._outside_reach(e), oracle._acts_on_a_summand(e),
             oracle._special_skip(e), e)
            for e in elements
        ]
        # dims -> (elements whose reach skips, whose action is forced, and
        # whose special skip takes dims inside the reach)
        per_dims = {}
        reached = no_live = identity = 0
        parts = set()  # which of: L empty, a proper part of the support, all of it
        for m in full_reps(q, ring, self.BUDGET):
            key = tuple(m.dims.values())
            if key not in per_dims:
                per_dims[key] = (
                    [e for reach, _, _, e in rules if reach(m.dims)],
                    [e for _, summand, _, e in rules if summand(m.dims)],
                    [e for reach, _, special, e in rules
                     if special(m.dims) and not reach(m.dims)],
                )
            outside, summand, special = per_dims[key]
            support = {v for v, d in m.dims.items() if d}
            for e in outside:
                assert not ref_in_category(e, m), (e, m)
            for e in summand:
                part = {p.vertex for p, _ in _live_terms(e, m.dims)}
                want = {v: d if v in part else 0 for v, d in m.dims.items()}
                assert ref_gamma(e, m).dims == want, (e, m)
                if not part or part == support:  # the rest is M or 0
                    parts.add("all" if part else "empty")
                    continue
                rest = {v: identity_matrix(ring, d) for v, d in m.dims.items() if v not in part}
                assert is_edge_closed(submodule_from_local(m, rest)), (e, m)
                parts.add("proper")
            for e in special:
                if _live_terms(e, m.dims):
                    assert action_matrix(m, e) == identity_matrix(ring, m.total_dim), (e, m)
                    identity += 1
                else:
                    assert not m.total_dim or not ref_in_category(e, m), (e, m)
                    no_live += 1
            reached += len(outside)
        assert reached and no_live and identity
        want = {"empty", "all", "proper"} if _has_apart_pair(q) else {"empty", "all"}
        assert parts == want

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
        # also where the cap falls inside a counted dimension vector, inside
        # one the special oracle counts within the reach, and inside one the
        # split oracle counts where L is neither empty nor the support
        elements = [vertex_idempotent(q, ring, s) for s in subsets(q.vertices)]
        elements += path_term_idempotents(q, ring, random.Random(f"{q}-{ring}"), 4)
        reps = sum(1 for _ in enumerate_reps(q, ring, OracleBudget(max_total_dim=2)))
        inside = inside_reach = inside_part = 0
        for cap in range(1, reps + 2):
            budget = OracleBudget(max_total_dim=2, max_reps=cap)
            for e in elements:
                for check, rule in [
                    (check_special_by_modules, oracle._special_skip),
                    (check_split_by_sequences, oracle._acts_on_a_summand),
                ]:
                    got = _outcome(check, e, q, ring, budget)
                    with monkeypatch.context() as patch:
                        _no_skip(patch)
                        want = _outcome(check, e, q, ring, budget)
                    assert got == want, (e, cap, check.__name__)
                    if len(got) == 3 and rule(e)(got[2]):
                        inside += 1
                        if check is check_special_by_modules:
                            inside_reach += not oracle._outside_reach(e)(got[2])
                        else:
                            part = {p.vertex for p, _ in _live_terms(e, got[2])}
                            support = {v for v, d in got[2].items() if d}
                            inside_part += bool(part) and part != support
        assert inside and inside_reach and bool(inside_part) == _has_apart_pair(q)

    @pytest.mark.parametrize("p", [2, 3])
    def test_special_builds_no_rep_for_left_closed(self, p, monkeypatch):
        # for a left-closed S every vector is outside the reach or one on
        # which e_S acts as the projection onto a summand; for any other S
        # some edge leaves S, and the vector with dimension 1 at its two ends
        # is built
        ring = Ring("Fp", p)
        built = _count_reps_built(monkeypatch)
        closed = 0
        for q in SWEEP3:
            for s in subsets(q.vertices):
                built.clear()
                check_special_by_modules(vertex_idempotent(q, ring, s), q, ring, self.BUDGET)
                assert bool(built) != left_closed(q, s), (q, s)
                closed += not built
        assert closed == 262

    @pytest.mark.parametrize("p", [2, 3])
    def test_split_builds_no_rep_for_components(self, p, monkeypatch):
        # for S closed on both sides (a union of weak components) e_S acts on
        # every M as the projection onto the summand M|_S; for a left-closed
        # S that is not right-closed some edge enters S, and the vector with
        # dimension 1 at its two ends is built
        ring = Ring("Fp", p)
        built = _count_reps_built(monkeypatch)
        closed = 0
        for q in SWEEP3:
            for s in q.enumerate_left_closed():
                built.clear()
                check_split_by_sequences(vertex_idempotent(q, ring, s), q, ring, self.BUDGET)
                assert bool(built) != right_closed(q, s), (q, s)
                closed += not built
        assert closed == 190

    def test_no_skip_builds_every_rep(self, monkeypatch):
        # under `_no_skip` each oracle builds every rep it counts, also on
        # the vectors its rule passes over; without it both rules count
        # vectors of these e
        ring = Ring("Fp", 2)
        counted = set()
        for q in SWEEP3[:10]:
            for s in subsets(q.vertices):
                e = vertex_idempotent(q, ring, s)
                for check in (check_special_by_modules, check_split_by_sequences):
                    with monkeypatch.context() as patch:
                        _no_skip(patch)
                        built = _count_reps_built(patch)
                        checked = check(e, q, ring, self.BUDGET).reps_checked
                        assert len(built) == checked, (e, check.__name__)
                    with monkeypatch.context() as patch:
                        built = _count_reps_built(patch)
                        checked = check(e, q, ring, self.BUDGET).reps_checked
                        if len(built) < checked:
                            counted.add(check)
        assert counted == {check_special_by_modules, check_split_by_sequences}

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "p, max_dim, max_reps, path_terms, total",
        [(2, 2, 200_000, True, 1078), (3, 2, 200_000, True, 1120), (2, 3, 20_000, False, 760)],
    )
    def test_sweep_verdicts_match_no_skip(
        self, p, max_dim, max_reps, path_terms, total, monkeypatch
    ):
        # every e_S of the acceptance pool of tests 04/05 and, at dimension
        # <= 2, the path-term idempotents of each quiver, both oracles: the
        # same verdict JSON and reps_checked, or the same BudgetExceeded
        ring = Ring("Fp", p)
        budget = OracleBudget(max_total_dim=max_dim, max_reps=max_reps)
        compared = 0
        for q in SWEEP3:
            elements = [vertex_idempotent(q, ring, s) for s in subsets(q.vertices)]
            if path_terms:
                rng = random.Random(f"{q}-{ring}")
                elements += path_term_idempotents(q, ring, rng, 4)
            for e in elements:
                for check in (check_special_by_modules, check_split_by_sequences):
                    got = _outcome(check, e, q, ring, budget)
                    with monkeypatch.context() as patch:
                        _no_skip(patch)
                        built = _count_reps_built(patch)
                        want = _outcome(check, e, q, ring, budget)
                    assert got == want, (e, check.__name__)
                    assert len(built) == want[1], (e, check.__name__)
                    compared += 1
        assert compared == total


class TestLines:
    """For M = AeM, some submodule N has N != AeN exactly when some x in a
    single vertex space M_w has x not in Ae(Ax), Ax being the submodule x
    generates. If x is not in Ae(Ax), N = Ax is such a submodule. If
    N != AeN, then, both being graded, some x in some N_w lies outside AeN,
    and Ae(Ax) lies in AeN. x and cx generate the same submodule, so the
    lines of each M_w decide it. The oracles do not use this yet. Checked
    against `enumerate_submodules` on every in-category rep of
    `enumerate_reps` at total dimension <= 2, for every e_S and, over F_2,
    the idempotents with path terms: 7,633 (e, M) pairs over F_2, 276 of
    them with some N != AeN, and 98,010 over F_3 (slow), 452 of them."""

    BUDGET = OracleBudget(max_total_dim=2, max_reps=10**6)

    @classmethod
    def _pairs(cls, ring):
        # (in-category (e, M) pairs, those with some N != AeN) over the pool
        pairs = failing = 0
        for q in SWEEP3:
            elements = [vertex_idempotent(q, ring, s) for s in subsets(q.vertices)]
            if ring.modulus == 2:
                rng = random.Random(f"{q}-{ring}")
                elements += path_term_idempotents(q, ring, rng, 4)
            for m in enumerate_reps(q, ring, cls.BUDGET):
                lines = [
                    ref_closure(m, {w: basis})
                    for w in q.vertices
                    for basis, _ in oracle._subspaces(ring, m.dims[w])
                    if len(basis) == 1
                ]
                for e in elements:
                    blocks = m.action_blocks(e)
                    if not in_category_e(e, m, blocks):
                        continue
                    some_n = any(
                        _generated(m, blocks, n.bases) != n.bases
                        for n in enumerate_submodules(m)
                    )
                    some_line = any(_generated(m, blocks, x.bases) != x.bases for x in lines)
                    assert some_n == some_line, (e, m)
                    pairs += 1
                    failing += some_n
        return pairs, failing

    def test_lines_decide_over_f2(self, f2):
        assert self._pairs(f2) == (7_633, 276)

    @pytest.mark.slow
    def test_lines_decide_over_f3(self, f3):
        assert self._pairs(f3) == (98_010, 452)


def _diagonal(e):
    """S and λ of e: its trivial terms, vertex -> coefficient."""
    return {p.vertex: c for p, c in e.terms if p.is_trivial}


def _monotone(e, lam, reverse=False):
    # λ_v λ_w = λ_v on each edge v -> w inside S (reversed: λ_w λ_v = λ_w)
    for _, v, w in e.quiver.edges:
        if v in lam and w in lam:
            a, b = (lam[w], lam[v]) if reverse else (lam[v], lam[w])
            if e.ring.mul(a, b) != a:
                return False
    return True


def _constant_on_components(e, lam):
    return all(lam[v] == lam[w] for _, v, w in e.quiver.edges if v in lam and w in lam)


# each wrong rule, as a predicate on an element: the right rule (the
# classifier's) with one condition changed
WRONG_SPECIAL = {
    "right-closed S": lambda e: right_closed(e.quiver, _diagonal(e))
    and _monotone(e, _diagonal(e)),
    "λ monotone the wrong way": lambda e: left_closed(e.quiver, _diagonal(e))
    and _monotone(e, _diagonal(e), reverse=True),
}
WRONG_SPLIT = {
    "split without right-closedness": lambda e: is_left_special(e)
    and _constant_on_components(e, _diagonal(e)),
    "λ constant on the whole quiver": lambda e: is_left_special(e)
    and right_closed(e.quiver, _diagonal(e))
    and len(set(_diagonal(e).values())) <= 1,
}


class TestDiscriminatingPower:
    """Plausible wrong rules for special and split against the oracles on
    the pool of acceptance tests 04 and 05: every e_S on sweep_quivers(3, 3,
    60) over F_2 at total dimension <= 2. What separates each rule:

    - right-closed instead of left-closed S: a search, a counterexample
      built for each S right-closed but not left-closed; where S is
      left-closed but not right-closed the oracle's "consistent" comes from
      its skip rule, with no rep built;
    - split without right-closedness: a search, a counterexample built for
      each left-closed S that is not right-closed;
    - κ allowed to start inside S: the idempotency gate, since e_S + p with
      p a path from S to S is never idempotent and both oracles refuse it;
    - λ monotone the wrong way, and λ constant on the whole quiver: nothing.
      Over F_p every nonzero idempotent λ_v is 1, so these rules answer as
      the right ones on every element an F_p oracle takes, and only a Z/n
      oracle could separate them."""

    BUDGET = OracleBudget(max_total_dim=2)
    F2 = Ring("Fp", 2)

    @pytest.fixture(scope="class")
    def verdicts(self):
        # (e, special verdict, reps it built, split verdict, reps it built)
        out = []
        with pytest.MonkeyPatch.context() as patch:
            built = _count_reps_built(patch)
            for q in SWEEP3:
                for s in subsets(q.vertices):
                    e = vertex_idempotent(q, self.F2, s)
                    row = [e]
                    for check in (check_special_by_modules, check_split_by_sequences):
                        built.clear()
                        row += [check(e, q, self.F2, self.BUDGET), len(built)]
                    out.append(tuple(row))
        return out

    def test_right_closed_s_is_separated_by_a_search(self, verdicts):
        rule = WRONG_SPECIAL["right-closed S"]
        by_search = by_skip = 0
        for e, special, built, _, _ in verdicts:
            if rule(e) == special.is_counterexample:  # they disagree
                if special.is_counterexample:
                    assert built and special.module is not None, e
                    by_search += 1
                else:
                    assert not built, e
                    by_skip += 1
        assert by_search and by_skip

    def test_split_without_right_closedness_is_separated_by_a_search(self, verdicts):
        rule = WRONG_SPLIT["split without right-closedness"]
        by_search = 0
        for e, _, _, split, built in verdicts:
            if not rule(e):
                continue
            # the rule errs exactly where S is not right-closed
            assert split.is_counterexample != right_closed(e.quiver, _diagonal(e)), e
            if split.is_counterexample:
                assert built, e
                by_search += 1
        assert by_search

    @pytest.mark.parametrize(
        "name", ["λ monotone the wrong way", "λ constant on the whole quiver"]
    )
    def test_lambda_rules_are_separated_by_nothing(self, verdicts, name):
        # pinned: a Z/n oracle that sees λ should make this test fail
        rule = {**WRONG_SPECIAL, **WRONG_SPLIT}[name]
        for e, special, _, split, _ in verdicts:
            verdict = special if name in WRONG_SPECIAL else split
            if name in WRONG_SPECIAL or is_left_special(e):
                assert rule(e) != verdict.is_counterexample, e

    def test_kappa_inside_s_is_separated_by_the_idempotency_gate(self):
        refused = 0
        for q in SWEEP3:
            paths = [p for p in q.paths_up_to(2, limit=500) if p.edges]
            for s in q.enumerate_left_closed():
                for p in paths:
                    if q.path_source(p) not in s or q.path_target(p) not in s:
                        continue
                    e = vertex_idempotent(q, self.F2, s) + path_element(q, self.F2, p)
                    assert not e.is_idempotent() and not is_left_special(e), e
                    for check in (check_special_by_modules, check_split_by_sequences):
                        with pytest.raises(OracleError, match="idempotent"):
                            check(e, q, self.F2, self.BUDGET)
                    refused += 1
        assert refused


def _enumeration(q, ring, budget, skip=None):
    """The items of one `enumerate_reps` call, each rep as copies of its
    dims and edge maps and each count as its int, and the payload (message,
    cap, dims) of the `BudgetExceeded` that ended it, or None. The error's
    `reps_built` must be the number of reps yielded, counts left out."""
    items = []
    try:
        for m in enumerate_reps(q, ring, budget, skip):
            items.append(m if isinstance(m, int) else (dict(m.dims), dict(m.edge_maps)))
    except BudgetExceeded as exc:
        assert exc.reps_built == sum(not isinstance(m, int) for m in items)
        return items, (str(exc), exc.reps_checked, dict(exc.dims))
    return items, None


class TestPlans:
    """`enumerate_reps` keeps the plan of each (quiver, field, total) of at
    most `_PLAN_VECTORS` dimension vectors (`oracle._plan`). A kept plan
    gives the enumeration a new one gives, no caller can change it, and a
    larger total is walked without being kept."""

    BUDGET = OracleBudget(max_total_dim=2, max_reps=10**6)
    RULES = (oracle._special_skip, oracle._acts_on_a_summand, oracle._outside_reach)

    @pytest.mark.parametrize(
        "q, ring",
        [
            *(case for case in _sweep_cases() if not case.marks),
            *(
                pytest.param(q, r, id=f"{q.edges}-{r}")
                for q, r in TestAgainstReference.PATH_CASES
            ),
        ],
    )
    def test_cold_and_warm_caches_agree(self, q, ring, fresh_plans):
        # without skip and with each rule of each e_S: the same items and
        # the same BudgetExceeded for every cap from 1 to one past the reps,
        # from an empty cache, from one that holds only the plans of the
        # other field, and from one that holds the plans of the run before.
        # A rule acts only through what it says of each vector, so one rule
        # per distinct set of skipped vectors is run. The caps cost the
        # square of the reps, so the pool's slow cases (about 1,000 to 79,000
        # reps) are left out
        other = Ring("Fp", 3 if ring.modulus == 2 else 2)
        vectors = [
            dict(zip(q.vertices, vec))
            for total in range(3)
            for vec in oracle._dim_vectors(len(q.vertices), total)
        ]
        rules = {(False,) * len(vectors): None}
        for s in subsets(q.vertices):
            for make in self.RULES:
                rule = make(vertex_idempotent(q, ring, s))
                rules.setdefault(tuple(map(rule, vectors)), rule)
        for skip in rules.values():
            oracle._plan.cache_clear()
            want = _enumeration(q, ring, self.BUDGET, skip)
            oracle._plan.cache_clear()
            list(enumerate_reps(q, other, self.BUDGET, skip=lambda dims: True))
            assert _enumeration(q, ring, self.BUDGET, skip) == want
            assert _enumeration(q, ring, self.BUDGET, skip) == want
            reps = sum(x if isinstance(x, int) else 1 for x in want[0])
            for cap in range(1, reps + 2):
                budget = OracleBudget(max_total_dim=2, max_reps=cap)
                oracle._plan.cache_clear()
                cold = _enumeration(q, ring, budget, skip)
                assert _enumeration(q, ring, budget, skip) == cold, cap
                assert (cold[1] is None) == (cap >= reps)

    def test_callers_cannot_change_a_plan(self, arrow, f2, fresh_plans):
        # a rep's dims, the dims passed to skip and a BudgetExceeded's dims
        # are the caller's own
        want = _enumeration(arrow, f2, self.BUDGET)
        for m in enumerate_reps(arrow, f2, self.BUDGET):
            m.dims["v1"] += 1

        def skip(dims):
            dims["v2"] += 1
            return True

        list(enumerate_reps(arrow, f2, self.BUDGET, skip))
        with pytest.raises(BudgetExceeded) as info:
            list(enumerate_reps(arrow, f2, OracleBudget(max_total_dim=2, max_reps=1)))
        info.value.dims["v1"] = 9
        assert _enumeration(arrow, f2, self.BUDGET) == want

    def test_large_total_is_walked_unkept(self, f2, fresh_plans):
        # 30 isolated vertices: totals 0 to 4 hold 1, 30, 465, 4,960 and
        # 40,920 dimension vectors of one rep each, so the cap falls inside
        # total 4; only totals 0 and 1 have at most _PLAN_VECTORS vectors
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as info:
                for _ in enumerate_reps(
                    q_isolated(30), f2, OracleBudget(max_total_dim=4, max_reps=20_000)
                ):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(info.value.dims.values()) == 4
        assert peak < 1 << 20
        assert oracle._plan.cache_info().currsize == 2
