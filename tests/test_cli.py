import ast
import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathidem import __version__
from pathidem import classify, cli, oracle, quivers
from pathidem.algebra import vertex_idempotent
from pathidem.cli import main
from pathidem.oracle import OracleBudget, _outside_reach, enumerate_reps
from pathidem.reps import corner_algebra, corner_module, in_category_e, morita_surrogate_check
from pathidem.rings import Ring
from pathidem.sweep import q_a3, sweep_quivers

from conftest import conjugate, path_term_idempotents

ROOT = Path(__file__).resolve().parents[1]

ARROW = json.dumps(
    {
        "vertices": ["v1", "v2"],
        "edges": [{"id": "a", "src": "v1", "dst": "v2"}],
    }
)
LOOP = json.dumps(
    {
        "vertices": ["v1", "v2"],
        "edges": [
            {"id": "a", "src": "v1", "dst": "v2"},
            {"id": "l", "src": "v1", "dst": "v1"},
        ],
    }
)
KRONECKER = json.dumps(
    {
        "vertices": ["v1", "v2"],
        "edges": [
            {"id": "a", "src": "v1", "dst": "v2"},
            {"id": "b", "src": "v1", "dst": "v2"},
        ],
    }
)
E_V2 = json.dumps({"terms": [{"path": {"trivial": "v2"}, "coeff": "1"}]})
E_V1 = json.dumps({"terms": [{"path": {"trivial": "v1"}, "coeff": "1"}]})
ZERO = json.dumps({"terms": []})
E3 = json.dumps(
    {
        "terms": [
            {"path": {"trivial": "v1"}, "coeff": "3"},
            {"path": {"trivial": "v2"}, "coeff": "3"},
        ]
    }
)
E4 = json.dumps(
    {
        "terms": [
            {"path": {"trivial": "v1"}, "coeff": "4"},
            {"path": {"trivial": "v2"}, "coeff": "4"},
        ]
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassify:
    def test_sink_vertex(self, capsys):
        code, report = run(
            capsys, "classify", "--quiver", ARROW, "--ring", "F5", "--element", E_V2
        )
        assert code == 0
        assert report["command"] == "classify"
        assert report["version"] == __version__
        res = report["result"]
        assert res["idempotent"] and res["special"]
        assert res["split"] is False
        assert res["standard_form"]["vertices"] == ["v2"]

    def test_zero_element(self, capsys):
        code, report = run(
            capsys, "classify", "--quiver", ARROW, "--ring", "F5", "--element", ZERO
        )
        assert code == 0
        assert report["result"]["special"] is True
        assert report["result"]["split"] is True

    def test_source_vertex(self, capsys):
        code, report = run(
            capsys, "standard-form", "--quiver", ARROW, "--ring", "F5",
            "--element", E_V1,
        )
        assert code == 0
        assert report["result"]["special"] is False
        assert report["result"]["witness"]["condition"] == "support-not-left-closed"

    def test_deterministic_output(self, capsys, tmp_path):
        argv = ["classify", "--quiver", ARROW, "--ring", "F5", "--element", E_V2]
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_out_leaves_sibling_files_alone(self, capsys, tmp_path):
        sibling = tmp_path / "r.tmp"
        sibling.write_text("user data\n")
        out = tmp_path / "r.json"
        argv = ["validate", "--quiver", ARROW, "--ring", "F5", "--out", str(out)]
        assert main(argv) == 0
        assert sibling.read_text() == "user data\n"
        assert json.loads(out.read_text())["command"] == "validate"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "r.tmp"]

    def test_file_inputs(self, capsys, tmp_path):
        qf = tmp_path / "quiver.json"
        qf.write_text(ARROW)
        ef = tmp_path / "elem.json"
        ef.write_text(E_V2)
        code, report = run(
            capsys, "classify", "--quiver", str(qf), "--ring", "F5",
            "--element", str(ef),
        )
        assert code == 0
        assert report["result"]["special"]


class TestFamilies:
    def test_orthogonal(self, capsys):
        code, report = run(
            capsys, "orthogonal", "--quiver", ARROW, "--ring", "Z6",
            "--element", E3, "--element", E4,
        )
        assert code == 0
        assert report["result"]["strongly_orthogonal"] is True
        assert report["result"]["bruteforce"] is True

    def test_full_family(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps([json.loads(E3), json.loads(E4)]))
        code, report = run(
            capsys, "full-family", "--quiver", ARROW, "--ring", "Z6",
            "--family", str(fam),
        )
        assert code == 0
        assert report["result"]["full"] is True

    def test_huge_degree_on_acyclic_quiver(self, capsys):
        # paths run out at length 2 on the arrow, so the degree costs nothing
        code, report = run(
            capsys, "orthogonal", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V2, "--element", E_V2, "--degree", str(10**9),
        )
        assert code == 0
        assert report["result"]["bruteforce"] is False

    def test_loop_at_mid_degree(self, capsys):
        # 2002 paths of length <= 1000 holding about 10^6 edge ids: answered
        code, report = run(
            capsys, "orthogonal", "--quiver", LOOP, "--ring", "F2",
            "--element", E_V2, "--element", ZERO, "--degree", "1000",
        )
        assert code == 0
        assert report["result"]["bruteforce"] is True

    def test_loop_at_huge_degree(self, capsys, monkeypatch):
        # the edge id bound of `paths_up_to` refuses the loop long before 10^9
        monkeypatch.setattr(quivers, "_MAX_EDGE_IDS", 10_000)
        code, report = run(
            capsys, "orthogonal", "--quiver", LOOP, "--ring", "F2",
            "--element", E_V2, "--element", ZERO, "--degree", str(10**9),
        )
        assert code == 2
        assert report["error"]["code"] == "bad-input"
        assert "edge ids at length 100" in report["error"]["message"]

    def test_enumerate_families(self, capsys):
        code, report = run(
            capsys, "enumerate-families", "--quiver", ARROW, "--ring", "F5"
        )
        assert code == 0
        assert report["result"]["families"] == [[["v1", "v2"]]]

    def test_enumerate_families_bound_by_weak_components(self, capsys, monkeypatch):
        def families(vertices, edges=()):
            quiver = json.dumps({"vertices": vertices, "edges": list(edges)})
            return run(capsys, "enumerate-families", "--quiver", quiver, "--ring", "F2")

        names = [f"v{i}" for i in range(20)]
        code, report = families(names[:11])
        assert (code, report["error"]["code"]) == (2, "bad-input")
        assert "11 weak components" in report["error"]["message"]
        # one component of 20 vertices, above the 16 a subset scan takes
        chain = [
            {"id": f"a{i}", "src": u, "dst": w}
            for i, (u, w) in enumerate(zip(names, names[1:]))
        ]
        code, report = families(names, chain)
        assert (code, report["result"]["families"]) == (0, [[sorted(names)]])
        # both sides of the bound, made small: Bell(3) = 5 families
        monkeypatch.setattr(classify, "_MAX_FAMILY_COMPONENTS", 3)
        code, report = families(names[:3])
        assert (code, len(report["result"]["families"])) == (0, 5)
        code, report = families(names[:4])
        assert (code, report["error"]["code"]) == (2, "bad-input")

    def test_enumerate_families_refuses_zn_beyond_certified_range(self, capsys):
        code, report = run(
            capsys, "enumerate-families", "--quiver", ARROW, "--ring", f"Z{2**89}"
        )
        assert code == 2
        assert report["error"]["code"] == "bad-ring"


class TestOracle:
    def test_special_counterexample(self, capsys):
        code, report = run(
            capsys, "oracle-special", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V1, "--max-dim", "2",
        )
        assert code == 0
        assert report["result"]["verdict"] == "counterexample"

    def test_split_consistent(self, capsys):
        unit = json.dumps(
            {
                "terms": [
                    {"path": {"trivial": "v1"}, "coeff": "1"},
                    {"path": {"trivial": "v2"}, "coeff": "1"},
                ]
            }
        )
        code, report = run(
            capsys, "oracle-split", "--quiver", ARROW, "--ring", "F2",
            "--element", unit, "--max-dim", "2",
        )
        assert code == 0
        assert report["result"]["verdict"] == "consistent"

    def test_counted_vectors_build_no_normal_form(self, capsys):
        # e_v2 on the arrow: every dimension vector up to total 80 is counted,
        # and the count of a vector (a, b) needs only min(a, b) + 1, not its
        # forms [I_k 0; 0 0] (365 MB traced for all of them)
        tracemalloc.start()
        try:
            code, report = run(
                capsys, "oracle-special", "--quiver", ARROW, "--ring", "F2",
                "--element", E_V2, "--max-dim", "80",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert report["result"] == {"reps_checked": 46_781, "verdict": "consistent"}
        assert peak < 5 << 20

    @pytest.mark.parametrize("command", ["oracle-special", "oracle-split"])
    def test_max_reps_above_the_index_range(self, capsys, command):
        # a cap of sys.maxsize or more answers as the default cap does,
        # where the free Kronecker edge holds the field elements
        argv = [command, "--quiver", KRONECKER, "--ring", "F2", "--element", E_V1]
        code, report = run(capsys, *argv)
        assert code == 0
        for cap in (sys.maxsize, 2**64):
            code, capped = run(capsys, *argv, "--max-reps", str(cap))
            assert code == 0 and capped["result"] == report["result"]

    def test_huge_field_answers(self, capsys):
        # F_(2^61 - 1): the free Kronecker edge holds only the field
        # elements the cap can reach, not all 2^61 - 1 of them
        code, report = run(
            capsys, "oracle-split", "--quiver", KRONECKER,
            "--ring", f"F{2**61 - 1}", "--element", E_V2, "--max-dim", "3",
        )
        assert code == 0
        assert report["result"] == {
            "verdict": "counterexample",
            "module": {"dims": {"v1": 1, "v2": 1}, "edges": {"a": [["0"]], "b": [["1"]]}},
            "submodule": {"v1": [], "v2": [["1"]]},
        }

    def test_budget_exit_code(self, capsys):
        code, report = run(
            capsys, "oracle-special", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V1, "--max-dim", "3", "--max-reps", "2",
        )
        assert code == 3
        # (0,0) and (0,1) were checked; the cap stopped the walk at (1,0)
        assert report["error"] == {
            "code": "budget-exhausted",
            "message": "representation cap 2 exceeded",
            "reps_checked": 2,
            "reps_built": 0,
            "dims": {"v1": 1, "v2": 0},
        }

    def test_budget_exit_code_at_high_dimension(self, capsys, monkeypatch, fresh_plans):
        # restricted to the dimension vector (8,), the loop that is no anchor
        # runs over 2^64 matrices; no rep but 0 lies in the category of e = 0,
        # so each is skipped and the 1000-rep cap is reached there
        monkeypatch.setattr(
            oracle, "_dim_vectors", lambda n, total: [(8,)] if total == 8 else []
        )
        two_loops = json.dumps(
            {
                "vertices": ["v1"],
                "edges": [
                    {"id": "l", "src": "v1", "dst": "v1"},
                    {"id": "m", "src": "v1", "dst": "v1"},
                ],
            }
        )
        code, report = run(
            capsys, "oracle-special", "--quiver", two_loops, "--ring", "F2",
            "--element", ZERO, "--max-dim", "8", "--max-reps", "1000",
        )
        assert code == 3
        assert report["error"]["code"] == "budget-exhausted"
        assert (report["error"]["reps_checked"], report["error"]["dims"]) == (
            1000, {"v1": 8}
        )

    def test_budget_reports_reps_built(self, capsys):
        # e_v3 on A3: every dimension vector with a nonzero dimension outside
        # the reach {v3} is counted, so the cap is reached with nothing built
        a3 = json.dumps(
            {
                "vertices": ["v1", "v2", "v3"],
                "edges": [
                    {"id": "a", "src": "v1", "dst": "v2"},
                    {"id": "b", "src": "v2", "dst": "v3"},
                ],
            }
        )
        e_v3 = json.dumps({"terms": [{"path": {"trivial": "v3"}, "coeff": "1"}]})
        code, report = run(
            capsys, "oracle-special", "--quiver", a3, "--ring", "F2",
            "--element", e_v3, "--max-dim", "12",
        )
        error = report["error"]
        assert code == 3 and (error["reps_checked"], error["reps_built"]) == (200_000, 0)
        # e_v1 on the arrow: one of the five reps checked is built
        code, report = run(
            capsys, "oracle-special", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V1, "--max-reps", "5",
        )
        error = report["error"]
        assert code == 3 and (error["reps_checked"], error["reps_built"]) == (5, 1)

    def test_zero_max_dim_answers(self, capsys):
        # only the zero rep is checked; it lies in every category
        code, report = run(
            capsys, "oracle-special", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V1, "--max-dim", "0",
        )
        assert code == 0
        assert report["result"] == {"verdict": "consistent", "reps_checked": 1}

    def test_morita_check(self, capsys):
        code, report = run(
            capsys, "morita-check", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V2, "--max-dim", "2",
        )
        assert code == 0
        assert report["result"]["all_bijective"] is True

    def test_morita_check_not_bijective(self, capsys):
        # S = {v1} on the arrow: Hom(S_v1, P_v1) is 0, while its corner
        # Hom(e S_v1, e P_v1) = Hom(F3, F3) is not
        code, report = run(
            capsys, "morita-check", "--quiver", ARROW, "--ring", "F3",
            "--element", E_V1, "--max-dim", "2",
        )
        assert code == 0
        assert report["result"] == {"pairs_checked": 16, "all_bijective": False}


class TestMoritaCheckCorners:
    def test_one_corner_ring_and_one_module_per_rep(self, capsys, monkeypatch):
        a3 = q_a3()
        calls = {"corner_algebra": 0, "corner_module": 0}

        def counting(name):
            inner = getattr(oracle, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(oracle, name, counting(name))
        s = {"v2", "v3"}  # the sink end of a3: left-closed
        elem = {
            "terms": [{"path": {"trivial": v}, "coeff": "1"} for v in sorted(s)]
        }
        code, report = run(
            capsys, "morita-check", "--quiver", json.dumps(a3.to_json()),
            "--ring", "F3", "--element", json.dumps(elem), "--max-dim", "2",
        )
        assert code == 0

        f3 = Ring("Fp", 3)
        e = vertex_idempotent(a3, f3, s)
        budget = OracleBudget(max_total_dim=2)
        reps = [m for m in enumerate_reps(a3, f3, budget) if in_category_e(e, m)]
        assert calls == {"corner_algebra": 1, "corner_module": len(reps)}
        corner = corner_algebra(e)
        cms = [corner_module(e, m, corner) for m in reps]
        results = [
            morita_surrogate_check(m, n, cm, cn)
            for m, cm in zip(reps, cms)
            for n, cn in zip(reps, cms)
        ]
        assert report["result"] == {
            "pairs_checked": len(results),
            "all_bijective": all(r["bijective"] for r in results),
        }


def test_cli_imports_no_private_name():
    # the CLI parses, calls one public check per command and reports; every
    # name it imports from the package is public (a dunder such as
    # __version__ is not private)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "pathidem")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def _unread_public_functions(library: dict, readers: list, readme: str) -> list:
    """The public functions and methods defined at the top of the modules of
    `library` (module name -> source) that no source of `library` or
    `readers` names, as a name, an attribute or an import, and no inline
    code span of `readme` names as `name`, `.name` or `name(`; a dunder is
    not public. Fenced README blocks are CLI sessions, not API."""
    defined, named = [], set()
    for module, source in library.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name))
            elif isinstance(node, ast.ClassDef):
                owner = f"{module}.{node.name}"
                defined += [
                    (owner, f.name) for f in node.body if isinstance(f, ast.FunctionDef)
                ]
    for source in [*library.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    return [
        f"{owner}.{name}"
        for owner, name in defined
        if not name.startswith("_")
        and name not in named
        and not any(
            span == name or re.search(rf"\.{name}\b|\b{name}\(", span) for span in spans
        )
    ]


def test_unread_public_functions_are_found():
    library = {
        "m": "def used(): ...\ndef unused(): ...\ndef in_readme(): ...\n"
        "class C:\n    def meth(self): ...\n    def __str__(self): ...\n"
        "    def _own(self): ...\nused()\n",
        "n": "from m import used\n",
    }
    unread = ["m.unused", "m.in_readme", "m.C.meth"]
    assert _unread_public_functions(library, [], "") == unread
    readme = "Call `in_readme()`.\n```sh\nm.unused\n```\n"
    assert _unread_public_functions(library, ["C().meth()"], readme) == ["m.unused"]


def test_every_public_function_has_a_reader():
    # a public function or method that only the tests reach is a test-only
    # reader: the tests keep their own (tests/reference.py), so the library
    # is not graded against a second copy of itself
    library = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "src" / "pathidem").glob("*.py"))
    }
    readers = [
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _unread_public_functions(library, readers, readme) == []


class TestCategoryBySupport:
    """morita-check counts a rep that is 0 off S, the trivial support of e,
    as in Ae-Mod without computing Γ_e: there e_S M = M, so eM = M for an
    idempotent e over a field on an acyclic quiver. On the acyclic quivers of
    sweep_quivers(3, 3, 60) over F_2 and F_3, for every e_S (left-closed S
    or not), a conjugate of each, and idempotents with path terms."""

    BUDGET = OracleBudget(max_total_dim=2)
    CASES = [
        (q, Ring("Fp", p)) for q in sweep_quivers(3, 3, 60) if q.is_acyclic for p in (2, 3)
    ]

    @staticmethod
    def _elements(q, ring):
        rng = random.Random(f"support-{q}-{ring}")
        out = []
        for k in range(1, len(q.vertices) + 1):
            for s in combinations(q.vertices, k):
                e = vertex_idempotent(q, ring, s)
                out += [e, conjugate(e, rng)]
        return out + path_term_idempotents(q, ring, rng, 4)

    def test_rule_holds_and_reports_match_gamma(self, capsys):
        seen = {"off-S zero": 0, "off-S nonzero": 0, "outside": 0, "not bijective": 0}
        for q, ring in self.CASES:
            for e in self._elements(q, ring):
                s = {p.vertex for p, _ in e.terms if p.is_trivial}
                inside = []
                for m in enumerate_reps(q, ring, self.BUDGET, skip=_outside_reach(e)):
                    if isinstance(m, int):
                        continue
                    member = in_category_e(e, m)
                    if any(m.dims[v] for v in q.vertices if v not in s):
                        seen["off-S nonzero"] += 1
                        seen["outside"] += not member
                    else:
                        assert member, (e, m)
                        seen["off-S zero"] += 1
                    if member:
                        inside.append(m)
                corner = corner_algebra(e)
                cms = [corner_module(e, m, corner) for m in inside]
                results = [
                    morita_surrogate_check(m, n, cm, cn)["bijective"]
                    for m, cm in zip(inside, cms)
                    for n, cn in zip(inside, cms)
                ]
                code, report = run(
                    capsys, "morita-check", "--quiver", json.dumps(q.to_json()),
                    "--ring", f"F{ring.modulus}", "--element", json.dumps(e.to_json()),
                    "--max-dim", "2",
                )
                assert code == 0
                assert report["result"] == {
                    "pairs_checked": len(results),
                    "all_bijective": all(results),
                }, e
                seen["not bijective"] += not all(results)
        assert all(seen.values()), seen


ARROW_NO_DST = json.dumps({"vertices": ["v1", "v2"], "edges": [{"id": "a", "src": "v1"}]})


def _element(**term):
    return json.dumps({"terms": [{"path": {"trivial": "v1"}, **term}]})


def _element_at(path):
    return json.dumps({"terms": [{"path": path, "coeff": "1"}]})


MALFORMED = {
    "edge-without-dst": ("validate", ARROW_NO_DST, "F5", None, "bad-quiver"),
    "edges-not-a-list": (
        "validate", json.dumps({"vertices": ["v1"], "edges": "a"}), "F5", None,
        "bad-quiver",
    ),
    "fp-without-p": ("validate", ARROW, '{"ring":"Fp"}', None, "bad-ring"),
    # ambiguous objects: a second modulus key, a path with both keys
    "q-with-p": ("validate", ARROW, '{"ring":"Q","p":5}', None, "bad-ring"),
    "path-trivial-and-edges": (
        "classify", ARROW, "F5", _element_at({"trivial": "v2", "edges": ["a"]}),
        "bad-element",
    ),
    "path-trivial-and-junk-edges": (
        "classify", ARROW, "F5", _element_at({"trivial": "v2", "edges": "junk"}),
        "bad-element",
    ),
    "term-without-coeff": ("classify", ARROW, "F5", _element(), "bad-element"),
    "terms-not-a-list": (
        "classify", ARROW, "F5", json.dumps({"terms": json.loads(E_V2)["terms"][0]}),
        "bad-element",
    ),
    "duplicate-path": (
        "classify", ARROW, "F5",
        json.dumps({"terms": 2 * json.loads(E_V2)["terms"]}), "bad-element",
    ),
    "edge-with-int-src": (
        "validate",
        json.dumps({"vertices": ["v1"], "edges": [{"id": "a", "src": 1, "dst": "v1"}]}),
        "F5", None, "bad-quiver",
    ),
    "morita-check-on-a-cycle": ("morita-check", LOOP, "F2", E_V1, "cyclic-quiver"),
    # an unknown or misspelt key is refused, not dropped
    "fp-with-modulus": (
        "classify", ARROW, '{"ring":"Fp","p":5,"modulus":7}', E_V2, "bad-ring"
    ),
    "q-with-note": ("classify", ARROW, '{"ring":"Q","note":1}', E_V2, "bad-ring"),
    "edge-with-dts": (
        "classify",
        json.dumps({"vertices": ["v1", "v2"],
                    "edges": [{"id": "a", "src": "v1", "dst": "v2", "dts": "v2"}]}),
        "F5", E_V2, "bad-quiver",
    ),
    # read as a quiver with no edges, e_v2 would answer split: true
    "quiver-with-edgs": (
        "classify",
        json.dumps({"vertices": ["v1", "v2"],
                    "edgs": [{"id": "a", "src": "v1", "dst": "v2"}]}),
        "F5", E_V2, "bad-quiver",
    ),
    "path-trivial-and-edge": (
        "classify", ARROW, "F5", _element_at({"trivial": "v2", "edge": ["a"]}),
        "bad-element",
    ),
    "term-with-coef": (
        "classify", ARROW, "F5", _element(coeff="1", coef="2"), "bad-element"
    ),
    "element-with-name": (
        "classify", ARROW, "F5", json.dumps({**json.loads(E_V2), "name": "e_v2"}),
        "bad-element",
    ),
    "coeff-abc-over-f5": ("classify", ARROW, "F5", _element(coeff="abc"), "bad-element"),
    "coeff-1/0-over-q": ("classify", ARROW, "Q", _element(coeff="1/0"), "bad-element"),
    "coeff-exponent-over-q": (
        "classify", ARROW, "Q", _element(coeff="1e999999999"), "bad-element"
    ),
    "coeff-1/2-over-f5": ("classify", ARROW, "F5", _element(coeff="1/2"), "bad-element"),
    "coeff-float-over-f5": ("classify", ARROW, "F5", _element(coeff=1.5), "bad-element"),
    "coeff-bool-over-f5": ("classify", ARROW, "F5", _element(coeff=True), "bad-element"),
    # digits are ASCII only: int() and Fraction() also take other scripts'
    # digits and "_" separators
    "ring-arabic-indic-five": ("validate", ARROW, "F\u0665", None, "bad-ring"),
    "coeff-1_000-over-f5": ("classify", ARROW, "F5", _element(coeff="1_000"), "bad-element"),
    "coeff-arabic-indic-three-over-f5": (
        "classify", ARROW, "F5", _element(coeff="\u0663"), "bad-element"
    ),
    "coeff-1_0/3-over-q": ("classify", ARROW, "Q", _element(coeff="1_0/3"), "bad-element"),
    "coeff-padded-over-f5": ("classify", ARROW, "F5", _element(coeff=" 1"), "bad-element"),
    # longer than int() converts (4300 digits by default from Python 3.11 on)
    "ring-F-5000-digits": ("validate", ARROW, "F" + "7" * 5000, None, "bad-ring"),
    "ring-Z-5000-digits": ("validate", ARROW, "Z" + "7" * 5000, None, "bad-ring"),
    "json-p-5000-digits": (
        "validate", ARROW, '{"ring":"Fp","p":%s}' % ("7" * 5000), None,
        "malformed-json",
    ),
    "json-coeff-5000-digits": (
        "classify", ARROW, "F5",
        '{"terms":[{"path":{"trivial":"v1"},"coeff":%s}]}' % ("7" * 5000),
        "malformed-json",
    ),
}


class TestErrors:
    @pytest.mark.parametrize(
        "command,quiver,ring,element,code", MALFORMED.values(), ids=MALFORMED.keys()
    )
    def test_malformed_input_exits_2(self, capsys, command, quiver, ring, element, code):
        argv = [command, "--quiver", quiver, "--ring", ring]
        if element is not None:
            argv += ["--element", element]
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert json.loads(captured.out)["error"]["code"] == code
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "kind,code",
        [("directory", "unreadable-file"), ("not-utf8", "malformed-json"),
         ("deeply-nested", "malformed-json")],
    )
    def test_unreadable_quiver_file_exits_2(self, tmp_path, kind, code):
        path = tmp_path / "quiver.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        else:
            path.write_text("[" * 200_000)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = main(["validate", "--quiver", str(path), "--ring", "F5"])
        assert exit_code == 2
        assert json.loads(out.getvalue())["error"]["code"] == code
        assert "Traceback" not in err.getvalue()

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        (tmp_path / "taken").mkdir()
        for out in (tmp_path / "missing" / "r.json", tmp_path / "taken"):
            code, report = run(
                capsys, "validate", "--quiver", ARROW, "--ring", "F5",
                "--out", str(out),
            )
            assert code == 2
            assert report["error"]["code"] == "bad-output"
        # no temporary file is left next to either target
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list((tmp_path / "taken").iterdir()) == []

    def test_negative_degree(self, capsys):
        code, report = run(
            capsys, "orthogonal", "--quiver", ARROW, "--ring", "F5",
            "--element", E_V2, "--element", E_V2, "--degree", "-1",
        )
        assert code == 2
        assert report["error"]["code"] == "oracle-error"

    @pytest.mark.parametrize(
        "flag, value, bound",
        [("--max-dim", "-1", "max_total_dim must be >= 0"),
         ("--max-reps", "0", "max_reps must be >= 1")],
    )
    def test_bad_budget_names_its_bound(self, capsys, flag, value, bound):
        code, report = run(
            capsys, "oracle-special", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V1, flag, value,
        )
        assert code == 2
        assert report["error"] == {"code": "oracle-error", "message": bound}

    def test_morita_check_non_idempotent(self, capsys):
        two_e_v2 = json.dumps({"terms": [{"path": {"trivial": "v2"}, "coeff": "2"}]})
        code, report = run(
            capsys, "morita-check", "--quiver", ARROW, "--ring", "F5",
            "--element", two_e_v2, "--max-dim", "2",
        )
        assert code == 2
        assert report["error"]["code"] == "bad-input"

    def test_morita_check_over_zn(self, capsys):
        # 3 * e_v2 is idempotent over Z/6; the corner ring needs a field
        three_e_v2 = json.dumps({"terms": [{"path": {"trivial": "v2"}, "coeff": "3"}]})
        code, report = run(
            capsys, "morita-check", "--quiver", ARROW, "--ring", "Z6",
            "--element", three_e_v2,
        )
        assert code == 2
        assert report["error"]["code"] == "bad-input"

    @pytest.mark.parametrize(
        "command",
        ["classify", "standard-form", "oracle-special", "oracle-split", "morita-check"],
    )
    def test_second_element_refused(self, capsys, command):
        # a second --element was once dropped silently, with the input hash
        # of the first alone
        code, report = run(
            capsys, command, "--quiver", ARROW, "--ring", "F2",
            "--element", E_V2, "--element", E_V1,
        )
        assert code == 2
        assert report["error"]["code"] == "bad-arguments"
        assert "exactly one --element" in report["error"]["message"]

    @pytest.mark.parametrize("element", [E_V2, "{junk"], ids=["well-formed", "malformed"])
    @pytest.mark.parametrize("command", ["full-family", "enumerate-families"])
    def test_element_refused_where_none_is_read(self, capsys, tmp_path, command, element):
        # once accepted, ignored and left out of the input hash
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps([json.loads(E_V2)]))
        code, report = run(
            capsys, command, "--quiver", ARROW, "--ring", "F5",
            "--family", str(fam), "--element", element,
        )
        assert code == 2
        assert report["error"]["code"] == "bad-arguments"
        assert report["error"]["message"] == f"{command} takes no --element"

    @pytest.mark.parametrize("count", [1, 3])
    def test_orthogonal_needs_two_elements(self, capsys, count):
        argv = ["orthogonal", "--quiver", ARROW, "--ring", "F2"]
        argv += ["--element", E_V2] * count
        code, report = run(capsys, *argv)
        assert code == 2
        assert report["error"]["code"] == "bad-arguments"

    def test_malformed_quiver(self, capsys):
        code, report = run(
            capsys, "validate", "--quiver", "{not json", "--ring", "F5"
        )
        assert code == 2
        assert report["error"]["code"] == "malformed-json"

    def test_bad_ring(self, capsys):
        code, report = run(capsys, "validate", "--quiver", ARROW, "--ring", "F6")
        assert code == 2
        assert report["error"]["code"] == "bad-ring"

    def test_bad_element_path(self, capsys):
        bad = json.dumps({"terms": [{"path": {"trivial": "vX"}, "coeff": "1"}]})
        code, report = run(
            capsys, "classify", "--quiver", ARROW, "--ring", "F5", "--element", bad
        )
        assert code == 2
        assert report["error"]["code"] == "bad-element"

    def test_large_prime_ring(self, capsys):
        code, report = run(
            capsys, "validate", "--quiver", ARROW, "--ring", "F1000000000000000003"
        )
        assert code == 0
        # 2^89 - 1 is prime, but beyond the range Miller-Rabin certifies
        code, report = run(
            capsys, "validate", "--quiver", ARROW, "--ring", f"F{2**89 - 1}"
        )
        assert code == 2
        assert report["error"]["code"] == "bad-ring"

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--quiver", ARROW, "--ring", "F5", "--element", "-3.9e-276"],
            ["validate", "--quiver", ARROW],
            ["classify", "--quiver", ARROW, "--ring", "F5", "--max-dim", "two"],
            ["frobnicate", "--quiver", ARROW, "--ring", "F5"],
        ],
        ids=["option-like-element", "missing-ring", "bad-int", "bad-command"],
    )
    def test_argument_errors_give_json(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2
        assert json.loads(out.getvalue())["error"]["code"] == "bad-arguments"
        assert "Traceback" not in err.getvalue()

    def test_help_exits_0(self, capsys):
        # twice in one process: the first exit leaves nothing behind
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_missing_element(self, capsys):
        code, report = run(capsys, "classify", "--quiver", ARROW, "--ring", "F5")
        assert code == 2
        assert report["error"]["code"] == "bad-arguments"

    def test_orthogonal_needs_two(self, capsys):
        code, report = run(
            capsys, "orthogonal", "--quiver", ARROW, "--ring", "F5",
            "--element", E_V2,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "family,want",
        [
            ({"terms": []}, "bad-family"),  # not a JSON list
            ([json.loads(E_V1)], "not-special"),  # e_v1 on the arrow
        ],
        ids=["not-a-list", "non-special-member"],
    )
    def test_bad_family(self, capsys, tmp_path, family, want):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(family))
        code, report = run(
            capsys, "full-family", "--quiver", ARROW, "--ring", "F5", "--family", str(fam)
        )
        assert (code, report["error"]["code"]) == (2, want)

    def test_full_family_needs_family(self, capsys):
        code, report = run(capsys, "full-family", "--quiver", ARROW, "--ring", "F5")
        assert (code, report["error"]["code"]) == (2, "bad-arguments")
        assert report["error"]["message"] == "full-family needs --family"

    def test_orthogonal_rejects_non_special(self, capsys):
        code, report = run(
            capsys, "orthogonal", "--quiver", ARROW, "--ring", "F5",
            "--element", E_V1, "--element", E_V2,
        )
        assert code == 2
        assert report["error"]["code"] == "not-special"


class TestEmit:
    def test_large_report_is_streamed(self, tmp_path):
        # about 1.9 MB of text: neither stdout nor --out is handed a copy of
        # it, and both get the bytes json.dumps would give
        report = {"result": {"families": [f"v{i}" * 100 for i in range(4000)]}}
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        stdout, out = tmp_path / "stdout.json", tmp_path / "out.json"
        with open(stdout, "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
            tracemalloc.start()
            try:
                cli._emit(report, None)
                cli._emit(report, str(out))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert stdout.read_bytes() == text.encode() == out.read_bytes()
        assert peak < len(text) // 20


class TestCallsInSequence:
    """Calls of `main` in one process, as the benchmark and these tests make
    them: no option of a call may reach the next."""

    CLASSIFY = ["classify", "--quiver", ARROW, "--ring", "F5"]

    def test_element_is_not_carried_over(self, capsys):
        assert run(capsys, *self.CLASSIFY, "--element", E_V2)[0] == 0
        code, report = run(capsys, *self.CLASSIFY)
        assert code == 2
        assert report["error"]["code"] == "bad-arguments"

    def test_out_is_not_carried_over(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main([*self.CLASSIFY, "--element", E_V2, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        code, report = run(capsys, *self.CLASSIFY, "--element", E_V2)
        assert code == 0
        assert report == json.loads(out.read_text())

    def test_one_parser_reports_as_fresh_processes(self, capsys):
        # `main` parses with one module-level parser: a usage error and then
        # good calls in this process report what one fresh process per call
        # reports, and leave the parser's actions as they were
        def actions():
            return repr([vars(a) for a in cli._PARSER._actions])

        before = actions()
        calls = [
            ["classify", "--quiver", ARROW, "--ring", "F5", "--element", E_V2, "--bogus"],
            [*self.CLASSIFY, "--element", E_V2],
            ["classify", "--quiver", ARROW],
            ["orthogonal", "--quiver", ARROW, "--ring", "Z6", "--element", E3,
             "--element", E4, "--degree", "1"],
        ]
        here = [run(capsys, *argv) for argv in calls]
        assert actions() == before
        assert [code for code, _ in here] == [2, 0, 2, 0]
        assert here == [_fresh_process(argv) for argv in calls]

    def test_valid_call_after_a_usage_error(self, capsys):
        code, report = run(capsys, "classify", "--quiver", ARROW)
        assert (code, report["error"]["code"]) == (2, "bad-arguments")
        code, report = run(capsys, *self.CLASSIFY, "--element", E_V2)
        assert code == 0
        assert report["result"]["special"] is True


class TestInputHash:
    """The input hash covers what decides the result: the parsed elements,
    the resolved oracle budget and the resolved truncation degree."""

    @staticmethod
    def hash_of(capsys, *argv) -> str:
        code, report = run(capsys, *argv)
        assert code == 0
        return report["input_hash"]

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_file_and_inline_element_hash_alike(self, capsys, tmp_path, command):
        path = tmp_path / "e.json"
        path.write_text(E_V2)
        argv = [command, "--quiver", ARROW, "--ring", "F5", "--element"]
        spread = json.dumps(json.loads(E_V2), indent=4)
        assert (
            self.hash_of(capsys, *argv, str(path))
            == self.hash_of(capsys, *argv, E_V2)
            == self.hash_of(capsys, *argv, spread)
        )

    def test_one_path_with_two_contents_hashes_apart(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        argv = ["validate", "--quiver", ARROW, "--ring", "F5", "--element", str(path)]
        path.write_text(E_V1)
        first = self.hash_of(capsys, *argv)
        path.write_text(E_V2)
        assert self.hash_of(capsys, *argv) != first

    @pytest.mark.parametrize("command", ["oracle-special", "oracle-split", "morita-check"])
    def test_budget_is_hashed(self, capsys, command):
        argv = [command, "--quiver", ARROW, "--ring", "F2", "--element", E_V2]
        assert self.hash_of(capsys, *argv, "--max-dim", "1") != self.hash_of(
            capsys, *argv, "--max-dim", "2"
        )
        # the defaults given explicitly resolve to the same budget
        assert self.hash_of(
            capsys, *argv, "--max-dim", "3", "--max-reps", "200000"
        ) == self.hash_of(capsys, *argv)

    def test_degree_is_hashed(self, capsys):
        argv = ["orthogonal", "--quiver", ARROW, "--ring", "F2"]
        argv += ["--element", E_V2, "--element", E_V2]
        assert self.hash_of(capsys, *argv, "--degree", "1") != self.hash_of(
            capsys, *argv, "--degree", "2"
        )
        # the default degree is the vertex count, 2 on the arrow
        assert self.hash_of(capsys, *argv, "--degree", "2") == self.hash_of(capsys, *argv)


def test_validate_reports_sizes(capsys):
    code, report = run(
        capsys, "validate", "--quiver", ARROW, "--ring", "Q", "--element", E_V2
    )
    assert code == 0
    assert report["result"] == {"ok": True, "vertices": 2, "edges": 1, "elements": 1}
    assert len(report["input_hash"]) == 64


_NAMES = st.sampled_from(["v1", "v2", "v3", "a", "b"])
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 7), st.floats(-2, 2))
_NAME_OR_JUNK = st.one_of(_NAMES, _JUNK)
_EDGES = st.lists(
    st.dictionaries(st.sampled_from(["id", "src", "dst"]), _NAME_OR_JUNK, max_size=3),
    max_size=3,
)
_MALFORMED_QUIVERS = st.fixed_dictionaries(
    {"vertices": st.lists(_NAME_OR_JUNK, max_size=3)},
    optional={"edges": st.one_of(_EDGES, _JUNK, _NAMES)},
)
# distinct vertices among v1..v3 with edges a, b, c between them, so that a
# good share of the examples gets past the quiver parser into the handlers
_WELL_FORMED_QUIVERS = st.lists(
    st.sampled_from(["v1", "v2", "v3"]), min_size=1, max_size=3, unique=True
).flatmap(
    lambda vs: st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=3).map(
        lambda ends: {
            "vertices": vs,
            "edges": [{"id": e, "src": s, "dst": t} for e, (s, t) in zip("abc", ends)],
        }
    )
)
_QUIVERS = st.one_of(_WELL_FORMED_QUIVERS, _MALFORMED_QUIVERS)
_PATHS = st.one_of(
    st.fixed_dictionaries({"trivial": _NAME_OR_JUNK}),
    st.fixed_dictionaries({"edges": st.lists(_NAME_OR_JUNK, max_size=3)}),
    _JUNK,
)
_COEFFS = st.one_of(
    st.integers(-7, 7),
    st.sampled_from(["1", "-2", "3", "1/2", "0.5", "abc", "1/0", ""]),
    _JUNK,
)
_TERMS = st.fixed_dictionaries({}, optional={"path": _PATHS, "coeff": _COEFFS})
_ELEMENTS = st.one_of(
    st.fixed_dictionaries({"terms": st.lists(_TERMS, max_size=3)}), _JUNK
)
# six valid rings to two malformed ones
_RINGS = st.sampled_from(
    [
        "F2", "F3", "F5", "Z6", "Q", '{"ring":"Fp","p":3}',
        '{"ring":"Zn","n":4.5}', '{"ring":"Fp"}',
    ]
)


COMMANDS = [
    "validate", "classify", "standard-form", "orthogonal", "full-family",
    "enumerate-families", "oracle-special", "oracle-split", "morita-check",
]
BUDGETED = {"oracle-special", "oracle-split", "morita-check"}


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    quiver=_QUIVERS,
    ring=_RINGS,
    elements=st.lists(_ELEMENTS, min_size=2, max_size=2),
    degree=st.integers(-1, 3),
    max_dim=st.integers(0, 2),
)
def test_json_inputs_never_crash(command, quiver, ring, elements, degree, max_dim):
    argv = [command, "--quiver", json.dumps(quiver), "--ring", ring]
    # "--element=..." so that a bare negative number is not read as an option
    given_elements = [f"--element={json.dumps(e)}" for e in elements]
    if command == "orthogonal":
        argv += [*given_elements, f"--degree={degree}"]
    elif command == "full-family":
        argv.append(f"--family={json.dumps(elements)}")
    elif command != "enumerate-families":
        argv.append(given_elements[0])
    if command in BUDGETED:
        argv += [f"--max-dim={max_dim}", "--max-reps=2000"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    report = json.loads(out.getvalue())
    assert ("error" in report) == (code != 0)


CHAIN = json.dumps(
    {
        "vertices": [f"v{i}" for i in range(1200)],
        "edges": [
            {"id": f"a{i}", "src": f"v{i}", "dst": f"v{i + 1}"} for i in range(1199)
        ],
    }
)


@pytest.mark.parametrize(
    "command, code",
    [("oracle-special", 0), ("oracle-split", 0), ("morita-check", 0)],
)
def test_long_chain_gives_a_report(capsys, command, code):
    # 1200 vertices, deeper than the recursion limit: acyclicity and the
    # dimension vectors are found without recursion. Q_S of the sink is one
    # vertex with no arrow, found without building the paths of the chain
    # (together they exceed the edge id bound of `paths_up_to`)
    sink = json.dumps({"terms": [{"path": {"trivial": "v1199"}, "coeff": "1"}]})
    exit_code = main(
        [command, "--quiver", CHAIN, "--ring", "F2", "--element", sink, "--max-dim", "0"]
    )
    captured = capsys.readouterr()
    assert exit_code == code
    assert captured.err == ""
    report = json.loads(captured.out)
    if command == "morita-check":
        assert report["result"] == {"pairs_checked": 1, "all_bijective": True}
    else:
        assert report["result"] == {"verdict": "consistent", "reps_checked": 1}


# 40 diamonds in series, v0 -> {x_i, y_i} -> v40: 2^40 paths from v0 to v40
DIAMONDS = json.dumps(
    {
        "vertices": [f"v{i}" for i in range(41)]
        + [f"{c}{i}" for i in range(40) for c in "xy"],
        "edges": [
            {"id": f"{c}{d}{i}", "src": src, "dst": dst}
            for i in range(40)
            for c in "xy"
            for d, src, dst in (
                ("in", f"v{i}", f"{c}{i}"), ("out", f"{c}{i}", f"v{i + 1}")
            )
        ],
    }
)


@pytest.mark.parametrize("support", [["v0", "v40"], ["v0"]])
def test_diamond_chain_is_refused(capsys, support):
    # Q_S has 2^40 arrows (S = {v0, v40}), or the walk out of S = {v0}
    # meets 2^40 paths that never return to S: both stop at the edge id
    # bound instead of exhausting time or memory
    element = json.dumps(
        {"terms": [{"path": {"trivial": v}, "coeff": "1"} for v in support]}
    )
    exit_code = main(
        ["morita-check", "--quiver", DIAMONDS, "--ring", "F2",
         "--element", element, "--max-dim", "1"]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["error"]["code"] == "bad-input"
    assert "paths out of S hold more than" in report["error"]["message"]


@pytest.mark.parametrize(
    "ring, code, key, value",
    [
        ("F1000000007", 0, "result", {"families": [[["v1", "v2"]]]}),
        ("Z10000000000", 2, "error", {"code": "nontrivial-idempotents"}),
        (f"Z{1000000007**2}", 0, "result", {"families": [[["v1", "v2"]]]}),
    ],
)
def test_enumerate_families_on_a_large_ring(tmp_path, ring, code, key, value):
    # the ring's idempotents are never listed: scanning every residue ran
    # past 20 s for the first two
    proc = subprocess.run(
        [sys.executable, "-m", "pathidem.cli", "enumerate-families",
         "--quiver", ARROW, "--ring", ring],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == code
    assert value.items() <= json.loads(proc.stdout)[key].items()


@pytest.mark.parametrize("ring", ["F2305843009213693951", "F1000003"])
def test_split_oracle_refuses_a_huge_subspace_table(tmp_path, ring):
    # F_p^2 has p + 3 subspaces: the first ran out of memory building them
    # (a traceback and exit 1), the second took 30 s and 626 MB
    proc = subprocess.run(
        [sys.executable, "-m", "pathidem.cli", "oracle-split", "--quiver", ARROW,
         "--ring", ring, "--element", E_V1, "--max-dim", "3"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    error = json.loads(proc.stdout)["error"]
    assert error["code"] == "oracle-error"
    assert f"F_{ring[1:]}^2 has more than" in error["message"]


def _fresh_process(argv: list[str]) -> tuple[int, dict]:
    """(exit code, report) of one CLI call in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "pathidem.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, json.loads(proc.stdout)


def test_closed_stdout_exits_2_quietly(tmp_path):
    # the families of 8 isolated vertices fill about 900 KB; the reader
    # takes 20 bytes and closes the pipe: no traceback, no second report
    quiver = json.dumps({"vertices": [f"v{i}" for i in range(8)]})
    proc = subprocess.Popen(
        [sys.executable, "-m", "pathidem.cli", "enumerate-families",
         "--quiver", quiver, "--ring", "F2"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
    assert head == b'{\n  "command": "enum'
    assert err == b""


def _readme_example() -> list[str]:
    """The arguments of the `pathidem classify` example in the README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    example = text.split("```sh\npathidem classify", 1)[1].split("```", 1)[0]
    return ["classify", *shlex.split(example.replace("\\\n", " "))]


def test_readme_command_table():
    # the command table under README "CLI" lists exactly the commands of
    # `cli._COMMANDS`, in order, each with the `--element` count the CLI
    # enforces, and the oracle caps with `OracleBudget`'s defaults
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [row[0].strip("`") for row in rows] == list(cli._COMMANDS)
    counts = {None: "any number", 0: "none (refused)", 1: "exactly 1", 2: "exactly 2"}
    caps = {"--max-dim": OracleBudget.max_total_dim, "--max-reps": OracleBudget.max_reps}
    defaults = 0
    for command, element, other, _ in rows:
        assert element == counts[cli._COMMANDS[command.strip("`")][0]], command
        for flag, default in re.findall(r"`(--max-[a-z]+)` \((\d+)\)", other):
            assert int(default) == caps[flag], (command, flag)
            defaults += 1
    assert defaults == 6  # both caps on each of the three oracle rows


@pytest.mark.parametrize(
    "argv, code, key, value",
    [
        (None, 0, "result", {"split": False, "special": True}),
        (
            ["classify", "--quiver", ARROW, "--ring", "F5", "--element",
             _element(coeff="abc")],
            2, "error", {"code": "bad-element"},
        ),
        (
            ["oracle-special", "--quiver", ARROW, "--ring", "F2", "--element", E_V1,
             "--max-reps", "1"],
            3, "error",
            {
                "code": "budget-exhausted",
                "reps_checked": 1,
                "reps_built": 0,
                "dims": {"v1": 0, "v2": 1},
            },
        ),
        (
            ["morita-check", "--quiver", ARROW, "--ring", "F2", "--max-dim", "2",
             "--element", E_V2],
            0, "result", {"all_bijective": True},
        ),
        # a quiver with no vertex has reps of total 0 only, so the cap on
        # reps never fires: each answer is the one at --max-dim 3, where
        # walking every total up to --max-dim took 8 s at 3,000,000
        *(
            ([command, "--quiver", '{"vertices":[]}', "--ring", "F2", "--element",
              ZERO, "--max-dim", "1000000000"], 0, "result", answer)
            for command, answer in [
                ("oracle-special", {"verdict": "consistent", "reps_checked": 1}),
                ("oracle-split", {"verdict": "consistent", "reps_checked": 1}),
                ("morita-check", {"all_bijective": True, "pairs_checked": 1}),
            ]
        ),
    ],
    ids=["readme-example", "malformed-element", "budget", "morita-check",
         "empty-quiver-oracle-special", "empty-quiver-oracle-split",
         "empty-quiver-morita-check"],
)
def test_cli_process(tmp_path, argv, code, key, value):
    # a fresh interpreter with only src on the path, outside the checkout: one
    # call per process, as the console script makes it
    proc = subprocess.run(
        [sys.executable, "-m", "pathidem.cli", *(argv or _readme_example())],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert value.items() <= report[key].items()
