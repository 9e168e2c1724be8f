import json

import pytest

from pathidem import __version__
from pathidem.cli import main

ARROW = json.dumps(
    {
        "vertices": ["v1", "v2"],
        "edges": [{"id": "a", "src": "v1", "dst": "v2"}],
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

    def test_enumerate_families(self, capsys):
        code, report = run(
            capsys, "enumerate-families", "--quiver", ARROW, "--ring", "F5"
        )
        assert code == 0
        assert report["result"]["families"] == [[["v1", "v2"]]]


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

    def test_budget_exit_code(self, capsys):
        code, report = run(
            capsys, "oracle-special", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V1, "--max-dim", "3", "--max-reps", "2",
        )
        assert code == 3
        assert report["error"]["code"] == "budget-exhausted"

    def test_morita_check(self, capsys):
        code, report = run(
            capsys, "morita-check", "--quiver", ARROW, "--ring", "F2",
            "--element", E_V2, "--max-dim", "2",
        )
        assert code == 0
        assert report["result"]["all_bijective"] is True


class TestErrors:
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

    def test_orthogonal_rejects_non_special(self, capsys):
        code, report = run(
            capsys, "orthogonal", "--quiver", ARROW, "--ring", "F5",
            "--element", E_V1, "--element", E_V2,
        )
        assert code == 2
        assert report["error"]["code"] == "not-special"


def test_validate_reports_sizes(capsys):
    code, report = run(
        capsys, "validate", "--quiver", ARROW, "--ring", "Q", "--element", E_V2
    )
    assert code == 0
    assert report["result"] == {"ok": True, "vertices": 2, "edges": 1, "elements": 1}
    assert len(report["input_hash"]) == 64
