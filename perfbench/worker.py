"""One benchmark process: set up a workload, then measure it.

Started by run.py in a fresh interpreter. It prints `READY` once its inputs
are built (run.py times set-up up to that line), then, unless
`--setup-only`, runs the measurement and prints one JSON line.

Untraced: whole passes over the workload in a closed loop with one client,
until at least `--seconds` have passed, so every run does the same work per
pass. Each latency is also scaled by the mean of the host-speed references
measured just before and just after it, at most REFERENCE_EVERY_S apart
unless the case itself is longer (see hostspeed.py). Traced: one untraced
pass, then the same pass under the tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)
from hostspeed import NOMINAL_S, reference_seconds  # noqa: E402
from tracer import RING_OPS, Tracer  # noqa: E402

EXPECTED_DIGESTS = HERE / "expected_digests.json"
SPAN_DIR = HERE / "out"
REFERENCE_EVERY_S = 0.1


class Pass:
    """The outcome of running every case once. Decisions are kept only as a
    digest, so memory does not grow with the number of passes."""

    def __init__(self):
        self.latencies = array("d")
        self.references = array("d")
        # index into references of the last reference taken before each case
        self.reference_before = array("l")
        self.decisions = hashlib.sha256()
        self.cases = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall = 0.0

    @property
    def digest(self) -> str:
        return self.decisions.hexdigest()


def run_pass(cases, tracer=None) -> Pass:
    p = Pass()
    started = time.perf_counter()
    last_reference = -REFERENCE_EVERY_S
    for i, case in enumerate(cases):
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            p.references.append(reference_seconds())
            last_reference = time.perf_counter()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = case.run()
            else:
                with tracer.case(case.kind):
                    answer = case.run()
        except Exception as exc:  # a failing case is counted, the run goes on
            answer, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        p.latencies.append(time.perf_counter() - t0)
        p.reference_before.append(len(p.references) - 1)
        bits, ok = "E", False
        if problem is None:
            try:
                bits, ok = case.judge(answer)
            except Exception as exc:
                problem = f"answer could not be checked: {type(exc).__name__}: {exc}"
            else:
                problem = None if ok else f"gave a wrong answer {answer!r:.200}"
        if problem is not None and len(p.errors) < 5:
            p.errors.append(f"case {i} ({case.kind}) {problem}")
        p.decisions.update(bits.encode() + b"|")
        p.cases += 1
        p.failed += not ok
    p.references.append(reference_seconds())
    p.wall = time.perf_counter() - started
    return p


def scaled_latencies(p: Pass) -> array:
    refs = p.references
    return array("d", (
        latency * NOMINAL_S * 2 / (refs[i] + refs[i + 1])
        for latency, i in zip(p.latencies, p.reference_before)
    ))


def check_digest(workload: str, seed: int, first: Pass, others: list[Pass]) -> list[str]:
    """Decisions must repeat in every pass and, for the acceptance seed,
    match the stored digest."""
    problems = []
    if any(p.digest != first.digest for p in others):
        problems.append("decisions differ between passes of one run")
    if seed == workloads.ACCEPTANCE_SEED:
        stored = json.loads(EXPECTED_DIGESTS.read_text())[workload]
        got = {"cases": first.cases, "sha256": first.digest}
        if got != stored:
            problems.append(f"decision digest {got} differs from the stored {stored}")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_metrics(latencies) -> dict:
    return {
        "cases_per_s": len(latencies) / sum(latencies),
        "case_p50_ms": statistics.median(latencies) * 1e3,
        "case_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def measure(cases, seconds: float) -> dict:
    passes = [run_pass(cases)]
    while sum(p.wall for p in passes) < seconds:
        passes.append(run_pass(cases))
    raw, scaled, references = array("d"), array("d"), array("d")
    for p in passes:
        raw.extend(p.latencies)
        scaled.extend(scaled_latencies(p))
        references.extend(p.references)
    raw_metrics = latency_metrics(raw)
    return {
        "passes": passes,
        "metrics": {**latency_metrics(scaled), "peak_rss_mb": peak_rss_mb()},
        "info": {
            "passes": len(passes),
            "latency_samples": len(raw),
            "wall_s": sum(p.wall for p in passes),
            "host_speed": NOMINAL_S / statistics.median(references),
            **{"raw_" + k: v for k, v in raw_metrics.items()},
        },
    }


def layer_metrics(t, untraced_wall: float, traced_wall: float) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    candidates = t.total("reps.submodule_from_local", binding="oracle")
    kept = t.total_items("oracle.enumerate_submodules")
    reps = t.total("oracle.enumerate_reps")
    return {
        "rings.ops": sum(t.total(f"rings.Ring.{op}") for op in RING_OPS),
        "linalg.rowspace_adds": t.total("linalg.FieldRowSpace.add")
        + t.total("linalg.ZnRowSpace.add"),
        "linalg.rowspace_queries": t.total("linalg.FieldRowSpace.contains")
        + t.total("linalg.FieldRowSpace.coords")
        + t.total("linalg.ZnRowSpace.contains"),
        "linalg.nullspace_calls": t.total("linalg.nullspace"),
        "linalg.self_s": t.self_seconds("linalg"),
        "oracle.reps_enumerated": reps,
        "oracle.submodule_candidates": candidates,
        "oracle.submodules_kept": kept,
        "oracle.submodule_yield": ratio(kept, candidates),
        "oracle.in_category_ratio": ratio(
            t.total_true("reps.in_category_e"), t.total("reps.in_category_e")
        ),
        "oracle.reps_per_s": reps / untraced_wall,
        "oracle.submodules_per_s": candidates / untraced_wall,
        "oracle.self_s": t.self_seconds("oracle"),
        "reps.gamma_calls": t.total("reps.gamma"),
        "reps.hom_space_calls": t.total("reps.hom_space"),
        "reps.corner_algebra_calls": t.total("reps.corner_algebra"),
        "reps.corner_module_calls": t.total("reps.corner_module"),
        "reps.self_s": t.self_seconds("reps"),
        "algebra.mul_calls": t.total("algebra.AlgElem.__mul__"),
        "algebra.make_calls": t.total("algebra.AlgElem.make"),
        "algebra.self_s": t.self_seconds("algebra"),
        "quivers.check_path_calls": t.total("quivers.Quiver.check_path"),
        "quivers.concat_calls": t.total("quivers.concat"),
        "quivers.self_s": t.self_seconds("quivers"),
        "classify.calls": t.layer_calls("classify"),
        "classify.self_s": t.self_seconds("classify"),
        "cli.calls": t.total("cli.main"),
        "cli.nonzero_exits": t.total_true("cli.main"),
        "cli.self_s": t.self_seconds("cli"),
        "trace_overhead": traced_wall / untraced_wall,
    }


def traced(cases, workload: str) -> dict:
    untraced = run_pass(cases)
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(cases, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, untraced.wall, traced_pass.wall)
    table = json.loads((HERE / "layers.json").read_text())["per_layer"]
    missed = [
        name for name, row in table.items() if workload in row["heavy_on"] and not metrics[name] > 0
    ]
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}.tsv.gz"
    tracer.write_spans(span_file)
    return {
        "passes": [untraced, traced_pass],
        "metrics": metrics,
        "problems": [f"heavy-on metric {name} is 0: a binding was missed" for name in missed],
        "info": {
            "spans": tracer.spans_total,
            "spans_file": str(span_file.relative_to(HERE.parent)),
            "bench.self_s": tracer.self_seconds("bench"),
            "untraced_wall_s": untraced.wall,
            "traced_wall_s": traced_pass.wall,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cases = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        out = traced(cases, args.workload)
    else:
        out = measure(cases, args.seconds)
    passes = out.pop("passes")
    problems = out.pop("problems", [])
    problems += check_digest(args.workload, args.seed, passes[0], passes[1:])
    errors = [e for p in passes for e in p.errors][:5]
    out.update(
        attempted=sum(p.cases for p in passes),
        failed=sum(p.failed for p in passes) + (1 if problems else 0),
        cases_per_pass=len(cases),
        digest=passes[0].digest,
        problems=problems + errors,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
