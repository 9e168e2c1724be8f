"""Layered benchmark for pathidem (stdlib only).

    python3 perfbench/run.py --workload oracle-sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. Each workload runs in fresh interpreters
(worker.py): four that only set up, then one that sets up and measures.
setup_s is the median of the five set-up times, each from process start to
the worker's READY line; a traced run starts only the measuring worker.
Times are scaled to the host's typical speed (hostspeed.py); the `#` lines
also give them raw.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer metrics
of one traced pass. Every metric is printed by name with its unit; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is nonzero when any answer, the decision digest
or the tracer's self-check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle-sweep", "classify-sweep", "morita-cli")
SETUPS = 5
# a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 170


class RunFailed(Exception):
    pass


def worker_cmd(args, workload: str, setup_only: bool) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    return cmd + ["--setup-only"] if setup_only else cmd


def run_worker(cmd: list[str], deadline: float) -> tuple[float, float, str]:
    """Start one worker; return its set-up time, raw and scaled by the host
    speed measured just before, and its last stdout line."""
    # a fixed hash seed keeps set iteration, and so the work, identical
    env = dict(os.environ, PYTHONHASHSEED="0")
    reference = reference_seconds(repeats=5)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        if first.strip() != "READY":
            raise RunFailed(f"worker did not get ready: {first.strip()!r}")
        rest = proc.communicate(timeout=max(deadline - time.monotonic(), 1))[0]
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, setup * NOMINAL_S / reference, lines[-1] if lines else ""


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    if args.trace:
        return json.loads(run_worker(worker_cmd(args, workload, False), deadline)[2])
    setups = [run_worker(worker_cmd(args, workload, True), deadline) for _ in range(SETUPS - 1)]
    setups.append(run_worker(worker_cmd(args, workload, False), deadline))
    result = json.loads(setups[-1][2])
    result["metrics"]["setup_s"] = statistics.median(scaled for _, scaled, _ in setups)
    result["info"]["raw_setup_s"] = statistics.median(raw for raw, _, _ in setups)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="0 reproduces the acceptance pools")
    ap.add_argument(
        "--seconds", type=float, default=10.0, help="minimum measured time; whole passes"
    )
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pathidem" / "__init__.py").is_file():
        print(f"error: no pathidem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = json.loads((HERE / "layers.json").read_text())
    units = {**table["end_to_end"], **table["per_layer"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            res = run_workload(args, name)
        except RunFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        info = res["info"]
        print(f"# {name} seed={args.seed} trace={args.trace} cases/pass={res['cases_per_pass']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"error_rate={res['failed'] / res['attempted']:.6f} digest={res['digest']}")
        print("#   " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in info.items()))
        for problem in res["problems"]:
            print(f"#   FAILED: {problem}")
        for key, value in res["metrics"].items():
            print(f"{name:15s} {key:28s} {value:16.6f} {units[key]['unit']}")
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": value, "unit": units[key]["unit"]}
        correct = correct and res["failed"] == 0
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
