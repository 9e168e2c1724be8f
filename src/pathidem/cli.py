"""Command-line interface: load quivers and elements from JSON, run the
classifier, family analysis, and oracle cross-checks, and emit deterministic
machine-readable reports.

Exit codes: 0 successful evaluation (whatever the boolean outcome),
2 malformed input, 3 enumeration budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path as FsPath

from . import __version__
from .algebra import AlgElem, AlgebraError
from .classify import (
    ClassifyError,
    classify,
    enumerate_full_families_trivial_idem,
    is_full_family,
    strongly_orthogonal,
    try_standard_form,
)
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    OracleError,
    _outside_reach,
    check_special_by_modules,
    check_split_by_sequences,
    enumerate_reps,
    orthogonality_bruteforce,
)
from .quivers import Quiver, QuiverError
from .reps import (
    RepError,
    corner_algebra,
    corner_module,
    in_category_e,
    morita_surrogate_check,
)
from .rings import Ring, RingError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

_RING_SHORTHAND = re.compile(r"^(F|Z)([0-9]+)$|^Q$")


class InputError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _load_json(text_or_path: str):
    s = text_or_path.strip()
    where = "inline JSON"
    if not (s.startswith("{") or s.startswith("[")):
        where = text_or_path
        try:
            s = FsPath(text_or_path).read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise InputError("missing-file", f"no such file: {where}") from exc
        except UnicodeDecodeError as exc:
            raise InputError("malformed-json", f"{where}: not UTF-8 text") from exc
        except OSError as exc:
            raise InputError("unreadable-file", f"{where}: {exc.strerror}") from exc
    try:
        return json.loads(s)
    except RecursionError as exc:
        raise InputError("malformed-json", f"{where}: nested too deeply") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer with more digits than int() converts
        raise InputError("malformed-json", f"{where}: {exc}") from exc


def _parse_ring(spec: str) -> Ring:
    m = _RING_SHORTHAND.match(spec.strip())
    try:
        if m:
            if spec.strip() == "Q":
                return Ring("Q")
            kind = "Fp" if m.group(1) == "F" else "Zn"
            try:
                modulus = int(m.group(2))
            except ValueError as exc:  # more digits than int() converts
                raise RingError(f"modulus has {len(m.group(2))} digits, too many") from exc
            return Ring(kind, modulus)
        try:
            return Ring.from_json(_load_json(spec))
        except InputError as exc:  # "F٥": no shorthand (ASCII digits), no file
            if exc.code != "missing-file":
                raise
            raise RingError(f"{spec!r} is no ring shorthand, JSON or file") from exc
    except RingError as exc:
        raise InputError("bad-ring", str(exc)) from exc


def _parse_quiver(spec: str) -> Quiver:
    try:
        return Quiver.from_json(_load_json(spec))
    except QuiverError as exc:
        raise InputError("bad-quiver", str(exc)) from exc


def _parse_element(q: Quiver, ring: Ring, spec: str) -> AlgElem:
    try:
        return AlgElem.from_json(q, ring, _load_json(spec))
    except (AlgebraError, QuiverError, RingError) as exc:
        raise InputError("bad-element", str(exc)) from exc


def _parse_family(q: Quiver, ring: Ring, spec: str) -> list[AlgElem]:
    obj = _load_json(spec)
    if not isinstance(obj, list):
        raise InputError("bad-family", "family file must be a JSON list of elements")
    try:
        return [AlgElem.from_json(q, ring, item) for item in obj]
    except (AlgebraError, QuiverError, RingError) as exc:
        raise InputError("bad-element", str(exc)) from exc


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        # a fresh temporary name, so no existing file is overwritten on the way
        fd, tmp = tempfile.mkstemp(dir=FsPath(out).resolve().parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


def _error(code: str, exc) -> dict:
    return {"error": {"code": code, "message": str(exc)}}


# Each handler takes (args, quiver, ring) and returns the result followed by
# what the input hash covers beyond the quiver and the ring.


def _validate(args, quiver, ring):
    elements = [_parse_element(quiver, ring, spec).to_json() for spec in args.element]
    result = {"ok": True, "vertices": len(quiver.vertices), "edges": len(quiver.edges)}
    if elements:
        result["elements"] = len(elements)
    return result, elements


def _classify(args, quiver, ring):
    e = _parse_element(quiver, ring, args.element[0])
    return classify(e).to_json(), e.to_json()


def _standard_form(args, quiver, ring):
    e = _parse_element(quiver, ring, args.element[0])
    form, witness = try_standard_form(e)
    result = {
        "special": form is not None,
        "standard_form": form.to_json() if form else None,
        "witness": witness.to_json() if witness else None,
    }
    return result, e.to_json()


def _orthogonal(args, quiver, ring):
    e1, e2 = (_parse_element(quiver, ring, spec) for spec in args.element)
    try:
        structural = strongly_orthogonal(e1, e2)
    except ClassifyError as exc:
        raise InputError("not-special", str(exc)) from exc
    degree = len(quiver.vertices) if args.degree is None else args.degree
    result = {
        "strongly_orthogonal": structural,
        "bruteforce_degree": degree,
        "bruteforce": orthogonality_bruteforce(e1, e2, degree),
    }
    return result, e1.to_json(), e2.to_json(), degree


def _full_family(args, quiver, ring):
    family = _parse_family(quiver, ring, args.family)
    try:
        full = is_full_family(family)
    except ClassifyError as exc:
        raise InputError("not-special", str(exc)) from exc
    return {"full": full}, [e.to_json() for e in family]


def _enumerate_families(args, quiver, ring):
    try:
        families = enumerate_full_families_trivial_idem(quiver, ring)
    except ClassifyError as exc:
        raise InputError("nontrivial-idempotents", str(exc)) from exc
    except RingError as exc:  # a Z/n modulus too large to test as a prime power
        raise InputError("bad-ring", str(exc)) from exc
    result = {
        "families": [
            [sorted(p.vertex for p, _ in e.terms) for e in fam] for fam in families
        ]
    }
    return (result,)


def _oracle(check):
    def run(args, quiver, ring):
        e = _parse_element(quiver, ring, args.element[0])
        budget = OracleBudget(args.max_dim, args.max_reps)
        return check(e, quiver, ring, budget).to_json(), e.to_json(), vars(budget)

    return run


def _morita_check(args, quiver, ring):
    if not quiver.is_acyclic:
        raise InputError("cyclic-quiver", f"{args.command} needs an acyclic quiver")
    e = _parse_element(quiver, ring, args.element[0])
    budget = OracleBudget(args.max_dim, args.max_reps)
    corner = corner_algebra(e)  # refuses a non-idempotent e and Z/n
    # a counted dimension vector (an int) holds no rep in the category
    reps = [
        m
        for m in enumerate_reps(quiver, ring, budget, skip=_outside_reach(e))
        if not isinstance(m, int) and in_category_e(e, m)
    ]
    cms = [corner_module(e, m, corner) for m in reps]
    bijective = [
        morita_surrogate_check(e, m, n, cm, cn)["bijective"]
        for m, cm in zip(reps, cms)
        for n, cn in zip(reps, cms)
    ]
    result = {"pairs_checked": len(bijective), "all_bijective": all(bijective)}
    return result, e.to_json(), vars(budget)


# command -> (how many --element it takes, None for any number; handler)
_COMMANDS = {
    "validate": (None, _validate),
    "classify": (1, _classify),
    "standard-form": (1, _standard_form),
    "orthogonal": (2, _orthogonal),
    "full-family": (0, _full_family),
    "enumerate-families": (0, _enumerate_families),
    "oracle-special": (1, _oracle(check_special_by_modules)),
    "oracle-split": (1, _oracle(check_split_by_sequences)),
    "morita-check": (1, _morita_check),
}


def _run(args, handler) -> dict:
    ring = _parse_ring(args.ring)
    quiver = _parse_quiver(args.quiver)
    result, *parts = handler(args, quiver, ring)
    blob = json.dumps(
        [quiver.to_json(), ring.to_json(), *parts], sort_keys=True, separators=(",", ":")
    )
    return {
        "command": args.command,
        "version": __version__,
        "input_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "result": result,
    }


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, so `main` answers it with a
    JSON error report instead of argparse's usage message."""

    def error(self, message: str):
        raise InputError("bad-arguments", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pathidem",
        description="Classify special and split idempotents in path algebras, "
        "with brute-force cross-checks.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--quiver", required=True, help="quiver JSON file or inline JSON")
    parser.add_argument("--ring", required=True, help='e.g. F5, Z6, Q or {"ring":"Fp","p":5}')
    parser.add_argument(
        "--element",
        action="append",
        default=None,
        help="element JSON file or inline JSON (repeatable)",
    )
    parser.add_argument("--family", help="JSON file with a list of elements")
    parser.add_argument(
        "--max-dim",
        type=int,
        default=OracleBudget.max_total_dim,
        help="oracle total-dimension cap",
    )
    parser.add_argument(
        "--max-reps",
        type=int,
        default=OracleBudget.max_reps,
        help="oracle enumeration cap, counted in representations enumerated "
        "up to isomorphism (at least one per class)",
    )
    parser.add_argument("--degree", type=int, default=None, help="truncation degree")
    parser.add_argument("--out", help="write the report to this path (atomic)")
    return parser


def main(argv: list[str] | None = None) -> int:
    out = None
    try:
        args = build_parser().parse_args(argv)
        out = args.out
        args.element = args.element or []
        count, handler = _COMMANDS[args.command]
        if count is not None and len(args.element) != count:
            wanted = ("no", "exactly one", "exactly two")[count]
            raise InputError("bad-arguments", f"{args.command} takes {wanted} --element")
        if handler is _full_family and not args.family:
            raise InputError("bad-arguments", f"{args.command} needs --family")
        report, code = _run(args, handler), EXIT_OK
    except InputError as exc:
        report, code = _error(exc.code, exc), EXIT_INPUT
    except (RingError, QuiverError, AlgebraError, RepError, ClassifyError) as exc:
        report, code = _error("bad-input", exc), EXIT_INPUT
    except BudgetExceeded as exc:
        report, code = _error("budget-exhausted", exc), EXIT_BUDGET
        report["error"].update(reps_checked=exc.reps_checked, dims=exc.dims)
    except OracleError as exc:
        report, code = _error("oracle-error", exc), EXIT_INPUT
    try:
        _emit(report, out)
    except OSError as exc:
        _emit(_error("bad-output", f"cannot write {out}: {exc.strerror}"), None)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
