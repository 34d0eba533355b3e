"""Command-line front end.

Subcommands: ``construct`` (build and validate a POVM), ``certify`` (run the
Bell, SOS, certification-relation and entropy checks on a POVM file),
``classical`` (exact classical value of a Gram-matrix file), and ``report``
(the full reproduction suite).

Exit codes: 0 success, 2 certification/validation failure, 3 usage or
parameter error.  JSON outputs are authoritative; ``--format csv-summary``
additionally writes flat CSV files with the scalar quantities.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, algebra, bic, classical, reproduce
from .linalg import dump_json, load_json, threshold

EXIT_OK = 0
EXIT_FAILED = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 3."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_float(text: str) -> float:
    """argparse type: a finite number above 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed; ``main`` also applies it to BICCERT_SEED, read
    on each call, so that a bad environment value is a usage error too."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer seed (from --seed or BICCERT_SEED), got {text!r}")
    return value


def _at_least(low: int):
    """argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared."""
    parser = _Parser(prog="biccert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_positive_float, default=1e-9, help="relative tolerance")
        p.add_argument("--seed", type=_seed,
                       help="RNG seed (default from BICCERT_SEED, else 0)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory for result files")
        p.add_argument("--format", choices=("json", "csv-summary"), default="json",
                       help="csv-summary also writes flat CSV files")

    p = sub.add_parser("construct", help="construct and validate a BIC-POVM")
    p.add_argument("--d", type=_at_least(2), default=2, help="dimension, at least 2")
    p.add_argument("--construction", choices=("weyl", "generic"), default="weyl")
    p.add_argument("--r", type=float, default=0.3, help="fiducial radius (weyl)")
    p.add_argument("--t", type=float, default=0.137, help="fiducial phase (weyl)")
    common(p)

    p = sub.add_parser("certify", help="full certification run on a POVM file")
    p.add_argument("povm", type=Path, help="BicPovm JSON file")
    common(p)

    p = sub.add_parser("classical", help="exact classical value of a Gram file")
    p.add_argument("gram", type=Path, help="GramMatrix JSON file")
    p.add_argument("--allow-d5", action="store_true",
                   help="enable the d=5 scan (a search space of 3,850,755 subsets)")
    p.add_argument("--max-subsets", type=_at_least(1), default=classical.MAX_SUBSETS_DEFAULT,
                   help="hard cap on the search space, in subsets")
    common(p)

    p = sub.add_parser("report", help="run the full reproduction suite")
    # the criteria run up to the larger of their own ceiling (4 or more) and
    # --d-max, so a smaller value would silently run the defaults
    p.add_argument("--d-max", type=_at_least(4), default=4,
                   help="extend certification checks up to this dimension")
    common(p)

    return parser


def _write_csv(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _flatten(prefix: str, obj, rows: list[tuple]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, rows)
    elif isinstance(obj, (int, float, bool)):
        rows.append((prefix, obj))


def _dump(args, payload: dict, stem: str, **context) -> dict:
    """Write ``stem.json`` under the run header: version, numpy, seed, tol and
    ``context`` (the dimension d, or dMax for ``report``; ``certify`` adds the
    seconds of each stage, ``classical`` the seconds of the enumeration, the
    number of subsets it scores and the number in its search space)."""
    payload = {"run": {"version": __version__, "numpy": np.__version__, "seed": args.seed,
                       "tol": args.tol, **context}, **payload}
    args.out.mkdir(parents=True, exist_ok=True)
    dump_json(payload, args.out / f"{stem}.json")
    return payload


def _write_outputs(args, payload: dict, stem: str, **context) -> None:
    """``_dump``; with csv-summary also the flattened scalars as ``stem.csv``."""
    payload = _dump(args, payload, stem, **context)
    if args.format == "csv-summary":
        rows: list[tuple] = [("key", "value")]
        _flatten("", payload, rows)
        _write_csv(args.out / f"{stem}.csv", rows)


def cmd_construct(args) -> int:
    if args.construction == "weyl":
        fiducial = bic.geometric_fiducial(args.d, args.r, args.t)
        povm = bic.construct_weyl_bic(args.d, fiducial)
    else:
        povm = bic.construct_generic_bic(args.d, args.seed)
    gm = bic.gram(povm)
    input_tol = threshold("input", args.tol)
    povm_checks = bic.validate_bic(povm, tol=input_tol)
    gram_checks = bic.validate_gram(gm, tol=input_tol)
    ok = povm_checks.passed and gram_checks.passed

    _dump(args, bic.povm_to_json(povm), "povm", d=args.d)
    _dump(args, bic.gram_to_json(gm), "gram", d=args.d)
    validation = {
        "construction": args.construction,
        "povm": povm_checks.to_json(),
        "gram": gram_checks.to_json(),
        "passed": ok,
    }
    _write_outputs(args, validation, "construct_validation", d=args.d)

    failing = "; ".join(c.failing() for c in (povm_checks, gram_checks) if not c.passed)
    print(f"constructed d={args.d} ({args.construction}); validation "
          f"{'passed' if ok else 'FAILED: ' + failing}")
    return EXIT_OK if ok else EXIT_FAILED


def cmd_certify(args) -> int:
    povm = bic.povm_from_json(load_json(args.povm))
    run = algebra.certify(povm, tol=args.tol)
    if not run.validation.passed:
        print("input POVM failed validation: " + run.validation.failing(), file=sys.stderr)
        _dump(args, run.to_json(), "certify_report", d=run.d)
        return EXIT_FAILED
    _write_outputs(args, run.to_json(), "certify_report", d=run.d, seconds=run.seconds)
    print(f"d={run.d}: bell value {run.bell.value:.9f}, entropy "
          f"{run.randomness.conditional_entropy_bits:.9f} bits; "
          f"{'all checks passed' if run.checks.passed else 'FAILED: ' + run.checks.failing()}")
    return EXIT_OK if run.checks.passed else EXIT_FAILED


def cmd_classical(args) -> int:
    gm = bic.gram_from_json(load_json(args.gram))
    validation = bic.validate_gram(gm, tol=threshold("input", args.tol))
    if not validation.passed:
        print("input Gram matrix failed validation: " + validation.failing(), file=sys.stderr)
        return EXIT_FAILED
    start = time.perf_counter()
    result = classical.classical_value(
        gm, allow_d5=args.allow_d5, max_subsets=args.max_subsets
    )
    seconds = {"enumeration": time.perf_counter() - start}
    _write_outputs(args, result.to_json(), "classical", d=gm.d, seconds=seconds,
                   subsets=result.subsets_scored, searchSpace=result.search_space)
    print(f"d={gm.d}: classical value {result.best_value:.9f} "
          f"(upper bound {result.upper_bound:.9f}, gap {result.quantum_gap:.9f})")
    return EXIT_OK


def cmd_report(args) -> int:
    runs = reproduce.run_full_suite(tol=args.tol, d_max=args.d_max, seed=args.seed)
    all_passed = all(r.passed for r in runs)
    payload = {"criteria": [r.to_json() for r in runs], "allPassed": all_passed}
    _dump(args, payload, "report", dMax=args.d_max)
    if args.format == "csv-summary":
        rows: list[tuple] = [
            ("criterion", "name", "seconds", "check", "measured", "threshold", "passed")
        ]
        for r in runs:
            for c in r.checks.values():
                rows.append((r.cid, reproduce.NAMES[r.cid], round(r.seconds, 3),
                             c.name, c.measured, c.threshold, c.passed))
        _write_csv(args.out / "report.csv", rows)
    total = sum(r.seconds for r in runs)
    print(f"{'all criteria passed' if all_passed else 'FAILURES PRESENT'} "
          f"({total:.1f}s total)")
    return EXIT_OK if all_passed else EXIT_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is None:
            try:
                args.seed = _seed(os.environ.get("BICCERT_SEED", "0"))
            except argparse.ArgumentTypeError as exc:
                parser.error(f"argument --seed: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "construct": cmd_construct,
        "certify": cmd_certify,
        "classical": cmd_classical,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
