"""Run the biccert benchmark from the root of a checkout.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it, prefixed ``detail``, holds the per-size medians with
their counts, the failure fraction and the run environment.  ``--workload
all`` runs each workload in a fresh process, one after the other.
"""

import os

BLAS_THREADS = 1  # fixed per run: the BLAS thread count moves the timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "classical", "report")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def import_library() -> None:
    """Import biccert from this checkout's ``src``."""
    package = ROOT / "src" / "biccert" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: {package.relative_to(ROOT)} not found; "
                         "run from the root of a biccert checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import biccert.cli  # noqa: F401


def print_table(result: dict) -> None:
    detail = result["detail"]
    rows = dict(result["metrics"])
    rows.update(detail.get("per_size", {}))
    rows["fail_frac"] = detail["fail_frac"]
    if "setup_wall_s" in detail:
        rows["setup_wall_s"] = detail["setup_wall_s"]
    for name, m in rows.items():
        count = (f"  (n={m['count']}, measured median {m['median_wall_s']:.6g} s)"
                 if "count" in m else "")
        print(f"{detail['workload']:>9}  {name:<44} {m['value']:>14.6g} {m['unit']}{count}")


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print_table(result)
    print("detail " + json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
