"""Workloads, inputs, correctness gates and metrics of the biccert benchmark.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  An operation is one in-process call of
the user path ``biccert.cli.main([...])``, so interpreter start-up is not
timed.  Inputs are generated during set-up from the workload seed; the
program only sees the generated files.

- ``certify``: ``biccert certify`` on a Weyl and a generic POVM file at each
  of d = 6, 8, 10, plus two more generic d=6 files.
- ``classical``: ``biccert classical --allow-d5`` on four d=4 Gram files
  (one Weyl, three generic) and one generic d=5 Gram file.
- ``report``: ``biccert report --seed <seed>``, the 11-criterion suite at the
  default ``--d-max 4``.

Each operation is checked after it returns, outside the timed region; an
operation that fails its check is counted as failed, never dropped.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np

from biccert import bic, classical, cli
from biccert.linalg import dump_json

from hostspeed import TickSampler, at_ref_speed, host_tick_s
from tracing import Tracer, criterion_span, per_op_times

WORKLOADS = ("certify", "classical", "report")
TOL = 1e-9  # the CLI's default --tol; every gate threshold is scaled from it
EPS = float(np.finfo(float).eps)
WEYL_R, WEYL_T = 0.3, 0.137  # the README's fiducial parameters
SETUP_REPS = 9
MAX_DRAWS = 8
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Sizes:
    """Input files per workload as (d, Weyl files, generic files)."""

    certify: tuple[tuple[int, int, int], ...]
    classical: tuple[tuple[int, int, int], ...]
    warmup_d: int


# three generic d=6 files give the cheapest size as many samples per run as
# the others, spread over the run, so its median does not rest on a burst
FULL = Sizes(certify=((6, 1, 3), (8, 1, 1), (10, 1, 1)),
             classical=((4, 1, 3), (5, 0, 1)), warmup_d=3)
TINY = Sizes(certify=((2, 1, 1), (3, 1, 1)), classical=((2, 1, 1), (3, 0, 1)), warmup_d=2)


class GateFailure(Exception):
    pass


@dataclass
class Job:
    kind: str  # e.g. "certify_d10"; names the per-size and per-layer metrics
    d: int
    argv: list[str]  # arguments of biccert.cli.main, without --out
    output: str  # the file the operation writes into --out
    gate: Callable[["Job", dict], list[tuple[str, float, float]]]
    gram: object = None  # the decoded input, for the classical gate


@dataclass
class OpResult:
    kind: str
    seconds: float
    error: str | None = None
    headroom: float | None = None
    ref_seconds: float | None = None  # ``seconds`` at the reference host speed


@dataclass
class Inputs:
    jobs: list[Job]
    warmup: Job
    redrawn: list[dict]  # generic draws that failed validation


# ---------------------------------------------------------------------------
# correctness gates: each returns (check, residual, threshold) triples
# ---------------------------------------------------------------------------

def certify_checks(job: Job, report: dict) -> list[tuple[str, float, float]]:
    """The residuals and thresholds of ``cmd_certify``'s breach list."""
    d = job.d
    d2 = d * d
    if report.get("d") != d or report.get("passed") is not True:
        raise GateFailure(f"report d={report.get('d')} passed={report.get('passed')}")
    if report["certification"]["passed"] is not True:
        raise GateFailure("certification relations not passed")
    sos = report["sos"]
    return [
        ("bell value", abs(report["bell"]["value"] - d2), TOL * d2),
        ("sos identity", sos["identityResidual"], TOL * d2),
        ("sos positivity", max(0.0, -sos["thetaMinEigenvalue"]), 10 * TOL),
        ("sos theta.rho", sos["thetaRhoResidual"], TOL * d2),
        ("certification relations", report["certification"]["maxResidual"], TOL * d2),
        ("entropy", abs(report["randomness"]["entropyBits"] - 2 * math.log2(d)), TOL),
    ]


def classical_checks(job: Job, result: dict) -> list[tuple[str, float, float]]:
    """subset_value(best_subset) = best_value <= upper_bound <= d^2.

    The witness is re-scored with ``subset_value``, which sums in another
    order than the enumeration, so equality is held to TOL * d^2."""
    d2 = job.d**2
    subset = [j - 1 for j in result["bestSubset"]]
    if not 0 < len(subset) < 2 * job.d:
        raise GateFailure(f"witness has {len(subset)} elements")
    best, upper = result["bestValue"], result["upperBound"]
    if not best <= upper <= d2:
        raise GateFailure(f"bounds out of order: {best} <= {upper} <= {d2}")
    witness = classical.subset_value(subset, job.gram)
    return [("witness value", abs(witness - best), TOL * d2)]


# (measured key, threshold key) of the suite's residual checks; the others
# are lower bounds, signed margins or exact counts, which have no headroom
REPORT_RESIDUALS = (
    ("max |value - d^2|", "max |value - d^2|"),
    ("max residual / d^2", "max residual / d^2"),
    ("SIC deviation", "deviations"),
    ("oracle deviation", "deviations"),
    ("grid deviation", "deviations"),
    ("max column-sum deviation", "deviation"),
    ("max triangle-sum deviation", "deviation"),
    ("max lattice overlap", "max lattice overlap"),
    ("max residual", "max residual"),
    ("max |H - 2 log2 d|", "deviation"),
    ("max relation residual", "max relation residual"),
    ("max trace deviation", "max trace deviation"),
    ("max state residual", "max state residual"),
)


def report_checks(job: Job, report: dict) -> list[tuple[str, float, float]]:
    failing = [c["id"] for c in report["criteria"] if c["passed"] is not True]
    if report.get("allPassed") is not True or failing:
        raise GateFailure(f"criteria failed: {failing}")
    checks = []
    for c in report["criteria"]:
        for measured, threshold in REPORT_RESIDUALS:
            if measured in c["measured"] and threshold in c["thresholds"]:
                checks.append((f"criterion {c['id']}: {measured}",
                               c["measured"][measured], c["thresholds"][threshold]))
    if len(checks) < len(REPORT_RESIDUALS):
        raise GateFailure(f"report lists {len(checks)} of {len(REPORT_RESIDUALS)} residuals")
    return checks


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _weyl(d: int) -> bic.BicPovm:
    return bic.construct_weyl_bic(d, bic.geometric_fiducial(d, WEYL_R, WEYL_T))


def _generic(d: int, rng: np.random.Generator, redrawn: list[dict]) -> bic.BicPovm:
    """A generic BIC-POVM from the next seed of ``rng`` that passes both
    validations.  The construction occasionally returns a POVM whose Gram
    matrix misses ``positive_definite`` by ~1e-9; such draws are recorded and
    replaced, because the workloads time valid inputs."""
    for _ in range(MAX_DRAWS):
        seed = int(rng.integers(2**31))
        try:
            povm = bic.construct_generic_bic(d, seed)
        except ValueError as exc:
            redrawn.append({"d": d, "seed": seed, "reason": str(exc)})
            continue
        failures = (bic.validate_bic(povm, tol=TOL).failures()
                    + bic.validate_gram(bic.gram(povm), tol=TOL).failures())
        if not failures:
            return povm
        redrawn.append({"d": d, "seed": seed, "reason": ", ".join(failures)})
    raise RuntimeError(f"no valid generic d={d} POVM in {MAX_DRAWS} draws")


def certify_job(path: Path, d: int) -> Job:
    return Job(f"certify_d{d}", d, ["certify", str(path)], "certify_report.json",
               certify_checks)


def _job(workload: str, path: Path, povm: bic.BicPovm) -> Job:
    """Write ``povm`` (certify) or its Gram matrix (classical) to ``path``."""
    if workload == "certify":
        dump_json(bic.povm_to_json(povm), path)
        return certify_job(path, povm.d)
    gm = bic.gram(povm)
    dump_json(bic.gram_to_json(gm), path)
    return Job(f"classical_d{povm.d}", povm.d, ["classical", str(path), "--allow-d5"],
               "classical.json", classical_checks, gram=gm)


def make_inputs(workload: str, seed: int, root: Path, sizes: Sizes = FULL) -> Inputs:
    """Write the workload's input files under ``root``; same seed, same bytes.

    The job list takes one file of each size in turn, so that every size is
    sampled throughout a run."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    redrawn: list[dict] = []
    if workload == "report":
        jobs = [Job("report", 4, ["report", "--seed", str(seed)], "report.json",
                    report_checks)]
    elif workload in ("certify", "classical"):
        by_size = []
        for d, n_weyl, n_generic in getattr(sizes, workload):
            povms = [_weyl(d)] * n_weyl + [_generic(d, rng, redrawn) for _ in range(n_generic)]
            by_size.append([_job(workload, root / f"d{d}_{i}.json", povm)
                            for i, povm in enumerate(povms)])
        jobs = [job for turn in zip_longest(*by_size) for job in turn if job]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warmup_kind = "classical" if workload == "classical" else "certify"
    warmup = _job(warmup_kind, root / "warmup.json", _weyl(sizes.warmup_d))
    return Inputs(jobs, warmup, redrawn)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def run_op(job: Job, out: Path, tracer: Tracer | None = None, op: int = 0,
           sampler: TickSampler | None = None) -> OpResult:
    """One timed ``cli.main`` call, then its gate outside the timed region.
    With a ``sampler``, host ticks are taken during the call and their time
    is not counted."""
    result_file = out / job.output
    result_file.unlink(missing_ok=True)
    argv = [*job.argv, "--out", str(out), "--tol", repr(TOL)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        if tracer is not None:
            code = tracer.run_op(op, f"op.{job.kind}", lambda: cli.main(argv))
        elif sampler is not None:
            with sampler.sampling():
                code = cli.main(argv)
        else:
            code = cli.main(argv)
        seconds = time.perf_counter() - start - (sampler.spent if sampler else 0.0)
    try:
        if code != 0:
            raise GateFailure(f"exit code {code}")
        checks = job.gate(job, json.loads(result_file.read_text()))
        over = [f"{name}={res:.3g}>{thr:.3g}" for name, res, thr in checks if not res <= thr]
        if over:
            raise GateFailure("over threshold: " + ", ".join(over))
    except (GateFailure, OSError, ValueError, KeyError, TypeError) as exc:
        return OpResult(job.kind, seconds, f"{job.kind} {job.argv[1]}: {exc}")
    headroom = min(math.log10(thr / max(res, EPS)) for _, res, thr in checks)
    return OpResult(job.kind, seconds, headroom=headroom)


def run_pass(jobs: list[Job], out: Path, tracer: Tracer | None = None,
             first_op: int = 0) -> list[OpResult]:
    return [run_op(job, out, tracer, first_op + i) for i, job in enumerate(jobs)]


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(results: list[OpResult]) -> tuple[int, int, list[str]]:
    errors = [r.error for r in results if r.error]
    return len(results), len(errors), errors


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import biccert.cli; "
                "print(time.perf_counter() - start)")


def fresh_import_s(root: Path) -> float:
    """Seconds to import biccert.cli (and numpy) in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(root / "src")],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def setup(workload: str, seed: int, sizes: Sizes, work: Path,
          root: Path) -> tuple[Inputs, float, float, list[OpResult]]:
    """Import, generate the inputs and warm up, SETUP_REPS times.  Returns
    the median repetition at the reference speed and in seconds."""
    times, ref_times, warmups = [], [], []
    tick = host_tick_s()
    for rep in range(SETUP_REPS):
        import_s = fresh_import_s(root)
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, work / f"inputs{rep}", sizes)
        warmups.append(run_op(inputs.warmup, work / "out"))
        times.append(import_s + time.perf_counter() - start)
        tick_before, tick = tick, host_tick_s()
        ref_times.append(at_ref_speed(times[-1], [tick_before, tick]))
    return inputs, statistics.median(ref_times), statistics.median(times), warmups


def timed_loop(jobs: list[Job], seconds: float, out: Path) -> list[OpResult]:
    """Every job once, then the job list again and again, one operation at a
    time, for ``seconds``.  Host ticks are taken between operations and
    during them (see ``hostspeed``).  After the first pass a job is skipped
    when the fastest call of its kind so far would not end before the
    deadline, so a run overshoots ``seconds`` by little even when one call
    takes ~10 s."""
    timed: list[OpResult] = []
    best: dict[str, float] = {}
    sampler = TickSampler()
    tick = host_tick_s()
    start = time.perf_counter()
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        if i >= len(jobs):
            left = seconds - (time.perf_counter() - start)
            if left <= min(best.values()):
                break
            if best[job.kind] > left:
                continue
        result = run_op(job, out, sampler=sampler)
        tick_before, tick = tick, host_tick_s()
        result.ref_seconds = at_ref_speed(result.seconds, [tick_before, *sampler.ticks, tick])
        timed.append(result)
        best[job.kind] = min(best.get(job.kind, math.inf), result.seconds)
    return timed


def measure(workload: str, seed: int, seconds: float, work: Path, root: Path,
            sizes: Sizes = FULL) -> dict:
    """Untraced run of ``timed_loop``.  Times are medians at the reference
    host speed (see ``hostspeed``); the detail line keeps the measured
    seconds beside them."""
    inputs, setup_s, setup_wall_s, results = setup(workload, seed, sizes, work, root)
    jobs = inputs.jobs
    timed = timed_loop(jobs, seconds, work / "out")
    results += timed
    per_size = {}
    for kind in dict.fromkeys(job.kind for job in jobs):
        ops = [r for r in timed if r.kind == kind]
        per_size[kind] = {"value": statistics.median(r.ref_seconds for r in ops), "unit": "s",
                          "count": len(ops),
                          "median_wall_s": statistics.median(r.seconds for r in ops)}
    calls = Counter(job.kind for job in jobs)
    headrooms = [r.headroom for r in results if r.headroom is not None]
    attempted, failed, errors = summarize(results)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_ref_s": _metric(sum(calls[k] * m["value"] for k, m in per_size.items()), "s"),
        "call_geomean_ref_s": _metric(
            math.exp(statistics.fmean(math.log(m["value"]) for m in per_size.values())), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "precision_headroom_decades": _metric(min(headrooms, default=0.0), "decades"),
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "per_size": {f"{kind}_ref_s": m for kind, m in per_size.items()},
        "setup_wall_s": _metric(setup_wall_s, "s"),
        "fail_frac": _metric(failed / attempted, "ratio"),
        "errors": errors[:5],
        "redrawn_generic_seeds": inputs.redrawn,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


# ---------------------------------------------------------------------------
# traced run and per-layer metrics
# ---------------------------------------------------------------------------

# per-layer metric stem -> span names whose self time it sums
SPAN_GROUPS = {
    "cli.decode": ("linalg.load_json", "bic.povm_from_json", "bic.gram_from_json"),
    "cli.encode": ("linalg.dump_json",),
}
CERTIFY_LAYERS = ("cli.decode", "cli.encode", "bic.validate_bic", "bic.gram",
                  "bell.reference_strategy", "bell.bell_value", "bell.sos_certificate",
                  "algebra.verify_certification", "randomness.randomness_report")
CLASSICAL_LAYERS = ("cli.decode", "cli.encode", "bic.validate_gram",
                    "classical.classical_value")
REPORT_LAYERS = ("cli.encode", "bic.gram", "bell.reference_strategy", "bell.bell_value",
                 "bell.sos_certificate", "algebra.verify_certification",
                 "algebra.irrep_decompose", "algebra.maxent_decompose",
                 "randomness.randomness_report", "classical.classical_value")
CRITERIA = range(1, 12)
SUBSETS = "classical.subsets_per_s"


def subsets_scanned(d: int) -> int:
    """Computed, not measured: sum_m C(d^2, m) over 0 < m < 2d."""
    n = d * d
    return sum(math.comb(n, m) for m in range(1, min(2 * d - 1, n) + 1))


def _layers(kind: str) -> tuple[str, ...]:
    if kind.startswith("certify"):
        return CERTIFY_LAYERS
    return CLASSICAL_LAYERS if kind.startswith("classical") else REPORT_LAYERS


def per_layer_metrics(sizes: Sizes = FULL) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run emits."""
    kinds = [f"certify_d{d}" for d, _, _ in sizes.certify]
    kinds += [f"classical_d{d}" for d, _, _ in sizes.classical] + ["report"]
    out = []
    for kind in kinds:
        out += [(f"{stem}_s.{kind}", "s", "lower") for stem in _layers(kind)]
        if not kind.startswith("certify"):
            out.append((f"{SUBSETS}.{kind}", "subsets/s", "higher"))
    out += [(f"reproduce.criterion_{cid:02d}_s", "s", "lower") for cid in CRITERIA]
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


def layer_values(spans: list[list], op_kinds: dict[int, str]) -> dict[str, float]:
    """Median over the ops of each kind of the per-op self time of each layer."""
    by_op = per_op_times(spans)
    samples: dict[str, list[float]] = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for op, kind in op_kinds.items():
        times = by_op.get(op, {})
        for stem in _layers(kind):
            add(f"{stem}_s.{kind}",
                sum(times[s]["self"] for s in SPAN_GROUPS.get(stem, (stem,)) if s in times))
        if not kind.startswith("certify"):
            scan = times.get("classical.classical_value")
            add(f"{SUBSETS}.{kind}", scan["work"] / scan["wall"] if scan else 0.0)
        if kind == "report":
            for cid in CRITERIA:
                entry = times.get(criterion_span(cid))
                add(f"reproduce.criterion_{cid:02d}_s", entry["wall"] if entry else 0.0)
    return {name: statistics.median(v) for name, v in samples.items()}


def traced(workload: str, seed: int, work: Path, sizes: Sizes = FULL) -> dict:
    """One untraced pass of ``workload``, then one traced pass of every
    workload's job list, so that each traced run emits every per-layer
    metric.  ``trace.overhead_frac`` compares the two passes of ``workload``."""
    all_inputs = {w: make_inputs(w, seed, work / f"inputs-{w}", sizes) for w in WORKLOADS}
    results = [run_op(inputs.warmup, work / "out") for inputs in all_inputs.values()]
    untraced = run_pass(all_inputs[workload].jobs, work / "out")
    results += untraced

    tracer = Tracer(work_counts={
        "classical.classical_value": lambda S, *args, **kwargs: subsets_scanned(S.d)})
    op_kinds: dict[int, str] = {}
    traced_wall = {}
    with tracer.installed():
        for w, inputs in all_inputs.items():
            first = len(op_kinds)
            done = run_pass(inputs.jobs, work / "out", tracer, first)
            op_kinds.update({first + i: job.kind for i, job in enumerate(inputs.jobs)})
            traced_wall[w] = sum(r.seconds for r in done)
            results += done

    values = layer_values(tracer.spans, op_kinds)
    values["trace.overhead_frac"] = (
        traced_wall[workload] / sum(r.seconds for r in untraced) - 1.0)
    metrics = {name: _metric(values.get(name, 0.0), unit)
               for name, unit, _ in per_layer_metrics(sizes)}
    attempted, failed, errors = summarize(results)
    detail = {
        "workload": workload,
        "seed": seed,
        "fail_frac": _metric(failed / attempted, "ratio"),
        "errors": errors[:5],
        "span_counts": Counter(span[0] for span in tracer.spans),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail, "spans": tracer.to_json(),
            "op_kinds": op_kinds}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: Sizes = FULL, work: Path | None = None) -> dict:
    """Run against the checkout at ``root``, in a scratch directory under
    ``work`` (default ``root/perfbench/work``) that is removed afterwards; a
    traced run leaves its span file in ``work``."""
    work = work or root / "perfbench" / "work"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        if trace:
            result = traced(workload, seed, Path(tmp), sizes)
        else:
            result = measure(workload, seed, seconds, Path(tmp), root, sizes)
    result["detail"]["environment"] = environment(root)
    if trace:
        span_file = work / f"spans-{workload}.json"
        span_file.write_text(json.dumps({
            "environment": result["detail"]["environment"],
            "workload": workload, "seed": seed,
            "ops": {str(k): v for k, v in result.pop("op_kinds").items()},
            "spans": result.pop("spans"),
        }))
        result["detail"]["span_file"] = str(span_file)
    return result
