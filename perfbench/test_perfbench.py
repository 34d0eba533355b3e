"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import hostspeed  # noqa: E402
from biccert import bic  # noqa: E402
from biccert.linalg import dump_json  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload, tmp_path):
    result = harness.run(workload, seed=3, seconds=0, trace=False, root=ROOT,
                         sizes=harness.TINY, work=tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["detail"]["fail_frac"]["value"] == 0.0


def test_tiny_traced_run_emits_every_per_layer_metric(tmp_path):
    result = harness.run("certify", seed=3, seconds=0, trace=True, root=ROOT,
                         sizes=harness.TINY, work=tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)
    expected = {name: unit for name, unit, _ in harness.per_layer_metrics(harness.TINY)}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    timings = {k: m["value"] for k, m in result["metrics"].items() if k != "trace.overhead_frac"}
    assert all(v > 0 for v in timings.values()), [k for k, v in timings.items() if v <= 0]
    spans = json.loads(Path(result["detail"]["span_file"]).read_text())["spans"]
    assert {"name", "start", "end", "parent", "op", "work"} <= set(spans[0])


def test_benchmark_json_lists_the_full_size_per_layer_metrics():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == harness.per_layer_metrics(harness.FULL)


def test_povm_failing_validation_counts_as_failed_op(tmp_path):
    povm = bic.construct_weyl_bic(2, bic.geometric_fiducial(2, 0.3, 0.137))
    path = tmp_path / "bad_povm.json"
    dump_json(bic.povm_to_json(bic.BicPovm(d=2, vectors=1.1 * povm.vectors)), path)
    ops = [harness.run_op(harness.certify_job(path, 2), tmp_path / "out")]
    assert "exit code 2" in ops[0].error
    assert harness.summarize(ops)[:2] == (1, 1)


@pytest.mark.parametrize("workload", ["certify", "classical"])
def test_same_seed_generates_byte_identical_inputs(workload, tmp_path):
    def files(seed, name):
        root = tmp_path / name
        harness.make_inputs(workload, seed, root, harness.TINY)
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    first = files(11, "a")
    assert first == files(11, "b")
    assert first != files(12, "c")


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in [ROOT / "BENCHMARK.json", *HERE.glob("*.py")]:
        target = tmp_path / path.relative_to(ROOT)
        target.write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_ticks_are_taken_during_a_long_call_and_their_time_is_counted():
    sampler = hostspeed.TickSampler()
    with sampler.sampling():
        end = time.perf_counter() + 1.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.ticks) >= 2
    assert 0 < sampler.spent < 0.5
    assert all(0 < t < sampler.spent for t in sampler.ticks)
    ref = hostspeed.at_ref_speed(1.0, [hostspeed.REF_TICK_S / 2])
    assert ref == 2.0
