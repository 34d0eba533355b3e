import io
import json
import math
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biccert import __version__, algebra, bell, bic, reproduce
from biccert.classical import bic_gram_d2
from biccert.cli import build_parser, main
from biccert.linalg import Checks, dump_json, load_json


def test_construct_weyl_d3(tmp_path):
    code = main(["construct", "--d", "3", "--out", str(tmp_path)])
    assert code == 0
    for name in ("povm.json", "gram.json", "construct_validation.json"):
        assert (tmp_path / name).exists()
    povm = bic.povm_from_json(load_json(tmp_path / "povm.json"))
    assert bic.validate_bic(povm).passed
    validation = load_json(tmp_path / "construct_validation.json")
    assert validation["passed"] is True


def test_construct_lattice_violation_is_usage_error(tmp_path):
    code = main(["construct", "--d", "4", "--t", "0", "--out", str(tmp_path)])
    assert code == 3


def test_construct_generic_d6(tmp_path):
    code = main(
        ["construct", "--d", "6", "--construction", "generic", "--seed", "7",
         "--out", str(tmp_path)]
    )
    assert code == 0
    gram = bic.gram_from_json(load_json(tmp_path / "gram.json"))
    assert gram.d == 6


def test_certify_weyl_d2(tmp_path):
    assert main(["construct", "--d", "2", "--out", str(tmp_path)]) == 0
    code = main(["certify", str(tmp_path / "povm.json"), "--out", str(tmp_path)])
    assert code == 0
    report = load_json(tmp_path / "certify_report.json")
    assert report["passed"] is True
    assert abs(report["bell"]["value"] - 4.0) < 1e-9
    assert abs(report["randomness"]["entropyBits"] - 2.0) < 1e-9
    assert report["certification"]["optimal"] is True
    # the keys the benchmark's correctness gate reads
    assert report["d"] == 2
    assert report["certification"]["passed"] is True
    for key in ("identityResidual", "thetaMinEigenvalue", "thetaRhoResidual"):
        assert isinstance(report["sos"][key], float)
    assert 0.0 <= report["certification"]["maxResidual"] <= 1e-9 * 4
    run = report["run"]
    assert run == {"version": __version__, "numpy": np.__version__, "seed": run["seed"],
                   "tol": 1e-9, "d": 2, "seconds": run["seconds"]}
    stages = ("reference", "walk", "sos", "certification", "randomness")
    assert set(run["seconds"]) == set(stages)
    assert all(run["seconds"][stage] >= 0.0 for stage in stages)


def test_certify_refuses_a_d_above_the_size_cap(tmp_path, capsys, monkeypatch):
    # the cap admits d=59 and refuses d=60: 88 d^4 bytes of Theta_d, W_d, rho,
    # bob_t, BK and R
    assert 88 * 59**4 <= algebra.MAX_CERTIFY_BYTES < 88 * 60**4
    # lowered below d=3's 88 * 3^4 bytes, so that no large allocation is ever
    # made; d=2 still certifies
    monkeypatch.setattr(algebra, "MAX_CERTIFY_BYTES", 88 * 3**4 - 1)
    for d in (2, 3):
        assert main(["construct", "--d", str(d), "--out", str(tmp_path / f"d{d}")]) == 0
    assert main(["certify", str(tmp_path / "d2" / "povm.json"), "--out", str(tmp_path)]) == 0

    def no_gram(povm):
        raise AssertionError("the Gram matrix was built before the refusal")

    monkeypatch.setattr(bic, "gram", no_gram)
    (tmp_path / "certify_report.json").unlink()
    capsys.readouterr()
    assert main(["certify", str(tmp_path / "d3" / "povm.json"), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert ("certify at d=3 needs about 6.64e-06 GiB for its d^4-sized arrays, "
            "above the cap of 6.64e-06 GiB") in err
    assert not (tmp_path / "certify_report.json").exists()


def test_report_refuses_a_d_max_above_the_size_cap(tmp_path, capsys, monkeypatch):
    # lowered between d=4's and d=5's 88 d^4 bytes
    monkeypatch.setattr(algebra, "MAX_CERTIFY_BYTES", 88 * 5**4 - 1)
    ran = []
    monkeypatch.setattr(reproduce, "run_criterion", lambda cid, **kwargs: ran.append(cid))
    assert main(["report", "--d-max", "5", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "error: certify at d=5 needs about" in err
    assert ran == [] and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("last, message", [
    (lambda e: e, "degenerate pair (34, 35): overlap s_jk={s} is too close to 1"),
    (lambda e: e / 2,
     "pair (34, 35) difference lacks a +/- eigenvalue pair: extremes [0.   0.75]"),
], ids=["degenerate", "no sign change"])
def test_certify_refuses_a_reference_pair_with_one_line(tmp_path, capsys, monkeypatch, last,
                                                         message):
    # the last of d=6's 630 pairs: refused before the walk (a degenerate pair) or
    # when the walk computes its chunk (no sign change); validation, which would
    # refuse either POVM first, is passed over
    vectors = bic.construct_weyl_bic(6, bic.geometric_fiducial(6, 0.3, 0.137)).vectors.copy()
    vectors[35] = last(vectors[34])
    povm = bic.BicPovm(6, vectors)
    dump_json(bic.povm_to_json(povm), tmp_path / "povm.json")
    monkeypatch.setattr(bic, "validate_bic", lambda povm, tol, S: Checks([]))
    assert main(["certify", str(tmp_path / "povm.json"), "--out", str(tmp_path)]) == 3
    message = message.format(s=bic.gram(povm).s[34, 35])
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "certify_report.json").exists()


def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def refused(*args):
        raise MemoryError("Unable to allocate 119. GiB for an array with shape "
                          "(2001, 2001, 2001) and data type complex128")

    monkeypatch.setattr(bic, "construct_weyl_bic", refused)
    assert main(["construct", "--d", "2001", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 119. GiB for an array with "
                   "shape (2001, 2001, 2001) and data type complex128\n")


def test_certify_walks_the_pairs_once(tmp_path, monkeypatch):
    # d=4 has 120 pairs: the walk takes two blocks
    assert main(["construct", "--d", "4", "--out", str(tmp_path)]) == 0
    walks = []
    blocks = bell.Strategy.pair_effect_blocks

    def counted(self):
        walks.append(self)
        return blocks(self)

    monkeypatch.setattr(bell.Strategy, "pair_effect_blocks", counted)
    assert main(["certify", str(tmp_path / "povm.json"), "--out", str(tmp_path)]) == 0
    assert len(walks) == 1


def test_tight_tol_floors_input_validation_only(tmp_path, capsys):
    # below DEFAULT_TOL the inputs are validated at DEFAULT_TOL: a valid POVM is
    # not refused as invalid input, but the certification fails at the tight tol
    assert main(["construct", "--d", "3", "--tol", "1e-17", "--out", str(tmp_path / "d3")]) == 0
    validation = load_json(tmp_path / "d3" / "construct_validation.json")
    assert validation["passed"] is True
    assert validation["povm"]["checks"]["sum_to_d_identity"]["threshold"] == pytest.approx(3e-9)
    assert main(["construct", "--d", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["certify", str(tmp_path / "povm.json"), "--tol", "1e-17", "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "input POVM failed validation" not in captured.err
    assert "FAILED: bell value" in captured.out
    report = load_json(tmp_path / "certify_report.json")
    assert "inputValidation" not in report and report["passed"] is False
    assert report["checks"]["bell value"]["threshold"] == pytest.approx(4e-17)


def _thresholds(obj, path=""):
    """Every check record's threshold in a JSON output, by path."""
    if not isinstance(obj, dict):
        return {}
    if "measured" in obj and "threshold" in obj:
        return {path: obj["threshold"]}
    return {k: v for key, value in obj.items() for k, v in _thresholds(value, f"{path}/{key}").items()}


def test_certify_thresholds_scale_with_tol(tmp_path):
    assert main(["construct", "--d", "3", "--out", str(tmp_path)]) == 0
    thresholds = {}
    for tol in ("1e-9", "1e-7"):
        out = tmp_path / tol
        assert main(["certify", str(tmp_path / "povm.json"), "--tol", tol, "--out", str(out)]) == 0
        thresholds[tol] = _thresholds(load_json(out / "certify_report.json"))
    assert len(thresholds["1e-9"]) == 16  # 6 checks, 9 certification checks, certified
    assert thresholds["1e-7"].keys() == thresholds["1e-9"].keys()
    for path, loose in thresholds["1e-7"].items():
        assert loose == pytest.approx(100 * thresholds["1e-9"][path], rel=1e-12), path


def _verdicts(obj):
    """Every "passed" value nested in a JSON output."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from [value] if key == "passed" else _verdicts(value)


def test_nested_verdicts_agree_with_certification(tmp_path):
    # at d=10 and tol 1e-14 the relation families were held to tol times
    # their own scale and failed inside a passing certification
    assert main(["construct", "--d", "10", "--out", str(tmp_path)]) == 0
    assert main(["certify", str(tmp_path / "povm.json"), "--tol", "1e-14",
                 "--out", str(tmp_path)]) == 2  # the SOS identity fails at 1e-12
    cert = load_json(tmp_path / "certify_report.json")["certification"]
    assert cert["passed"] is True
    assert all(_verdicts(cert))
    assert {c["threshold"] for c in cert["checks"].values()} == {1e-14 * 100}


def test_certify_weyl_d3_entropy(tmp_path):
    assert main(["construct", "--d", "3", "--out", str(tmp_path)]) == 0
    code = main(["certify", str(tmp_path / "povm.json"), "--out", str(tmp_path)])
    assert code == 0
    report = load_json(tmp_path / "certify_report.json")
    assert abs(report["bell"]["value"] - 9.0) < 1e-9
    assert abs(report["randomness"]["entropyBits"] - 2 * math.log2(3)) < 1e-9


def test_certify_names_no_offender_for_a_zero_maximum(tmp_path):
    # the stored reference vectors make every pair effect an exact projector
    assert main(["construct", "--d", "3", "--out", str(tmp_path)]) == 0
    assert main(["certify", str(tmp_path / "povm.json"), "--out", str(tmp_path)]) == 0
    checks = load_json(tmp_path / "certify_report.json")["certification"]["checks"]
    assert checks["a projectivity"]["measured"] == 0.0
    assert checks["a projectivity"]["worst"] is None


def test_certify_corrupted_povm_exits_2(tmp_path, capsys):
    assert main(["construct", "--d", "2", "--out", str(tmp_path)]) == 0
    payload = load_json(tmp_path / "povm.json")
    payload["vectors"][0][0] = [2.0, 0.0]  # break the unit norm
    bad = tmp_path / "bad.json"
    dump_json(payload, bad)
    capsys.readouterr()
    code = main(["certify", str(bad), "--out", str(tmp_path)])
    assert code == 2
    report = load_json(tmp_path / "certify_report.json")
    assert report["passed"] is False
    unit_norms = report["inputValidation"]["checks"]["unit_norms"]
    assert unit_norms["passed"] is False and unit_norms["worst"] == 1
    # one stderr line names the failing check, its value, threshold and worst vector
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert (f"unit_norms {unit_norms['measured']:.3e} (threshold 1.000e-10, worst 1)"
            in err)


def test_classical_sic_gram(tmp_path):
    gram_file = tmp_path / "gram.json"
    dump_json(bic.gram_to_json(bic_gram_d2(1 / 3, 1 / 3)), gram_file)
    code = main(
        ["classical", str(gram_file), "--out", str(tmp_path), "--format", "csv-summary"]
    )
    assert code == 0
    result = load_json(tmp_path / "classical.json")
    assert abs(result["bestValue"] - (8 / 3) * (math.sqrt(6) - 1)) < 1e-9
    assert (tmp_path / "classical.csv").exists()


def test_classical_run_header_times_the_enumeration(tmp_path):
    assert main(["construct", "--d", "3", "--out", str(tmp_path)]) == 0
    assert main(["classical", str(tmp_path / "gram.json"), "--out", str(tmp_path)]) == 0
    result = load_json(tmp_path / "classical.json")
    # every subset of the 9 outcomes with 0 < |J| < 6; no bound is read below d = 4
    assert result["run"]["subsets"] == sum(math.comb(9, m) for m in range(1, 6)) == 381
    assert result["run"]["searchSpace"] == 381
    assert list(result["run"]["seconds"]) == ["enumeration"]
    assert 0.0 < result["run"]["seconds"]["enumeration"] < 60.0


def test_classical_run_header_counts_the_subsets_scored(tmp_path):
    gram_file = tmp_path / "gram.json"
    dump_json(bic.gram_to_json(bic.gram(bic.construct_generic_bic(4, 1))), gram_file)
    assert main(["classical", str(gram_file), "--out", str(tmp_path)]) == 0
    run = load_json(tmp_path / "classical.json")["run"]
    assert run["searchSpace"] == sum(math.comb(16, m) for m in range(1, 8)) == 26_332
    # the cardinalities above d = 4 are proven below the top and skipped
    assert run["subsets"] == sum(math.comb(16, m) for m in range(1, 5)) == 2516


def test_classical_asymmetric_gram_exits_2(tmp_path, capsys):
    s = bic_gram_d2(0.2, 0.3).s.copy()
    s[0, 1] += 0.05  # column sums kept: column 1 gains and loses 0.05
    s[2, 1] -= 0.05
    gram_file = tmp_path / "gram.json"
    dump_json(bic.gram_to_json(bic.GramMatrix(d=2, s=s)), gram_file)
    assert main(["classical", str(gram_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "symmetric 5.000e-02 (threshold 1.000e-09, worst (1, 2))" in err
    assert not (tmp_path / "classical.json").exists()


def test_classical_weyl_d3(tmp_path):
    assert main(["construct", "--d", "3", "--out", str(tmp_path)]) == 0
    code = main(["classical", str(tmp_path / "gram.json"), "--out", str(tmp_path)])
    assert code == 0
    result = load_json(tmp_path / "classical.json")
    assert result["bestValue"] < 9.0
    assert result["gap"] > 0.0


def test_classical_d6_budget_exit(tmp_path):
    assert (
        main(["construct", "--d", "6", "--construction", "generic", "--seed", "7",
              "--out", str(tmp_path)])
        == 0
    )
    code = main(["classical", str(tmp_path / "gram.json"), "--out", str(tmp_path)])
    assert code == 3


def test_classical_d5_refusal_names_the_flag(tmp_path, capsys):
    gram_file = tmp_path / "gram.json"
    dump_json(bic.gram_to_json(bic.gram(bic.construct_generic_bic(5, 1))), gram_file)
    assert main(["classical", str(gram_file), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "d=5 enumeration must be enabled explicitly (--allow-d5" in err
    assert not (tmp_path / "classical.json").exists()


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_classical_max_subsets_below_one_is_usage_error(tmp_path, capsys, cap):
    gram_file = tmp_path / "gram.json"
    dump_json(bic.gram_to_json(bic_gram_d2(1 / 3, 1 / 3)), gram_file)
    argv = ["classical", str(gram_file), "--max-subsets", cap, "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"--max-subsets: expected an integer of at least 1, got '{cap}'" in err
    assert "budget" not in err
    assert not (tmp_path / "classical.json").exists()


def test_classical_wrong_schema_is_usage_error(tmp_path):
    assert main(["construct", "--d", "2", "--out", str(tmp_path)]) == 0
    code = main(["classical", str(tmp_path / "povm.json"), "--out", str(tmp_path)])
    assert code == 3


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert main(["construct", "--frobnicate"]) == 3
    capsys.readouterr()


def test_missing_file_is_usage_error(tmp_path):
    assert main(["certify", str(tmp_path / "missing.json")]) == 3


@pytest.mark.parametrize(
    "command, payload",
    [
        ("certify", {"d": 1, "vectors": [[[1.0, 0.0]]]}),
        ("classical", {"d": 1, "s": [[1.0]]}),
    ],
)
def test_d1_input_is_usage_error(tmp_path, capsys, command, payload):
    path = tmp_path / "d1.json"
    dump_json(payload, path)
    capsys.readouterr()
    assert main([command, str(path), "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "d must be >= 2" in captured.err


@pytest.mark.parametrize(
    "command, key, rows, nan_rows",
    [
        ("certify", "vectors", [[[0.5, 0.0]] * 2] * 4, [[["NaN", 0.0]] * 2] * 4),
        ("classical", "s", [[0.5] * 4] * 4, [["NaN"] * 4] * 4),
    ],
    ids=["certify", "classical"],
)
@pytest.mark.parametrize(
    "malform",
    [
        lambda key, rows, nan_rows: None,
        lambda key, rows, nan_rows: [2, rows],
        lambda key, rows, nan_rows: {"d": [2], key: rows},
        lambda key, rows, nan_rows: {"d": 2.5, key: rows},
        lambda key, rows, nan_rows: {"d": "2", key: rows},
        lambda key, rows, nan_rows: {"d": 2, key: nan_rows},
        lambda key, rows, nan_rows: {"d": 2, key: [10**400]},
    ],
    ids=["null", "list", "list-d", "float-d", "string-d", "nan-entries", "int-beyond-float"],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, command, key, rows, nan_rows,
                                        malform):
    path = tmp_path / "bad.json"
    dump_json(malform(key, rows, nan_rows), path)
    capsys.readouterr()
    assert main([command, str(path), "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["certify", "classical"])
def test_too_deeply_nested_input_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, str(path), "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "command, body",
    [
        ("certify", {"d": 2, "vectors": [[[1e308, 1e308]] * 2] * 4}),
        ("certify", {"d": 2, "vectors": [[[1e100, 0.0]] * 2] * 4}),  # |v|^4 overflows
        ("classical", {"d": 2, "s": [[1e308] * 4] * 4}),
    ],
    ids=["certify", "certify-1e100", "classical"],
)
def test_huge_entries_are_usage_error_without_warnings(tmp_path, capsys, command, body):
    # pytest's own capture hides numpy's RuntimeWarnings; make them fail here
    path = tmp_path / "huge.json"
    dump_json(body, path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path), "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "magnitude above 1e+50" in captured.err


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=20) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=40,
)


@st.composite
def input_bodies(draw, key: str, last: int):
    """A body shaped like a POVM (key "vectors", entries of ``last`` numbers)
    or Gram file (key "s", last = 0), with d mostly in -1..4, at most 20
    entries per list and entries mostly numbers; or any JSON value.  No draw
    allocates by d: a d that does not fit the entries is refused first."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    entry = st.floats() | st.integers(-2, 2) | st.integers(2**1023, 2**1100) | JSON_SCALARS
    shape = [draw(st.integers(0, 20)), draw(st.integers(0, 20))]
    shape += [draw(st.integers(1, 3))] if last else []

    def nested(dims):
        return draw(entry) if not dims else [nested(dims[1:]) for _ in range(dims[0])]

    body = {"d": draw(st.integers(-1, 4) | JSON_SCALARS), key: nested(shape)}
    extra = draw(st.sampled_from(["none", "drop-d", "drop-entries", "extra-key"]))
    if extra == "drop-d":
        del body["d"]
    elif extra == "drop-entries":
        del body[key]
    elif extra == "extra-key":
        body["other"] = draw(JSON_VALUES)
    return body


@pytest.mark.parametrize(
    "command, key, last, decode, validate",
    [
        ("certify", "vectors", 2, bic.povm_from_json, bic.validate_bic),
        ("classical", "s", 0, bic.gram_from_json, bic.validate_gram),
    ],
    ids=["certify", "classical"],
)
def test_fuzzed_input_file_exits_cleanly(tmp_path_factory, command, key, last, decode,
                                         validate):
    out = tmp_path_factory.mktemp(f"fuzz-{command}")
    path = out / "body.json"

    @settings(max_examples=40, deadline=None)
    @given(body=input_bodies(key, last))
    def run(body):
        dump_json(body, path)
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main([command, str(path), "--out", str(out)])
        if code == 0:  # only a body that decodes and validates may pass
            assert validate(decode(load_json(path))).passed
            return
        assert code in (2, 3)
        assert stderr.getvalue().count("\n") == 1

    run()


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "abc"])
@pytest.mark.parametrize("command", ["construct", "certify"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, command, tol):
    target = [] if command == "construct" else [str(tmp_path / "povm.json")]
    assert main([command, *target, "--tol", tol, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "--tol" in captured.err


@pytest.mark.parametrize("d_max", ["-2", "0", "3", "abc"])
def test_d_max_below_4_is_usage_error(tmp_path, capsys, d_max):
    # every criterion already runs d up to 4 or more, so these changed nothing
    assert main(["report", "--d-max", d_max, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "--d-max" in captured.err and "at least 4" in captured.err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("d", ["-4", "0", "1"])
def test_construct_d_below_2_is_usage_error(tmp_path, capsys, d):
    assert main(["construct", "--d", d, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "--d" in captured.err and f"at least 2, got '{d}'" in captured.err
    assert not list(tmp_path.iterdir())


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BICCERT_SEED", "123")
    out_a = tmp_path / "a"
    code = main(
        ["construct", "--d", "2", "--construction", "generic", "--out", str(out_a)]
    )
    assert code == 0
    monkeypatch.delenv("BICCERT_SEED")
    out_b = tmp_path / "b"
    assert main(
        ["construct", "--d", "2", "--construction", "generic", "--seed", "123",
         "--out", str(out_b)]
    ) == 0
    assert (out_a / "povm.json").read_bytes() == (out_b / "povm.json").read_bytes()


def test_seed_env_is_read_on_every_call(tmp_path, monkeypatch):
    for seed in ("5", "6"):
        monkeypatch.setenv("BICCERT_SEED", seed)
        out = tmp_path / seed
        assert main(["construct", "--d", "2", "--construction", "generic",
                     "--out", str(out)]) == 0
        assert load_json(out / "povm.json")["run"]["seed"] == int(seed)
    vectors = [load_json(tmp_path / seed / "povm.json")["vectors"] for seed in ("5", "6")]
    assert vectors[0] != vectors[1]
    monkeypatch.setenv("BICCERT_SEED", "abc")
    assert main(["construct", "--d", "2", "--out", str(tmp_path / "bad")]) == 3
    monkeypatch.delenv("BICCERT_SEED")
    assert main(["construct", "--d", "2", "--out", str(tmp_path / "unset")]) == 0
    assert load_json(tmp_path / "unset" / "povm.json")["run"]["seed"] == 0
    assert build_parser() is build_parser()  # one parser for every call


def test_bad_seed_env_is_usage_error(tmp_path, capsys, monkeypatch):
    for seed in ("abc", "-3"):
        monkeypatch.setenv("BICCERT_SEED", seed)
        assert main(["construct", "--d", "2", "--construction", "generic",
                     "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert "BICCERT_SEED" in captured.err and f"'{seed}'" in captured.err
    assert not list(tmp_path.iterdir())


def test_negative_seed_flag_is_usage_error_before_any_criterion(tmp_path, capsys):
    assert main(["report", "--seed", "-1", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion line
    assert captured.err.count("\n") == 1
    assert "--seed" in captured.err and "non-negative" in captured.err and "'-1'" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("d", [2, 3])
def test_non_finite_t_is_usage_error_without_warnings(tmp_path, capsys, d, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["construct", "--d", str(d), f"--t={t}", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: t must be a finite number")


def test_construct_deterministic_given_flags(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(
            ["construct", "--d", "3", "--construction", "generic", "--seed", "4",
             "--out", str(out)]
        ) == 0
    assert (out_a / "povm.json").read_bytes() == (out_b / "povm.json").read_bytes()


# (measured, threshold) names of perfbench/harness.py::REPORT_RESIDUALS
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


@pytest.mark.slow
def test_report_command_full_run(tmp_path, capsys):
    code = main(
        ["report", "--out", str(tmp_path), "--format", "csv-summary", "--d-max", "4"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("PASS criterion") == 11
    payload = load_json(tmp_path / "report.json")
    assert payload["allPassed"] is True
    assert len(payload["criteria"]) == 11
    assert (tmp_path / "report.csv").exists()
    # the (measured, threshold) names the benchmark's correctness gate reads
    pairs = [
        (c["measured"][measured], c["thresholds"][threshold])
        for c in payload["criteria"]
        for measured, threshold in REPORT_RESIDUALS
        if measured in c["measured"] and threshold in c["thresholds"]
    ]
    assert len(pairs) == len(REPORT_RESIDUALS)
    assert all(0.0 <= value <= limit for value, limit in pairs)


def test_report_tight_tolerance_fails(tmp_path, capsys):
    code = main(["report", "--tol", "1e-15", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 2
    payload = load_json(tmp_path / "report.json")
    assert payload["allPassed"] is False


# ---------------------------------------------------------------------------
# lazy imports, in a fresh interpreter: this process has loaded every module
# ---------------------------------------------------------------------------

def _run_fresh(script: str, *args: str) -> list[str]:
    """stdout lines of ``script`` run by a new interpreter that imports
    biccert from the tree under test."""
    src = str(Path(bic.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script, src, *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


LOADED_BY_COMMANDS = """
import json, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]

def loaded():
    print("loaded", json.dumps(sorted(m for m in sys.modules if m.startswith("biccert"))))

import biccert.cli as cli
loaded()
assert cli.main(["construct", "--d", "2", "--out", out]) == 0
loaded()
assert cli.main(["classical", out + "/gram.json", "--out", out]) == 0
loaded()
"""


def test_construct_and_classical_never_load_the_certify_layers(tmp_path):
    lines = _run_fresh(LOADED_BY_COMMANDS, str(tmp_path))
    loaded = [set(json.loads(line.removeprefix("loaded "))) for line in lines
              if line.startswith("loaded ")]
    assert len(loaded) == 3
    deferred = {"biccert.bell", "biccert.algebra", "biccert.randomness", "biccert.reproduce"}
    assert all(not modules & deferred for modules in loaded)
    assert loaded[0] == loaded[1] == {"biccert", "biccert.bic", "biccert.cli", "biccert.linalg"}
    assert loaded[2] == loaded[0] | {"biccert.classical"}


STAR_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import biccert
print(sorted(m for m in sys.modules if m.startswith("biccert")))
print(biccert.bell.__name__)
from biccert import *
missing = [name for name in biccert.__all__ if name not in globals()]
assert not missing, missing
assert biccert.certify is biccert.algebra.certify
try:
    biccert.no_such_name
except AttributeError:
    print("unknown name refused")
"""


def test_star_import_binds_every_export_lazily():
    assert _run_fresh(STAR_IMPORT) == ["['biccert']", "biccert.bell", "unknown name refused"]
