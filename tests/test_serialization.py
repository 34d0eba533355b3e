import json

import numpy as np
import pytest

from biccert import bell, bic
from biccert.linalg import (
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    random_hermitian,
)


def roundtrip_bytes(payload, tmp_path, encode, decode):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    dump_json(payload, first)
    reloaded = decode(load_json(first))
    dump_json(encode(reloaded), second)
    assert first.read_bytes() == second.read_bytes()
    return reloaded


def test_matrix_wire_format_shape():
    M = np.array([[1 + 2j, 0.5], [0, -1j]])
    obj = matrix_to_json(M)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["data"][0] == [1.0, 2.0]
    back = matrix_from_json(obj)
    assert np.array_equal(back, M)


def test_vector_wire_format_column():
    v = np.array([1j, 2.0, 3.0])
    obj = matrix_to_json(v)
    assert obj["cols"] == 1
    assert np.array_equal(matrix_from_json(obj), v)


def test_matrix_roundtrip_bit_identical(tmp_path):
    M = random_hermitian(5, np.random.default_rng(0))
    roundtrip_bytes(
        matrix_to_json(M), tmp_path, matrix_to_json, matrix_from_json
    )


def test_povm_and_gram_roundtrip(tmp_path, weyl_povm_d3):
    povm = roundtrip_bytes(
        bic.povm_to_json(weyl_povm_d3), tmp_path, bic.povm_to_json, bic.povm_from_json
    )
    assert np.array_equal(povm.vectors, weyl_povm_d3.vectors)
    gm = bic.gram(weyl_povm_d3)
    back = roundtrip_bytes(
        bic.gram_to_json(gm), tmp_path, bic.gram_to_json, bic.gram_from_json
    )
    assert np.array_equal(back.s, gm.s)


def test_strategy_roundtrip(tmp_path, reference_d2):
    ref, _ = reference_d2
    back = roundtrip_bytes(
        bell.strategy_to_json(ref), tmp_path, bell.strategy_to_json, bell.strategy_from_json
    )
    assert np.array_equal(back.rho, ref.rho)
    assert back.pairs == ref.pairs
    assert np.array_equal(back.alice_pair_effects, ref.alice_pair_effects)
    assert np.array_equal(back.alice_povm, ref.alice_povm)
    assert np.array_equal(back.bob, ref.bob)


def test_correlation_roundtrip(tmp_path, reference_d2):
    ref, _ = reference_d2
    corr = bell.correlation(ref)
    back = roundtrip_bytes(
        bell.correlation_to_json(corr),
        tmp_path,
        bell.correlation_to_json,
        bell.correlation_from_json,
    )
    assert np.array_equal(back.pair_probs, corr.pair_probs)
    assert np.array_equal(back.povm_probs, corr.povm_probs)


def test_correlation_json_uses_perp_label(reference_d2):
    ref, _ = reference_d2
    payload = bell.correlation_to_json(bell.correlation(ref))
    cell = payload["table"]["1,2"]["1"]
    assert set(cell) == {"1", "2", "perp"}
    assert set(cell["1"]) == {"1", "perp"}
    assert "povm" in payload["table"]


def test_validation_report_json(weyl_povm_d2):
    report = bic.validate_bic(weyl_povm_d2)
    payload = report.to_json()
    assert payload["passed"] is True
    assert set(payload["checks"]) == {
        "unit_norms",
        "sum_to_d_identity",
        "gram_invertible",
    }
    json.dumps(payload)  # must be serializable as-is


MALFORMED_BODIES = [
    pytest.param(matrix_from_json, None, id="matrix-null"),
    pytest.param(matrix_from_json, {"rows": "2", "cols": 1, "data": [[0, 0]] * 2},
                 id="matrix-rows"),
    pytest.param(matrix_from_json, {"rows": 2, "cols": 1, "data": [[0, "x"]] * 2},
                 id="matrix-text"),
    pytest.param(matrix_from_json, {"rows": 1, "cols": 1, "data": [["NaN", 0]]}, id="matrix-nan"),
    pytest.param(matrix_from_json, {"rows": 2, "cols": 2, "data": [[0, 0]] * 3}, id="matrix-size"),
    pytest.param(bell.strategy_from_json, None, id="strategy-null"),
    pytest.param(bell.strategy_from_json, {"dims": None}, id="strategy-dims"),
    pytest.param(bell.strategy_from_json, {"dims": {"dA": 2, "dB": 2}, "alicePairs": 3},
                 id="strategy-pairs"),
    pytest.param(bell.strategy_from_json, {"dims": {"dA": 2, "dB": 2}, "alicePairs": [{"j": "1"}]},
                 id="strategy-pair-label"),
    pytest.param(bell.correlation_from_json, None, id="correlation-null"),
    pytest.param(bell.correlation_from_json, {"nOutcomes": [4]}, id="correlation-n"),
    pytest.param(bell.correlation_from_json, {"nOutcomes": 4, "table": []}, id="correlation-table"),
    pytest.param(bell.correlation_from_json, {"nOutcomes": 4, "table": {"1,2": [1]}},
                 id="correlation-nesting"),
]


@pytest.mark.parametrize("decode, body", MALFORMED_BODIES)
def test_codecs_refuse_malformed_bodies(decode, body):
    with pytest.raises(ValueError):
        decode(body)


def test_correlation_codec_refuses_non_finite_entries(reference_d2):
    ref, _ = reference_d2
    payload = bell.correlation_to_json(bell.correlation(ref))
    payload["table"]["1,2"]["1"]["2"]["perp"] = "NaN"
    with pytest.raises(ValueError, match="non-finite"):
        bell.correlation_from_json(payload)
