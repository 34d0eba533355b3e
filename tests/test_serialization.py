import json

import numpy as np
import pytest

from biccert import bic
from biccert.linalg import dump_json, load_json


def roundtrip_bytes(payload, tmp_path, encode, decode):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    dump_json(payload, first)
    reloaded = decode(load_json(first))
    dump_json(encode(reloaded), second)
    assert first.read_bytes() == second.read_bytes()
    return reloaded


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


POVM_ROWS = [[[0.5, 0.0]] * 2] * 4  # four vectors in C^2, as [re, im] pairs
GRAM_ROWS = [[0.5] * 4] * 4

MALFORMED_BODIES = [
    pytest.param(bic.povm_from_json, None, "JSON object", id="povm-null"),
    pytest.param(bic.povm_from_json, {"d": "2", "vectors": POVM_ROWS}, "JSON int",
                 id="povm-string-d"),
    pytest.param(bic.povm_from_json, {"d": 2, "vectors": [[[0.5, "x"]] * 2] * 4},
                 "numbers only", id="povm-text"),
    pytest.param(bic.povm_from_json, {"d": 2, "vectors": [[[float("nan"), 0.0]] * 2] * 4},
                 "non-finite", id="povm-nan"),
    pytest.param(bic.povm_from_json, {"d": 2, "vectors": [[[0.5, 0.0, 0.0]] * 2] * 4}, "pairs",
                 id="povm-pairs"),
    pytest.param(bic.gram_from_json, None, "JSON object", id="gram-null"),
    pytest.param(bic.gram_from_json, {"d": [2], "s": GRAM_ROWS}, "JSON int", id="gram-list-d"),
    pytest.param(bic.gram_from_json, {"d": "2", "s": GRAM_ROWS}, "JSON int",
                 id="gram-string-d"),
    pytest.param(bic.gram_from_json, {"d": 2, "s": [["x"] * 4] * 4}, "numbers only",
                 id="gram-text"),
    pytest.param(bic.gram_from_json, {"d": 2, "s": [[float("nan")] * 4] * 4}, "non-finite",
                 id="gram-nan"),
    pytest.param(bic.povm_from_json, {"d": 2, "vectors": [[[0.5, -1e151]] * 2] * 4},
                 r"magnitude above 1e\+50", id="povm-huge"),
    pytest.param(bic.gram_from_json, {"d": 2, "s": [[1e308] * 4] * 4},
                 r"magnitude above 1e\+50", id="gram-huge"),
    # a file holds one Gram matrix, never a stack
    pytest.param(bic.gram_from_json, {"d": 2, "s": [GRAM_ROWS] * 2}, "expected a 4x4 matrix",
                 id="gram-stack"),
]


@pytest.mark.parametrize("decode, body, message", MALFORMED_BODIES)
def test_codecs_refuse_malformed_bodies(decode, body, message):
    with pytest.raises(ValueError, match=message):
        decode(body)
