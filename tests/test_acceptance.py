"""Acceptance suite: every headline claim at its pinned tolerance.

Each test runs one criterion of the reproduction suite and prints a single
pass/fail line with the measured residuals (visible with ``pytest -s`` or on
failure).  Budgets are generous multiples of the stated runtime limits.
"""

import numpy as np
import pytest

from biccert import algebra
from biccert.reproduce import run_criterion

BUDGETS = {
    1: 30.0,
    2: 60.0,
    3: 60.0,
    4: 120.0,
    5: 60.0,
    6: 60.0,
    7: 60.0,
    8: 60.0,
    9: 60.0,
    10: 60.0,
    11: 60.0,
}


@pytest.mark.parametrize("cid", sorted(BUDGETS))
def test_criterion(cid):
    outcome = run_criterion(cid)
    print(outcome.line())
    assert outcome.passed, outcome.line()
    assert outcome.seconds < BUDGETS[cid], f"criterion {cid} exceeded its time budget"


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (6, 1)])
def test_criterion_9_rejects_one_block_of_another_shape(monkeypatch, shape):
    m, k = shape
    block = algebra.IrrepBlock(m, k, np.zeros((9, k, k), dtype=complex))
    one_block = algebra.IrrepDecomposition(np.eye(6, dtype=complex), (block,), 0.0)
    monkeypatch.setattr(algebra, "irrep_decompose", lambda X, seed=0: one_block)
    outcome = run_criterion(9)
    assert not outcome.passed
    assert outcome.checks["single block"].worst == (shape,)
