"""Exact classical value of the Bell function.

The local deterministic maximum reduces to a finite maximization over outcome
subsets J with 0 < |J| < 2d:

    v(J) = -d(d-2) |J| + sum_{j in J, k not in J} (2 sqrt(1-s_jk) - (1-s_jk)),

with v(empty) = -1.  A brute-force enumeration over all deterministic
strategies serves as an independent oracle at d = 2, and the d = 2 landscape
has a closed three-branch form in the parameters (t1, t2) of the general
two-dimensional BIC family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bic import GramMatrix

MAX_SUBSETS_DEFAULT = 5_000_000
_CHUNK = 65_536


@dataclass(frozen=True)
class ClassicalResult:
    """Best deterministic value, its witness subset (0-based), and the bound."""

    best_value: float
    best_subset: tuple[int, ...]
    upper_bound: float
    quantum_gap: float

    def to_json(self) -> dict:
        return {
            "bestValue": self.best_value,
            "bestSubset": [j + 1 for j in self.best_subset],
            "upperBound": self.upper_bound,
            "gap": self.quantum_gap,
        }


def _payoff_matrix(S: GramMatrix) -> np.ndarray:
    gap = np.clip(1.0 - S.s, 0.0, None)  # the diagonal carries float noise around 0
    W = 2.0 * np.sqrt(gap) - gap
    np.fill_diagonal(W, 0.0)
    return W


def subset_value(J, S: GramMatrix) -> float:
    """v(J) as defined above; -1 for the empty set."""
    d, n = S.d, S.n
    J = sorted(set(int(j) for j in J))
    if any(j < 0 or j >= n for j in J):
        raise ValueError(f"subset indices must lie in [0, {n})")
    if not J:
        return -1.0
    W = _payoff_matrix(S)
    inside = np.zeros(n, dtype=bool)
    inside[J] = True
    boundary = W[np.ix_(inside, ~inside)].sum()
    return float(-d * (d - 2) * len(J) + boundary)


def _subset_budget(n: int, max_card: int) -> int:
    return sum(math.comb(n, m) for m in range(1, max_card + 1))


def _check_budget(S: GramMatrix, allow_d5: bool, max_subsets: int) -> int:
    d = S.d
    if d > 5:
        raise ValueError(f"exhaustive enumeration is not supported for d={d}")
    if d == 5 and not allow_d5:
        raise ValueError("d=5 enumeration must be enabled explicitly (allow_d5=True)")
    max_card = min(2 * d - 1, S.n)
    budget = _subset_budget(S.n, max_card)
    if budget > max_subsets:
        raise ValueError(
            f"enumeration budget exceeded: {budget} subsets > cap {max_subsets}"
        )
    return max_card


def _boundary_sums(weights: np.ndarray, row: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_{j in J, k not in J} weights[j,k] for each subset J, a row of idx."""
    return row[idx].sum(axis=1) - weights[idx[:, :, None], idx[:, None, :]].sum(
        axis=(1, 2)
    )


def _chunked(iterator, size):
    block = []
    for item in iterator:
        block.append(item)
        if len(block) == size:
            yield block
            block = []
    if block:
        yield block


def classical_value(
    S: GramMatrix,
    *,
    allow_d5: bool = False,
    max_subsets: int = MAX_SUBSETS_DEFAULT,
) -> ClassicalResult:
    """Exhaustive maximum of v(J) over all J with 0 < |J| < 2d.

    Ties break toward the smallest cardinality, then lexicographic J: subsets
    are enumerated by cardinality ascending, lexicographic inside each class,
    and only a strict improvement replaces the best.  The same pass yields the
    upper bound d^2 - (1/4) min boundary sum of s_jk^2.
    """
    d = S.d
    max_card = _check_budget(S, allow_d5, max_subsets)
    W = _payoff_matrix(S)
    Q = S.s**2
    np.fill_diagonal(Q, 0.0)
    row_W, row_Q = W.sum(axis=1), Q.sum(axis=1)

    best_value = -math.inf
    best_J: tuple[int, ...] = ()
    min_boundary = math.inf
    for m in range(1, max_card + 1):
        for block in _chunked(combinations(range(S.n), m), _CHUNK):
            idx = np.array(block, dtype=np.int64)
            # the -d(d-2)|J| offset depends only on |J|
            values = -d * (d - 2) * m + _boundary_sums(W, row_W, idx)
            top = int(np.argmax(values))
            if values[top] > best_value:
                best_value = float(values[top])
                best_J = tuple(int(j) for j in idx[top])
            min_boundary = min(min_boundary, float(_boundary_sums(Q, row_Q, idx).min()))

    return ClassicalResult(
        best_value=best_value,
        best_subset=best_J,
        upper_bound=float(d * d - 0.25 * min_boundary),
        quantum_gap=d * d - best_value,
    )


def classical_upper_bound(
    S: GramMatrix,
    *,
    allow_d5: bool = False,
    max_subsets: int = MAX_SUBSETS_DEFAULT,
) -> float:
    """d^2 - (1/4) min over 0 < |J| < 2d of sum_{j in J, k not in J} s_jk^2."""
    return classical_value(S, allow_d5=allow_d5, max_subsets=max_subsets).upper_bound


def deterministic_score(
    S: GramMatrix, pair_choices, bob_bits, povm_index: int
) -> float:
    """Objective of one local deterministic strategy.

    ``pair_choices[p]`` is 0 (output perp), 1 (output 1) or 2 (output 2) for
    the p-th pair in lexicographic order; ``bob_bits[j]`` is Bob's output for
    setting j; ``povm_index`` is Alice's deterministic povm outcome.
    """
    d, n = S.d, S.n
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    if len(pair_choices) != len(pairs) or len(bob_bits) != n:
        raise ValueError("assignment lengths do not match the scenario")
    value = 0.0
    for p, (j, k) in enumerate(pairs):
        choice = pair_choices[p]
        a1 = 1.0 if choice == 1 else 0.0
        a2 = 1.0 if choice == 2 else 0.0
        s_jk = S.s[j, k]
        value += 2.0 * math.sqrt(1.0 - s_jk) * (a1 - a2) * (bob_bits[j] - bob_bits[k])
        value -= (1.0 - s_jk) * (a1 + a2)
    value -= d * (d - 2) * sum(bob_bits)
    value -= 1.0 - bob_bits[povm_index]
    return value


def brute_force_classical(S: GramMatrix) -> float:
    """Exhaustive maximum over every deterministic strategy (d = 2 only).

    Enumerates all 3^6 pair assignments x 2^4 Bob assignments x 4 povm
    outcomes; serves as the independent oracle for the subset formula.
    """
    d, n = S.d, S.n
    if d != 2:
        raise ValueError("brute force enumeration is supported for d=2 only")
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    n_pairs = len(pairs)

    # per-pair outcome states 0/1/2 -> (a1 - a2, a1 + a2)
    states = np.array([[0, 0], [1, 1], [-1, 1]], dtype=float)
    grids = np.indices((3,) * n_pairs).reshape(n_pairs, -1).T  # (3^6, 6)
    diff = states[grids, 0]
    both = states[grids, 1]

    bobs = np.indices((2,) * n).reshape(n, -1).T  # (16, 4)

    root = np.array([2.0 * math.sqrt(1.0 - S.s[j, k]) for j, k in pairs])
    penalty = np.array([1.0 - S.s[j, k] for j, k in pairs])

    # A(a, b) = sum_p root_p * diff[a,p] * (b_j - b_k) - penalty_p * both[a,p]
    bdiff = np.stack([bobs[:, j] - bobs[:, k] for j, k in pairs], axis=1)  # (16, 6)
    a_term = diff @ (root[None, :] * bdiff).T - (both @ penalty)[:, None]  # (3^6, 16)
    a_term -= d * (d - 2) * bobs.sum(axis=1)[None, :]
    povm_term = bobs - 1.0  # (16, n): value contribution of choosing povm outcome j

    best = -np.inf
    for b in range(bobs.shape[0]):
        column = a_term[:, b]
        best = max(best, float(column.max() + povm_term[b].max()))
    return best


def bic_gram_d2(t1: float, t2: float) -> GramMatrix:
    """Gram matrix of the general two-dimensional BIC family at (t1, t2)."""
    if not (t1 > 0 and t2 > 0 and t1 + t2 < 1):
        raise ValueError("parameters must satisfy t1, t2 > 0 and t1 + t2 < 1")
    u = 1.0 - t1 - t2
    S = np.array(
        [
            [1.0, u, t1, t2],
            [u, 1.0, t2, t1],
            [t1, t2, 1.0, u],
            [t2, t1, u, 1.0],
        ]
    )
    return GramMatrix(d=2, s=S)


def closed_form_d2(t1: float, t2: float) -> float:
    """Closed-form classical value of the d=2 Bell function at (t1, t2)."""
    if not (t1 > 0 and t2 > 0 and t1 + t2 < 1):
        raise ValueError("parameters must satisfy t1, t2 > 0 and t1 + t2 < 1")
    if t2 <= (1.0 - t1) / 2.0 and t1 <= (1.0 - t2) / 2.0:
        return 2.0 * (t1 + t2 + 2.0 * (math.sqrt(1 - t1) + math.sqrt(1 - t2) - 1.0))
    if t1 <= t2:
        return 2.0 * (2.0 * (math.sqrt(1 - t1) + math.sqrt(t1 + t2)) - 1.0 - t2)
    return 2.0 * (2.0 * (math.sqrt(1 - t2) + math.sqrt(t1 + t2)) - 1.0 - t1)
