"""Exact classical value of the Bell function.

The local deterministic maximum reduces to a finite maximization over outcome
subsets J with 0 < |J| < 2d:

    v(J) = -d(d-2) |J| + sum_{j in J, k not in J} (2 sqrt(1-s_jk) - (1-s_jk)),

with v(empty) = -1.  ``classical_value`` enumerates the subsets by prefix
expansion, each from its parent in O(1), and breaks ties within rounding
toward the smallest, then lexicographically first, subset.  A brute-force
enumeration over all deterministic strategies serves as an independent oracle
at d = 2, and the d = 2 landscape has a closed three-branch form in the
parameters (t1, t2) of the general two-dimensional BIC family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bic import GramMatrix

MAX_SUBSETS_DEFAULT = 5_000_000
_PARENTS = 512  # parents expanded per block; bounds every temporary
_TIE_TOL = 1e-12  # values within _TIE_TOL * d^2 of the maximum are tied


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


def classical_value(
    S: GramMatrix,
    *,
    allow_d5: bool = False,
    max_subsets: int = MAX_SUBSETS_DEFAULT,
) -> ClassicalResult:
    """Exhaustive maximum of v(J) over all J with 0 < |J| < 2d, by prefix expansion.

    Each J + {k} with k > max(J) takes its value from J's in O(1):
    v(J + k) = v(J) + step_J[k] with step_J[k] = -d(d-2) + sum_l W[k,l]
    - 2 sum_{j in J} W[j,k] (W the payoff matrix), and step_{J+k} =
    step_J - 2 W[k]; the s_jk^2 boundary sum follows likewise from Q = s^2.
    A block of parents yields its children at once from the mask k > max(J);
    children are expanded depth first, block by block, so temporaries stay
    small and each cardinality is visited in lexicographic order.  The same
    pass yields the upper bound d^2 - (1/4) min boundary sum of s_jk^2.

    Values within _TIE_TOL * d^2 of the maximum are tied (exact ties, such as
    J and its complement at d=2, differ by rounding only): the smallest
    cardinality wins, then the lexicographically first J, and best_value is
    the value of that J.
    """
    d, n = S.d, S.n
    max_card = _check_budget(S, allow_d5, max_subsets)
    band = _TIE_TOL * d * d
    Q = S.s**2
    np.fill_diagonal(Q, 0.0)
    # every step of a parent drops by rows[k] = 2 (W[k], Q[k]) when k joins it
    rows = 2.0 * np.stack([_payoff_matrix(S), Q], axis=1)
    outcomes, top, min_boundary = np.arange(n), -math.inf, math.inf
    records = [[] for _ in range(max_card + 1)]  # per |J|: (value, bitmask) prefix maxima

    def expand(m, score, step, last, mask):
        """Score the children, of cardinality m, of parents J given as
        score = (v(J), Q boundary), step, last = max(J) and bitmask; recurse."""
        nonlocal top, min_boundary
        for b in range(0, len(last), _PARENTS):
            s = slice(b, b + _PARENTS)
            pi, k = (outcomes > last[s, None]).nonzero()
            if not len(k):
                continue
            child, child_mask = score[s][pi] + step[s][pi, :, k], mask[s][pi] | (1 << k)
            values = child[:, 0]
            top = max(top, float(values.max()))
            min_boundary = min(min_boundary, float(child[:, 1].min()))
            run = records[m]
            for i in (values >= top - band).nonzero()[0]:
                if not run or values[i] > run[-1][0]:
                    run.append((float(values[i]), int(child_mask[i])))
            if m < max_card:
                expand(m + 1, child, step[s][pi] - rows[k], k, child_mask)

    root_step = 0.5 * rows.sum(axis=2).T - np.array([[d * (d - 2)], [0.0]])
    expand(1, np.zeros((1, 2)), root_step[None], np.array([-1]), np.zeros(1, np.int64))
    best_value, best_mask = next(r for run in records for r in run if r[0] >= top - band)

    return ClassicalResult(
        best_value=best_value,
        best_subset=tuple(j for j in range(n) if best_mask >> j & 1),
        upper_bound=float(d * d - 0.25 * min_boundary),
        quantum_gap=d * d - best_value,
    )


def deterministic_score(
    S: GramMatrix, pair_choices, bob_bits, povm_index: int
) -> float:
    """Objective of one local deterministic strategy; the tests maximize it
    by hand as an oracle for ``brute_force_classical``.

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
    outcomes; serves as the independent oracle for the subset formula:
    criterion 4 and the tests compare ``classical_value`` against it.
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
    """Closed-form classical value of the d=2 Bell function at (t1, t2);
    criterion 4 and the tests compare ``classical_value`` against it on a grid."""
    if not (t1 > 0 and t2 > 0 and t1 + t2 < 1):
        raise ValueError("parameters must satisfy t1, t2 > 0 and t1 + t2 < 1")
    if t2 <= (1.0 - t1) / 2.0 and t1 <= (1.0 - t2) / 2.0:
        return 2.0 * (t1 + t2 + 2.0 * (math.sqrt(1 - t1) + math.sqrt(1 - t2) - 1.0))
    if t1 <= t2:
        return 2.0 * (2.0 * (math.sqrt(1 - t1) + math.sqrt(t1 + t2)) - 1.0 - t2)
    return 2.0 * (2.0 * (math.sqrt(1 - t2) + math.sqrt(t1 + t2)) - 1.0 - t1)
