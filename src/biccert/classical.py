"""Exact classical value of the Bell function.

The local deterministic maximum reduces to a finite maximization over outcome
subsets J with 0 < |J| < 2d:

    v(J) = -d(d-2) |J| + sum_{j in J, k not in J} (2 sqrt(1-s_jk) - (1-s_jk)),

with v(empty) = -1.  ``classical_value`` enumerates the subsets by prefix
expansion, each from its parent in O(1): a parent's step vector is built only
for a block of parents whose children recurse, and a leaf reads its one step
entry from the grandparent's vector.  Ties within rounding go to the
smallest, then lexicographically first, subset.  A brute-force
enumeration over all deterministic strategies serves as an independent oracle
at d = 2, and the d = 2 landscape has a closed three-branch form in the
parameters (t1, t2) of the general two-dimensional BIC family.

Since every W entry is at most 1, v(J) <= m (2d - m) for |J| = m, which
peaks at m = d.  Above d the scan stops once per-cardinality bounds prove
that no deeper J can either reach the top (row sums of the largest W
entries, and lambda_max(L_W) m (n-m) / n) or lower the minimum s_jk^2
boundary sum (row sums of the smallest Q entries, and Fiedler's
lambda_2(L_Q) m (n-m) / n); the outputs stay bitwise those of the full scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bic import GramMatrix

MAX_SUBSETS_DEFAULT = 5_000_000
_PARENTS = 512  # parents expanded per block; bounds every temporary
_TIE_TOL = 1e-12  # values within _TIE_TOL * d^2 of the maximum are tied
_MARGIN = 1e-9  # per n^2: widens the cardinality bounds past any rounding


@dataclass(frozen=True)
class ClassicalResult:
    """Best deterministic value, its witness subset (0-based), and the bound;
    and, outside equality, the subsets the scan scored out of its search space."""

    best_value: float
    best_subset: tuple[int, ...]
    upper_bound: float
    quantum_gap: float
    subsets_scored: int = field(compare=False)
    search_space: int = field(compare=False)

    def to_json(self) -> dict:
        return {
            "bestValue": self.best_value,
            "bestSubset": [j + 1 for j in self.best_subset],
            "upperBound": self.upper_bound,
            "gap": self.quantum_gap,
        }


def _payoff_matrix(S: GramMatrix) -> np.ndarray:
    gap = np.maximum(1.0 - S.s, 0.0)  # the diagonal carries float noise around 0
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


@functools.cache  # read twice per scan: by the cap check and by the result
def _subset_budget(n: int, max_card: int) -> int:
    return sum(math.comb(n, m) for m in range(1, max_card + 1))


def _check_budget(S: GramMatrix, allow_d5: bool, max_subsets: int) -> int:
    d = S.d
    if not np.isfinite(S.s).all():
        raise ValueError("Gram matrix entries must be finite")
    if d > 5:
        raise ValueError(f"exhaustive enumeration is not supported for d={d}")
    if d == 5 and not allow_d5:
        raise ValueError(
            "d=5 enumeration must be enabled explicitly (--allow-d5, or allow_d5=True)")
    max_card = min(2 * d - 1, S.n)
    budget = _subset_budget(S.n, max_card)
    if budget > max_subsets:
        raise ValueError(
            f"enumeration budget exceeded: {budget} subsets > cap {max_subsets}"
        )
    return max_card


def _cardinality_bounds(W: np.ndarray, Q: np.ndarray, d: int, max_card: int):
    """Per m = 0..max_card, ub[m] >= v(J) and lb[m] <= the Q boundary sum of
    every J with m <= |J| <= max_card, as the scan computes them; +-inf,
    which proves nothing, for m <= d, where v(J) <= m (2d - m) peaks.

    The bounds at |J| = m, widened by the margin, before their suffix
    max / min over m..max_card:

        v(J)  <= -d(d-2) m + min(sum of the m largest row values of W,
                                 lambda_max(L_W) m (n-m) / n),
        Q(J)  >= max(sum of the m smallest row values of Q,
                     sum of the n-m smallest complement row values of Q,
                     lambda_2(L_Q) m (n-m) / n),

    where a row value sums the n-m largest (smallest) off-diagonal entries
    of the row, a complement row value the m smallest, and L_A is the
    Laplacian of (A + A^T) / 2.  The scan reads the rows of W and Q only:
    its v(J) is -d(d-2) m plus sum_{j in J, k not in J} W[j, k] plus
    sum_{j < k in J} (W[k, j] - W[j, k]), and the Laplacian form of the cut
    is within m (n-m) / 2 max |W - W^T| of that row sum; so the margin is
    n^2 (_MARGIN + the larger asymmetry of W and Q), which covers both
    terms and the rounding of the scan and of the bounds."""
    n = len(W)
    ub, lb = [math.inf] * (max_card + 1), [-math.inf] * (max_card + 1)
    m = np.arange(d + 1, max_card + 1)
    cut = m * (n - m) / n
    off = ~np.eye(n, dtype=bool)

    def extreme_sums(A, sign, rows, entries):
        """sign * (the sum of the `rows` smallest per-row sums of the
        `entries` smallest off-diagonal entries of sign * A), per m."""
        per_row = np.cumsum(np.sort(sign * A[off].reshape(n, n - 1), axis=1), axis=1)
        col = np.cumsum(np.sort(per_row[:, entries - 1], axis=0), axis=0)
        return sign * col[rows - 1, np.arange(len(m))]

    def laplacian_eigenvalues(A):
        A = 0.5 * (A + A.T)
        return np.linalg.eigvalsh(np.diag(A.sum(axis=1)) - A)

    w_max, q_2 = laplacian_eigenvalues(W)[-1], laplacian_eigenvalues(Q)[1]
    upper = -d * (d - 2) * m + np.minimum(extreme_sums(W, -1.0, m, n - m), w_max * cut)
    lower = np.maximum.reduce([extreme_sums(Q, 1.0, m, n - m),
                               extreme_sums(Q, 1.0, n - m, m), q_2 * cut])
    asymmetry = max(np.abs(W - W.T).max(), np.abs(Q - Q.T).max())
    margin = n * n * (_MARGIN + asymmetry)
    ub[d + 1:] = (np.maximum.accumulate(upper[::-1])[::-1] + margin).tolist()
    lb[d + 1:] = (np.minimum.accumulate(lower[::-1])[::-1] - margin).tolist()
    return ub, lb


def classical_value(
    S: GramMatrix,
    *,
    allow_d5: bool = False,
    max_subsets: int = MAX_SUBSETS_DEFAULT,
) -> ClassicalResult:
    """Exhaustive maximum of v(J) over all J with 0 < |J| < 2d, by prefix
    expansion.

    Each J + {k} with k > max(J) takes its value from J's in O(1):
    v(J + k) = v(J) + step_J[k] with step_J[k] = -d(d-2) + sum_l W[k,l]
    - 2 sum_{j in J} W[j,k] (W the payoff matrix), and step_{J+k} =
    step_J - 2 W[k]; the s_jk^2 boundary sum follows likewise from Q = s^2,
    held as the imaginary part of one complex step.  A block of parents
    yields its children at once from the mask k > max(J); children are
    expanded depth first, block by block, so temporaries stay small and each
    cardinality is visited in lexicographic order.  Steps are held lazily: a
    parent J' + l comes with the built step of J' and its last element l, and
    its child J' + l + k scores v(J' + l) + (step_J'[k] - 2 W[l, k]), the two
    operations that step_{J'+l}[k] and then v(J' + l + k) take.  The full
    steps step_J' - 2 W[l] of a block of parents are built only when the
    block's children recurse, so the leaves, most of the subsets scored, cost
    one gathered entry each instead of one step vector per parent.  The same
    pass yields the upper bound d^2 - (1/4) min boundary sum of s_jk^2.

    Values within _TIE_TOL * d^2 of the maximum are tied (exact ties, such as
    J and its complement at d=2, differ by rounding only): the smallest
    cardinality wins, then the lexicographically first J, and best_value is
    the value of that J.  Each cardinality keeps the running maxima, in
    lexicographic order, of the values within the band of the top seen so
    far.  The first record within the band of the final top is the
    lexicographically first J of its cardinality there, however the top rose.

    Above d, the scan skips a level, and everything below it, when the
    ``_cardinality_bounds`` ub[m] and lb[m] of its cardinality m (suffix max
    and min over m..max_card, widened by the margin) satisfy
    ub[m] < top - band and lb[m] > min_boundary; ``expand`` checks before it
    builds the block's steps.  top only rises and min_boundary only
    falls, so a skipped J lies strictly below the final top - band and above
    the final minimum: it could neither have moved top or min_boundary nor
    entered a record that the final band reads, and the first record within
    the band is the lexicographically first J there whatever records below
    the band hold.  best_value, best_subset, the tie rule and upper_bound are
    therefore bitwise unchanged.  When the bounds prove nothing, as on Weyl
    d = 5 at (0.3, 0.137), every J is scored.  subsets_scored counts the J
    scored, search_space all 0 < |J| < 2d.
    """
    d, n = S.d, S.n
    max_card = _check_budget(S, allow_d5, max_subsets)
    band = _TIE_TOL * d * d
    Q = S.s**2
    np.fill_diagonal(Q, 0.0)
    W = _payoff_matrix(S)
    # every step of a parent drops by rows[k] = 2 (W[k] + i Q[k]) when k joins
    # it; the zero row rows[-1] stands for the root's last element
    WQ = np.empty((2, n, n))
    np.multiply(2.0, W, out=WQ[0])
    np.multiply(2.0, Q, out=WQ[1])
    rows = np.zeros((n + 1, n), complex)
    rows.real[:n], rows.imag[:n] = WQ
    # the bounds cost about 0.16 ms (1 BLAS thread), more than a whole scan
    # below d = 4: with them a d = 2 call (14 subsets) went from 0.14 to
    # 0.30 ms and a generic d = 3 call (381 subsets, none pruned) from 0.25
    # to 0.48 ms
    ub, lb = (_cardinality_bounds(W, Q, d, max_card) if d >= 4
              else ([math.inf] * (max_card + 1), [-math.inf] * (max_card + 1)))
    outcomes, top, min_boundary, scored = np.arange(n), -math.inf, math.inf, 0
    bits = 1 << outcomes
    records = [[] for _ in range(max_card + 1)]  # per |J|: (value, bitmask) prefix maxima

    def hopeless(m):
        """No J with m <= |J| <= max_card can reach the final tie band or
        lower the final minimum boundary sum: top only rises, min_boundary
        only falls."""
        return ub[m] < top - band and lb[m] > min_boundary

    def expand(m, score, G, g, last, mask):
        """Score the children, of cardinality m, of parents J given as
        score = v(J) + i (Q boundary), the step G[g] of J's own parent,
        last = max(J) and bitmask, and recurse down to max_card."""
        nonlocal top, min_boundary, scored
        for b in range(0, len(last), _PARENTS):
            s = slice(b, b + _PARENTS)
            pi, k = (outcomes > last[s, None]).nonzero()
            if not len(k):
                continue
            scored += len(k)
            # one index gathers every parent array; below d = 4, b is always 0,
            # and there each numpy call per block shows in the time of a call
            p = pi + b if b else pi
            child = score[p] + (G[g[p], k] - rows[last[p], k])
            child_mask = mask[p] | bits[k]
            values = child.real
            # the ufunc reductions skip the Python wrapper of ndarray.max
            top = max(top, float(np.maximum.reduce(values)))
            min_boundary = min(min_boundary, float(np.minimum.reduce(child.imag)))
            tied = (values >= top - band).nonzero()[0]
            run = records[m]
            for value, bitmask in zip(values[tied].tolist(), child_mask[tied].tolist()):
                if not run or value > run[-1][0]:
                    run.append((value, bitmask))
            if m < max_card and not hopeless(m + 1):
                expand(m + 1, child, G[g[s]] - rows[last[s]], pi, k, child_mask)

    root = 0.5 * WQ.sum(axis=2)
    root[0] -= d * (d - 2)
    root_step, zero = np.empty((1, n), complex), np.zeros(1, np.int64)
    root_step.real, root_step.imag = root
    expand(1, np.zeros(1, complex), root_step, zero, np.array([-1]), zero)
    best_value, best_mask = next(r for run in records for r in run if r[0] >= top - band)

    return ClassicalResult(
        best_value=best_value,
        best_subset=tuple(j for j in range(n) if best_mask >> j & 1),
        upper_bound=float(d * d - 0.25 * min_boundary),
        quantum_gap=d * d - best_value,
        subsets_scored=scored,
        search_space=_subset_budget(n, max_card),
    )


def brute_force_classical(S: GramMatrix) -> float:
    """Exhaustive maximum over every deterministic strategy (d = 2 only).

    Enumerates all 3^6 pair assignments x 2^4 Bob assignments x 4 povm
    outcomes; serves as the independent oracle for the subset formula:
    criterion 4 and the tests compare ``classical_value`` against it.
    """
    d, n = S.d, S.n
    if d != 2:
        raise ValueError("brute force enumeration is supported for d=2 only")
    j, k, diff, both, bobs, bdiff = _brute_force_tables(n)
    root = 2.0 * np.sqrt(1.0 - S.s[j, k])
    penalty = 1.0 - S.s[j, k]

    # A(a, b) = sum_p root_p * diff[a,p] * (b_j - b_k) - penalty_p * both[a,p]
    a_term = diff @ (root[None, :] * bdiff).T - (both @ penalty)[:, None]  # (3^6, 16)
    a_term -= d * (d - 2) * bobs.sum(axis=1)[None, :]
    povm_term = bobs - 1.0  # (16, n): value contribution of choosing povm outcome j
    return float((a_term.max(axis=0) + povm_term.max(axis=1)).max())


@functools.cache
def _brute_force_tables(n: int):
    """The pairs (j, k) of n outcomes; every assignment of per-pair outcome
    states 0/1/2 as (a1 - a2, a1 + a2) rows, (3^pairs, pairs) each; every Bob
    assignment (2^n, n); and its b_j - b_k per pair.  Read-only, one set per n."""
    j, k = np.triu_indices(n, 1)
    states = np.array([[0, 0], [1, 1], [-1, 1]], dtype=float)
    grids = np.indices((3,) * len(j)).reshape(len(j), -1).T
    bobs = np.indices((2,) * n).reshape(n, -1).T
    tables = (j, k, states[grids, 0], states[grids, 1], bobs, bobs[:, j] - bobs[:, k])
    for table in tables:
        table.flags.writeable = False
    return tables


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
