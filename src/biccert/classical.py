"""Exact classical value of the Bell function.

The local deterministic maximum reduces to a finite maximization over outcome
subsets J with 0 < |J| < 2d:

    v(J) = -d(d-2) |J| + sum_{j in J, k not in J} (2 sqrt(1-s_jk) - (1-s_jk)),

with v(empty) = -1.  ``classical_value`` enumerates the subsets by prefix
expansion, each from its parent in O(1), and scores the last three
cardinalities from their common ancestors through per-n tables of 1-, 2- and
3-combinations, with the same float operations, so every value is bitwise
the one the expansion would compute.  Ties within rounding go to the
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

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, repeat
from typing import NamedTuple

import numpy as np

from .bic import GramMatrix

MAX_SUBSETS_DEFAULT = 5_000_000
_PARENTS = 512  # parents expanded per block; bounds every temporary
_FOLD = 1 << 14  # values scored per fold chunk; bounds the fold's temporaries
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


class _Group(NamedTuple):
    """The 1-, 2- and 3-combinations a < b < c of the outcomes >= first, as
    the columns of one fold buffer: the 1-combinations, the 2-combinations
    from column at2 on and the 3-combinations from column at3 on, each in
    lexicographic order.  The 2- and 3-combinations are the suffixes, from
    pair_start and triple_start on, of the pair and triple tables.  Per
    2-combination, a is the buffer column of (a) and b the outcome b - first;
    per 3-combination, ab is the buffer column of (a, b) and ac the position
    of (a, c) among the 2-combinations."""

    first: int
    pair_start: int
    triple_start: int
    at2: int
    at3: int
    a: np.ndarray
    b: np.ndarray
    ab: np.ndarray
    ac: np.ndarray
    lead: np.ndarray  # per column: its smallest outcome
    key: np.ndarray  # per column: depth 0, 1 or 2, index in its table, bitmask


@cache
def _combination_tables(n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The flat positions, in an (n, 2, n) array r, of r[a, :, b] over the
    lexicographic pairs and of r[b, :, c] over the lexicographic triples of n
    outcomes, each shaped (2, count); and per l = -1..n-1 (at index l + 1)
    the ``_Group`` of the outcomes > l, or None for l = n - 1."""
    pairs = np.array(list(combinations(range(n), 2)))
    triples = np.array(list(combinations(range(n), 3)))
    pair_index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
    ab = np.array([pair_index[a, b] for a, b, _ in combinations(range(n), 3)], dtype=np.intp)
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    groups = [None] * (n + 1)
    for first in range(n):
        p = int(np.searchsorted(pairs[:, 0], first))
        q = int(np.searchsorted(triples[:, 0], first))
        at2 = n - first
        at3 = at2 + len(pairs) - p
        sizes = [at2, at3 - at2, len(triples) - q]
        groups[first] = _Group(
            first, p, q, at2, at3,
            a=pairs[p:, 0] - first,
            b=pairs[p:, 1] - first,
            ab=at2 + ab[q:] - p,
            ac=np.array([pair_index[a, c] for a, _, c in triples[q:]], dtype=np.intp) - p,
            lead=np.concatenate([np.arange(first, n), pairs[p:, 0], triples[q:, 0]]),
            key=np.stack([
                np.repeat(np.arange(3), sizes),
                np.concatenate([np.arange(first, n), np.arange(p, len(pairs)),
                                np.arange(q, len(triples))]),
                np.concatenate([bits[first:], bits[pairs[p:]].sum(axis=1),
                                bits[triples[q:]].sum(axis=1)]),
            ]),
        )
    return (pairs[:, 0] * 2 * n + pairs[:, 1] + np.c_[0, n].T,
            triples[:, 1] * 2 * n + triples[:, 2] + np.c_[0, n].T, groups)


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
    expansion down to |J| = 2d - 4 and a fold of the last three cardinalities.

    Each J + {k} with k > max(J) takes its value from J's in O(1):
    v(J + k) = v(J) + step_J[k] with step_J[k] = -d(d-2) + sum_l W[k,l]
    - 2 sum_{j in J} W[j,k] (W the payoff matrix), and step_{J+k} =
    step_J - 2 W[k] = step_J - r[k]; the s_jk^2 boundary sum follows likewise
    from Q = s^2.  A block of parents yields its children at once from the
    mask k > max(J); children are expanded depth first, block by block, so
    temporaries stay small and each cardinality is visited in lexicographic
    order.  The same pass yields the upper bound d^2 - (1/4) min boundary sum
    of s_jk^2.

    The last three cardinalities are never built subset by subset.  The
    children, grandchildren and great-grandchildren of the parents J with
    max(J) = l are J + {a}, J + {a, b} and J + {a, b, c} over the 1-, 2- and
    3-combinations a < b < c of the outcomes above l, a suffix of the
    per-n combination tables; with t = step_J,

        v(J+a)     = v(J) + t[a]
        v(J+a+b)   = v(J+a) + (t[b] - r[a,b])
        v(J+a+b+c) = v(J+a+b) + ((t[c] - r[a,c]) - r[b,c]),

    the very float operations, in the same order, that the expansion would
    perform, so every value is bitwise the one the expansion computes.

    Values within _TIE_TOL * d^2 of the maximum are tied (exact ties, such as
    J and its complement at d=2, differ by rounding only): the smallest
    cardinality wins, then the lexicographically first J, and best_value is
    the value of that J.  Each cardinality keeps the running maxima, in
    lexicographic order, of the values within the band of the top seen so
    far; the fold sorts its tie candidates back into lexicographic order
    before they enter these records.  The first record within the band of
    the final top is the lexicographically first J of its cardinality there,
    however the top rose, so the fold leaves the tie rule unchanged.

    Above d, the scan skips a level, and everything below it, when the
    ``_cardinality_bounds`` ub[m] and lb[m] of its cardinality m (suffix max
    and min over m..max_card, widened by the margin) satisfy
    ub[m] < top - band and lb[m] > min_boundary; ``expand`` checks before it
    builds the children's steps, ``fold`` before each chunk.  top only rises
    and min_boundary only falls, so a skipped J lies strictly below the final
    top - band and above the final minimum: it could neither have moved top
    or min_boundary nor entered a record that the final band reads, and the
    first record within the band is the lexicographically first J there
    whatever records below the band hold.  best_value, best_subset, the tie
    rule and upper_bound are therefore bitwise unchanged.  When the bounds
    prove nothing, as on Weyl d = 5 at (0.3, 0.137), every J is scored.
    subsets_scored counts the J scored, search_space all 0 < |J| < 2d.
    """
    d, n = S.d, S.n
    max_card = _check_budget(S, allow_d5, max_subsets)
    band = _TIE_TOL * d * d
    Q = S.s**2
    np.fill_diagonal(Q, 0.0)
    W = _payoff_matrix(S)
    # every step of a parent drops by rows[k] = 2 (W[k], Q[k]) when k joins it
    rows = np.empty((n, 2, n))
    np.multiply(2.0, W, out=rows[:, 0])
    np.multiply(2.0, Q, out=rows[:, 1])
    # the scan reads the bounds of the levels it enters, up to the fold's
    # first, 2d - 3; only those above d prove anything, so below d = 4 none
    ub, lb = (_cardinality_bounds(W, Q, d, max_card) if 2 * d - 3 > d
              else ([math.inf] * (max_card + 1), [-math.inf] * (max_card + 1)))
    outcomes, top, min_boundary, scored = np.arange(n), -math.inf, math.inf, 0
    records = [[] for _ in range(max_card + 1)]  # per |J|: (value, bitmask) prefix maxima
    at_ab, at_bc, groups = _combination_tables(n)
    r_ab, r_bc = rows.take(at_ab), rows.take(at_bc)

    def record(cards, values, masks):
        """Feed tie candidates, given by cardinality, value and bitmask, into
        the records; per cardinality they come in lexicographic order."""
        for m, value, mask in zip(cards, values.tolist(), masks.tolist()):
            run = records[m]
            if not run or value > run[-1][0]:
                run.append((value, mask))

    def hopeless(m):
        """No J with m <= |J| <= max_card can reach the final tie band or
        lower the final minimum boundary sum: top only rises, min_boundary
        only falls."""
        return ub[m] < top - band and lb[m] > min_boundary

    def expand(m, score, step, last, mask):
        """Score the children, of cardinality m, of parents J given as
        score = (v(J), Q boundary), step, last = max(J) and bitmask; recurse,
        and fold the last three cardinalities."""
        nonlocal top, min_boundary, scored
        if m == max_card - 2:
            return fold(m, score, step, last, mask)
        for b in range(0, len(last), _PARENTS):
            s = slice(b, b + _PARENTS)
            pi, k = (outcomes > last[s, None]).nonzero()
            if not len(k):
                continue
            scored += len(k)
            child, child_mask = score[s][pi] + step[s][pi, :, k], mask[s][pi] | (1 << k)
            values = child[:, 0]
            top = max(top, float(values.max()))
            min_boundary = min(min_boundary, float(child[:, 1].min()))
            tied = (values >= top - band).nonzero()[0]
            record(repeat(m), values[tied], child_mask[tied])
            if not hopeless(m + 1):
                expand(m + 1, child, step[s][pi] - rows[k], k, child_mask)

    def fold(m, score, step, last, mask):
        """Score the descendants, of cardinalities m, m + 1 and m + 2, of the
        parents J (as in expand) in chunks of at most _FOLD values.  The
        parents, sorted by max(J), take the combination group of their
        max(J), in chunks as needed.  If all of them fit in one chunk of the
        group of the smallest max(J), they make one chunk, and the columns
        that do not descend from a parent are masked out of its row."""
        nonlocal top, min_boundary, scored
        order = np.argsort(last, kind="stable")
        g = groups[last[order[0]] + 1]
        if g is not None and len(last) * len(g.lead) <= _FOLD:
            chunks = [(0, len(last), g)]
        else:
            ends = np.searchsorted(last, outcomes - 1, "right", sorter=order).tolist()
            chunks = []
            for start, stop, g in zip([0] + ends, ends + [len(last)], groups):
                if g is not None:
                    size = max(1, _FOLD // len(g.lead))
                    chunks += [(b, min(b + size, stop), g) for b in range(start, stop, size)]
        tied = []  # (depth, index, bitmask), parent and value of the tie candidates
        for start, stop, g in chunks:
            if hopeless(m):
                break
            parents = order[start:stop]
            t = step[parents, :, g.first:]
            out = np.empty((len(parents), 2, len(g.lead)))
            np.add(score[parents, :, None], t, out=out[:, :, :g.at2])
            u = t[:, :, g.b] - r_ab[:, g.pair_start:]  # step_{J+a}[b]
            np.add(out[:, :, g.a], u, out=out[:, :, g.at2:g.at3])
            # u[ac] = t[c] - r[a,c]: v(J+a+b+c) = v(J+a+b) + ((t[c] - r[a,c]) - r[b,c])
            np.add(out[:, :, g.ab], u[:, :, g.ac] - r_bc[:, g.triple_start:],
                   out=out[:, :, g.at3:])
            values, bounds = out[:, 0], out[:, 1]
            if last[parents[-1]] >= g.first:  # parents of several groups
                inside = g.lead > last[parents, None]
                values = np.where(inside, values, -math.inf)
                bounds = np.where(inside, bounds, math.inf)
                scored += int(inside.sum())
            else:
                scored += values.size
            high = float(values.max())
            top = max(top, high)
            min_boundary = min(min_boundary, float(bounds.min()))
            if high >= top - band:
                pi, ci = (values >= top - band).nonzero()
                tied.append((g.key[:, ci], parents[pi], values[pi, ci]))
        if tied:  # back into lexicographic order per cardinality
            keys, parents, values = zip(*tied)
            (depth, index, bits), parents = np.concatenate(keys, axis=1), np.concatenate(parents)
            values = np.concatenate(values)
            lex = np.lexsort((index, parents))
            record((m + depth[lex]).tolist(), values[lex], mask[parents[lex]] | bits[lex])

    root_step = 0.5 * rows.sum(axis=2).T
    root_step[0] -= d * (d - 2)
    expand(1, np.zeros((1, 2)), root_step[None], np.array([-1]), np.zeros(1, np.int64))
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
