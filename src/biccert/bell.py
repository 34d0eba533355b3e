"""The Bell scenario built on a BIC-POVM.

Alice has one three-outcome setting per pair (j,k) of outcome labels plus a
single d^2-outcome setting ("povm"); Bob has d^2 binary settings.  The Bell
operator W_d attains the quantum value d^2, certified by the exact operator
identity W_d + Theta_d = d^2 * I with Theta_d a sum of manifestly positive
terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bic import BicPovm, GramMatrix, gram
from .linalg import (
    BipartiteDims,
    dagger,
    frobenius,
    kron,
    kron_sum,
    maximally_entangled,
)

# The fewest pairs per batched step: larger blocks buy little speed and raise
# peak memory.
_PAIR_BLOCK = 64
# Alice-side entries per walk block: 64 pairs at dA = 10, more at smaller dA
_BLOCK_ENTRIES = 6400


def walk_block(dA: int) -> int:
    """Pairs per block of ``walk`` for Alice's dimension dA: the block's D holds
    about ``_BLOCK_ENTRIES`` entries, and never fewer than ``_PAIR_BLOCK`` pairs."""
    return max(_PAIR_BLOCK, _BLOCK_ENTRIES // (dA * dA))


def n_pairs(n: int) -> int:
    """The length of the pair axis: the pairs j < k of n outcomes."""
    return n * (n - 1) // 2


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (j, k) of the pairs j < k < n in the order of the pair axis,
    ``np.triu_indices(n, 1)``: one read-only pair of arrays per n."""
    r = np.arange(n)
    j, k = np.nonzero(r[:, None] < r)
    j.flags.writeable = k.flags.writeable = False
    return j, k


def pair_blocks(n: int, size: int):
    """(slice of the pair axis, j, k) per block of ``size`` pairs of ``pair_indices(n)``."""
    j_all, k_all = pair_indices(n)
    for start in range(0, len(j_all), size):
        block = slice(start, min(start + size, len(j_all)))
        yield block, j_all[block], k_all[block]


def _refuse(mask, j, k, values, message: str) -> None:
    """ValueError naming the first pair (j[p], k[p]) where ``mask`` holds, and values[p]."""
    bad = np.flatnonzero(mask)
    if bad.size:
        p = bad[0]
        raise ValueError(message.format(j=j[p], k=k[p], value=values[p]))


@dataclass(frozen=True)
class ReferencePairs:
    """The unit vectors (n_pairs, 2, d) of ``reference_strategy``'s pair
    effects, never stored.  Both eigenvectors of B_j - B_k lie in span{e_j,
    e_k}, so each pair is a 2x2 problem in the orthonormal basis q1 = e_j /
    |e_j|, q2 ~ e_k - <q1|e_k> q1, where e_j = |e_j| q1 and e_k = alpha q1 +
    beta q2 with the vectors' own norms; each operation is per pair."""

    vectors: np.ndarray  # the POVM's (n, d)

    @property
    def shape(self) -> tuple[int, int, int]:
        return n_pairs(len(self.vectors)), 2, self.vectors.shape[1]

    def chunks(self, size: int):
        """(slice of the pair axis, vectors (len, 2, d)) per chunk, the whole
        blocks of ``size`` pairs within d ``_PAIR_BLOCK`` pairs (at least one), in
        one buffer that the next chunk overwrites; a ValueError names a pair
        whose B_j - B_k lacks a +/- eigenvalue pair."""
        n, d = self.vectors.shape
        span = size * max(1, _PAIR_BLOCK * d // size)
        buffer = np.empty((min(span, n_pairs(n)), 2, d), dtype=complex)
        for chunk, j, k in pair_blocks(n, span):
            q1, rest = self.vectors[j], self.vectors[k]  # e_j and e_k, fresh copies
            norm_j = np.linalg.norm(q1, axis=1)
            q1 /= norm_j[:, None]
            alpha = np.einsum("pa,pa->p", q1.conj(), rest)
            rest -= alpha[:, None] * q1
            beta = np.linalg.norm(rest, axis=1)
            # B_j - B_k = [[a, b], [b*, c]] on (q1, q2), eigenvalues (a + c)/2 +- r
            a, b, c = norm_j**2 - np.abs(alpha) ** 2, -alpha * beta, -beta**2
            h = (a - c) / 2
            r = np.hypot(h, np.abs(b))
            w = np.stack([(a + c) / 2 - r, (a + c) / 2 + r], axis=1)
            _refuse(~(w[:, 1] >= 1e-12) | ~(w[:, 0] <= -1e-12), j, k, w,
                    "pair ({j}, {k}) difference lacks a +/- eigenvalue pair: extremes {value}")
            # the +r eigenvector (x, y), in whichever form avoids cancellation;
            # the -r one is (-y*, x*)
            x, y = np.where(h >= 0, h + r, b), np.where(h >= 0, b.conj(), r - h)
            x, y = (v / np.hypot(np.abs(x), np.abs(y)) for v in (x, y))
            q2 = np.divide(rest, beta[:, None], out=rest)
            a1, a2 = buffer[:len(j), 0], buffer[:len(j), 1]
            np.multiply(x[:, None], q1, out=a1)
            a1 += y[:, None] * q2
            np.multiply(-y.conj()[:, None], q1, out=a2)
            a2 += x.conj()[:, None] * q2
            yield chunk, buffer[:len(j)]


@dataclass(frozen=True)
class Strategy:
    """A quantum strategy: state, Alice's pair-setting and povm effects, Bob's effects.

    ``alice_pair_effects[..., p, :]`` holds (A1, A2) for the p-th pair of
    ``pair_indices``, in one of two forms: matrices (..., n_pairs, 2, dA, dA),
    or the ``ReferencePairs`` of one strategy, unit vectors (n_pairs, 2, dA)
    computed chunk by chunk and standing for A = (|a><a|)^t / tr (|a><a|)^t.
    ``walk`` hands every reader dense blocks from ``pair_effect_blocks``; only
    the audit's "a projectivity" and "a orthogonality"
    (``algebra.certification_reader``) read vectors themselves.  The third
    outcome is I - A1 - A2.  ``bob[..., j, :, :]`` is the first effect of Bob's
    binary setting j; the second is I - bob[j].

    All four arrays may carry the same leading axes ``stack``, those of
    ``rho``: a stack of strategies that ``walk`` and its readers,
    ``bell_operator`` and ``bell_value`` treat member by member, against one
    Gram matrix.
    """

    dims: BipartiteDims
    rho: np.ndarray                 # (..., dA dB, dA dB)
    alice_pair_effects: np.ndarray | ReferencePairs  # (..., n_pairs, 2, dA, dA)
    alice_povm: np.ndarray          # (..., n_outcomes, dA, dA)
    bob: np.ndarray                 # (..., n_outcomes, dB, dB)

    def __post_init__(self):
        vectors = self.stores_vectors
        for name in ("rho", "alice_povm", "bob") + (() if vectors else ("alice_pair_effects",)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        stack, dA = self.stack, self.dims.dA
        per_pair = stack + (n_pairs(self.n_outcomes), 2, dA) + (() if vectors else (dA,))
        if self.alice_pair_effects.shape != per_pair:
            raise ValueError("alice_pair_effects must hold one (A1, A2) per pair")
        if self.alice_povm.shape[:-3] != stack or self.bob.shape[:-3] != stack:
            raise ValueError("rho, alice_povm and bob must share one stack shape")

    @property
    def stack(self) -> tuple[int, ...]:
        """The leading axes of a stack of strategies; () for one strategy."""
        return self.rho.shape[:-2]

    @property
    def stores_vectors(self) -> bool:
        """True when Alice's pair effects are the unit vectors of a ``ReferencePairs``."""
        return isinstance(self.alice_pair_effects, ReferencePairs)

    @property
    def n_outcomes(self) -> int:
        return self.bob.shape[-3]

    def member(self, index) -> Strategy:
        """The strategy at ``index`` of the stack."""
        return replace(self, **{name: getattr(self, name)[index]
                                for name in ("rho", "alice_pair_effects", "alice_povm", "bob")})

    def pair_effect_blocks(self):
        """(slice of the pair axis, j, k, dense effects (..., len, 2, dA, dA),
        vectors) per block of ``walk_block(dA)`` pairs.

        ``ReferencePairs`` vectors come in chunks of whole blocks, and
        ``vectors`` is (slice, vectors (len, 2, dA)) of the chunk that the block
        starts, else None.  Each vector is expanded to (|a><a|)^t divided by its
        computed trace (a norm within an ulp of 1 rounds to 1, so a vector keeps
        the input's norm excess, which would enter the Bell value to first
        order), in one buffer that the next block overwrites: copy a block to
        keep it.
        """
        effects, dA, n = self.alice_pair_effects, self.dims.dA, self.n_outcomes
        size = walk_block(dA)
        blocks = pair_blocks(n, size)
        if not self.stores_vectors:
            for block, j, k in blocks:
                yield block, j, k, effects[..., block, :, :, :], None
            return
        chunks = effects.chunks(size)
        buffer = np.empty((min(size, n_pairs(n)), 2, dA, dA), dtype=complex)
        chunk = slice(0, 0)
        for block, j, k in blocks:
            if block.start == chunk.stop:
                chunk, vectors = next(chunks)
            a = vectors[block.start - chunk.start:block.stop - chunk.start]
            dense = buffer[:len(j)]
            np.multiply(a[..., None, :], a.conj()[..., :, None], out=dense)
            # times 1/trace on the real view, one row per effect: bitwise equal to
            # the complex division
            rows = dense.view(float).reshape(dense.shape[:-2] + (-1,))
            rows *= 1.0 / np.einsum("piaa->pi", dense).real[..., None]
            yield block, j, k, dense, (chunk, vectors) if block.start == chunk.start else None


@dataclass(frozen=True)
class BellReport:
    """Bell value with the four summand groups of the Bell function; for a
    stack of strategies each value is an array over the stack."""

    value: float
    quantum_bound: float
    gap: float
    term_breakdown: dict[str, float]

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "quantumBound": self.quantum_bound,
            "gap": self.gap,
            "termBreakdown": dict(self.term_breakdown),
        }


@dataclass(frozen=True)
class SosReport:
    """Residuals of the sum-of-squares certificate at one strategy, and the
    ``_largest_entry`` of the identity's and of Theta_d rho's residual matrix."""

    identity_residual: float
    theta_min_eigenvalue: float
    theta_rho_residual: float
    identity_worst: tuple[int, int] | None
    theta_rho_worst: tuple[int, int] | None

    def to_json(self) -> dict:
        return {
            "identityResidual": self.identity_residual,
            "thetaMinEigenvalue": self.theta_min_eigenvalue,
            "thetaRhoResidual": self.theta_rho_residual,
        }


def reference_strategy(povm: BicPovm, S: GramMatrix | None = None) -> Strategy:
    """The d-dimensional optimal strategy for the scenario induced by ``povm``.

    Shares the maximally entangled state; Bob measures the rank-one
    projections B_j = |e_j><e_j|; Alice's pair effects are the transposed
    eigenprojections of B_j - B_k (eigenvalues +-sqrt(1-s_jk)), as the unit
    eigenvectors that ``ReferencePairs`` computes per chunk when the pairs are
    walked, and her povm effects are (1/d) B_j^t.  All transposes are in the
    computational basis.  ``S``, the povm's ``gram`` (formed here when not
    given), must hold every s_jk below 1 - 1e-12.
    """
    d = povm.d
    j, k = pair_indices(d * d)
    s_jk = (gram(povm) if S is None else S).s[j, k]
    _refuse(s_jk >= 1.0 - 1e-12, j, k, s_jk,
            "degenerate pair ({j}, {k}): overlap s_jk={value} is too close to 1")
    B = povm.projections()
    phi = maximally_entangled(d)
    return Strategy(
        dims=BipartiteDims(d, d),
        rho=np.outer(phi, phi.conj()),
        alice_pair_effects=ReferencePairs(povm.vectors),
        alice_povm=B.transpose(0, 2, 1) / d,
        bob=B,
    )


def _check_dims(strategy: Strategy, S: GramMatrix) -> None:
    if strategy.n_outcomes != S.n:
        raise ValueError(
            f"strategy has {strategy.n_outcomes} outcomes, S expects {S.n}"
        )


def _coefficients(S: GramMatrix) -> tuple[np.ndarray, int]:
    """Weights of the Bell function: rows (2 sqrt(1-s_jk), 1-s_jk) on each pair's
    correlator and Alice marginal, in the order of ``pair_indices(S.n)``, and
    d(d-2) on Bob's marginals."""
    j, k = pair_indices(S.n)
    weights = np.empty((len(j), 2))
    one_minus_s = np.subtract(1.0, S.s[j, k], out=weights[:, 1])
    _refuse(one_minus_s < 0.0, j, k, S.s[j, k], "pair ({j}, {k}) has overlap s_jk={value} above 1")
    np.multiply(2.0, np.sqrt(one_minus_s), out=weights[:, 0])
    return weights, S.d * (S.d - 2)


class PairBlock(NamedTuple):
    """One block of the pair axis as ``walk`` sends it to its readers: the slice
    of the pair axis, the pairs' (j, k), Alice's dense effects A (..., len, 2,
    dA, dA) and ``vectors`` from ``Strategy.pair_effect_blocks``, D = A1 - A2,
    cD = sqrt(1 - s_jk) D, P = A1 + A2 and E = B_j - B_k.  An array that no
    reader of the walk reads is None; the next block overwrites the others."""

    block: slice
    j: np.ndarray
    k: np.ndarray
    A: np.ndarray
    vectors: tuple[slice, np.ndarray] | None
    D: np.ndarray | None
    cD: np.ndarray | None
    P: np.ndarray | None
    E: np.ndarray | None


def walk(strategy: Strategy, S: GramMatrix, *readers) -> tuple:
    """Drive the pair axis of ``strategy`` once for all ``readers``; their results, in order.

    A reader is a generator such as ``bell_value_reader(strategy, S)``: ``walk``
    starts it, takes what it yields, the names of the ``PairBlock`` arrays it
    reads, sends it each ``PairBlock`` and then None, on which it returns its
    result.  Each block is expanded, and the D, cD, P and E that some reader
    reads formed, once for every reader, into buffers reused from block to
    block; cD is formed from D, with its scale sqrt(1 - s_jk) from ``S``.  A
    ``strategy`` and ``S`` of different outcome counts are refused first.
    """
    _check_dims(strategy, S)
    reads = set()
    for reader in readers:
        reads.update(next(reader))
    if "cD" in reads:
        reads.add("D")
        scale = np.sqrt(1.0 - S.s[pair_indices(S.n)])  # exactly half the weight 2 sqrt(1 - s_jk)
    stack, dA = strategy.stack, strategy.dims.dA
    sides = {name: m for name, m in zip(("D", "cD", "P", "E"), (dA, dA, dA, strategy.dims.dB))
             if name in reads}
    most = math.prod(stack) * min(walk_block(dA), n_pairs(strategy.n_outcomes))
    buffers = {name: np.empty(most * m * m, dtype=complex) for name, m in sides.items()}
    for block, j, k, A, vectors in strategy.pair_effect_blocks():
        # C-contiguous views, laid out as the arrays that A1 - A2 etc. would be
        views = {name: buffers[name][:math.prod(stack) * len(j) * m * m].reshape(
            stack + (len(j), m, m)) for name, m in sides.items()}
        D, cD, P, E = (views.get(name) for name in ("D", "cD", "P", "E"))
        A1, A2 = A[..., 0, :, :], A[..., 1, :, :]
        if D is not None:
            np.subtract(A1, A2, out=D)
        if cD is not None:
            np.multiply(D, scale[block, None, None], out=cD)
        if P is not None:
            np.add(A1, A2, out=P)
        if E is not None:
            np.subtract(strategy.bob.take(j, axis=-3), strategy.bob.take(k, axis=-3), out=E)
        step = PairBlock(block, j, k, A, vectors, D, cD, P, E)
        for reader in readers:
            reader.send(step)
    return tuple(_result(reader) for reader in readers)


def _result(reader):
    """What ``reader`` returns when ``walk`` sends it the end of the pair axis."""
    try:
        reader.send(None)
    except StopIteration as end:
        return end.value
    raise RuntimeError("a walk reader must return after the last block")


def pair_fold_reader(strategy: Strategy, S: GramMatrix):
    """The ``walk`` reader of Alice's pair effects folded per Bob outcome.

    Returns F with F[j] = sum_{k != j} +-2 sqrt(1-s_jk)(A1 - A2), the sign
    being + when j < k and - when j > k, and M = sum_p (1-s_jk)(A1 + A2).
    Then sum_{j<k} 2 sqrt(1-s_jk)(A1 - A2) (x) (B_j - B_k) = sum_j F_j (x) B_j,
    so the pair correlators reduce to one term per Bob outcome.  (F, M) feeds
    ``bell_operator``, and F the dual operators C_j of the certification audit.
    """
    stack, dA = strategy.stack, strategy.dims.dA
    F = np.zeros(stack + (strategy.n_outcomes, dA, dA), dtype=complex)
    M = np.zeros(stack + (dA, dA), dtype=complex)
    marg_w = _coefficients(S)[0][:, 1]
    while (step := (yield ("cD", "P"))) is not None:
        block, j, k, cD = step.block, step.j, step.k, step.cD
        # pairs are lexicographic: the block is runs of j[0], j[0] + 1, ..., j[-1],
        # each over consecutive k
        starts = np.searchsorted(j, np.arange(j[0], j[-1] + 1))
        F[..., j[0]:j[-1] + 1, :, :] += np.add.reduceat(cD, starts, axis=-3)
        for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(j)]):
            F[..., k[lo]:k[hi - 1] + 1, :, :] -= cD[..., lo:hi, :, :]
        M += _pair_sum(marg_w[block], step.P)
    F *= 2.0  # sums of sqrt(1-s) D, doubled: bitwise the sums of 2 sqrt(1-s) D
    return F, M


def _pair_sum(weights: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_p weights[p] X[..., p, :, :]: one vector-matrix product per strategy,
    each bitwise equal to ``np.tensordot(weights, X[i], axes=1)``."""
    T = weights @ X.reshape(X.shape[:-2] + (-1,))
    return T.reshape(X.shape[:-3] + X.shape[-2:])


def _each(values: np.ndarray) -> float | np.ndarray:
    """A float for one strategy, the array over the stack for a stack."""
    return float(values) if values.ndim == 0 else values


def bell_operator(strategy: Strategy, S: GramMatrix, fold) -> np.ndarray:
    """Assemble the Bell operator W_d of the strategy's effects from their
    ``fold``, what ``pair_fold_reader`` returned from a walk."""
    _check_dims(strategy, S)
    IA, IB = np.eye(strategy.dims.dA), np.eye(strategy.dims.dB)
    F, M = fold
    _, bob_weight = _coefficients(S)
    W = -kron(M, IB) - bob_weight * kron(IA, strategy.bob.sum(axis=-3))
    return W + kron_sum(F, strategy.bob) - kron_sum(strategy.alice_povm, IB - strategy.bob)


def bell_value(strategy: Strategy, S: GramMatrix) -> BellReport:
    """tr(W_d rho), with the per-term breakdown, without forming W_d.

    tr[rho (X (x) Y)] = tr[X R_Y] with R_Y = tr_B[rho (I (x) Y)], so the state
    is contracted once with each of Bob's effects and with I_B, and every
    summand of W_d is evaluated on Alice's side: each pair's correlator
    2 sqrt(1-s_jk) tr[(A1 - A2)(R_j - R_k)] and marginal on the pair axis, in
    blocks of pairs.  The per-pair and per-outcome terms of each strategy are
    summed exactly rounded (``math.fsum``).
    """
    return walk(strategy, S, bell_value_reader(strategy, S))[0]


def bell_value_reader(strategy: Strategy, S: GramMatrix):
    """The ``walk`` reader behind ``bell_value``."""
    dA, dB = strategy.dims.dA, strategy.dims.dB
    stack = strategy.stack
    rho4 = strategy.rho.reshape(stack + (dA, dB, dA, dB))
    # stored transposed, so that tr[X R] = sum(X * R^t)
    bob_t = np.einsum("...abce,...jeb->...jca", rho4, strategy.bob)
    rho_A_t = np.einsum("...abcb->...ca", rho4)
    weights, bob_weight = _coefficients(S)

    correlators, marginals = np.empty((2,) + stack + (n_pairs(strategy.n_outcomes),))
    while (step := (yield ("D", "P"))) is not None:
        block, j, k = step.block, step.j, step.k
        correlators[..., block] = np.einsum(
            "...pab,...pab->...p", step.D, bob_t[..., j, :, :] - bob_t[..., k, :, :]).real
        marginals[..., block] = np.einsum("...pab,...ab->...p", step.P, rho_A_t).real
    terms = {
        "pair_correlation": weights[:, 0] * correlators,
        "pair_marginal_penalty": -weights[:, 1] * marginals,
        "bob_marginal_penalty": -bob_weight * np.trace(bob_t, axis1=-2, axis2=-1).real,
        "povm_mismatch_penalty": -np.einsum("...jab,...jab->...j", strategy.alice_povm,
                                            rho_A_t[..., None, :, :] - bob_t).real,
    }

    def fsum_each(t):
        return _each(np.reshape([math.fsum(row) for row in t.reshape(-1, t.shape[-1])],
                                t.shape[:-1]))

    breakdown = {name: fsum_each(t) for name, t in terms.items()}
    value = fsum_each(np.concatenate(list(terms.values()), axis=-1))
    d2 = float(S.d * S.d)
    return BellReport(
        value=value, quantum_bound=d2, gap=d2 - value, term_breakdown=breakdown
    )


def sos_theta_reader(strategy: Strategy, S: GramMatrix):
    """The ``walk`` reader of the five-term positive certificate Theta_d with
    W_d + Theta_d = d^2 I.

    The pair squares hybrid^2, hybrid = c D (x) I - I (x) E with D = A1 - A2,
    E = B_j - B_k, c = sqrt(1-s_jk), expand exactly (D (x) I and I (x) E
    commute) to c^2 D^2 (x) I - 2c D (x) E + I (x) E^2: the squares are summed
    as local matrices, one product per block of pairs.  The cross terms
    sum_p c D_p (x) E_p read the upper triangles of the hermitian cD and E
    (real parts on and above the diagonal, imaginary parts below it): each
    block adds one real product of their ``_hermitian_coordinates``, and
    ``_cross_term`` turns the sum into the complex operator once, bitwise
    hermitian.  A D or E with an anti-hermitian part thus enters the cross
    term through its hermitian completion but the squares as it is, so the
    identity residual shows that part.  The reader reads only the effects and
    the walk's D, cD, P and E; nothing comes from ``pair_fold_reader`` or W_d,
    so the identity compares two independent constructions.

    The identity is purely algebraic: it holds for arbitrary hermitian
    operator tuples, POVM-valid or not.
    """
    d = S.d
    dA, dB = strategy.dims.dA, strategy.dims.dB
    IA, IB = np.eye(dA), np.eye(dB)
    stack, bob = strategy.stack, strategy.bob

    # sums over the pairs of c^2 D^2, E^2, (1-s)(A1 + A2 - D^2), and the real
    # coordinates of c D (x) E
    hybrid_A, hybrid_B, marginal = (np.zeros(stack + (m, m), dtype=complex)
                                    for m in (dA, dB, dA))
    R = np.zeros(stack + (dA * dA, dB * dB))
    while (step := (yield ("D", "cD", "P", "E"))) is not None:
        one_minus_s = 1.0 - S.s[step.j, step.k]
        D, E = step.D, step.E
        D2 = D @ D
        hybrid_A += _pair_sum(one_minus_s, D2)
        hybrid_B += (E @ E).sum(axis=-3)
        marginal += _pair_sum(one_minus_s, np.subtract(step.P, D2, out=D2))
        R += _hermitian_coordinates(step.cD).swapaxes(-1, -2) @ _hermitian_coordinates(E)

    theta = kron(hybrid_A, IB) - 2.0 * _cross_term(R, dA, dB) + kron(IA, hybrid_B)
    theta += kron(marginal, IB)
    completeness = d * IB - bob.sum(axis=-3)
    theta += kron(IA, completeness @ completeness)
    theta += kron_sum(strategy.alice_povm, IB - bob)
    theta += d * d * kron(IA, (bob - bob @ bob).sum(axis=-3))
    return theta


@functools.cache
def _coordinate_tables(m: int) -> tuple[np.ndarray, ...]:
    """Index tables of the entries (a, b) of an m x m matrix: where
    ``_hermitian_coordinates`` takes each coordinate from in the float view
    (flat); the coordinates holding Re X[a, b], (min, max), then those holding
    Im X[a, b] up to sign, (max, min), for every (a, b) in row order; and the
    signs of those 2 m^2 terms, 1 and then sign(a - b)."""
    a, b = np.divmod(np.arange(m * m), m)
    low, high = np.minimum(a, b), np.maximum(a, b)
    tables = (2 * (a * m + b) + (a > b), np.concatenate([low * m + high, high * m + low]),
              np.concatenate([np.ones(m * m), np.sign(a - b)]))
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _hermitian_coordinates(X: np.ndarray) -> np.ndarray:
    """The m^2 real coordinates (..., m*m) of each hermitian X (..., m, m):
    Re X[a, b] on and above the diagonal, Im X[a, b] below it, which fix X
    without rounding."""
    m = X.shape[-1]
    flat = np.ascontiguousarray(X).view(float).reshape(X.shape[:-2] + (2 * m * m,))
    return flat[..., _coordinate_tables(m)[0]]


def _cross_term(R: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """sum_p X_p (x) Y_p for hermitian X_p, Y_p, from R = sum_p x_p y_p^T over
    their ``_hermitian_coordinates`` (..., dA*dA, dB*dB).

    X[a, b] = x[u] + i s x[l] with u = (min, max), l = (max, min) and s =
    sign(a - b), and so for Y, so the entry ((a, c), (b, e)) is R[u, u'] -
    s s' R[l, l'] + i (s R[l, u'] + s' R[u, l']).  G, the rows u and l of R
    and then their columns u' and l', each times its sign, holds all four
    terms exactly, and each part is one sum of two.  Swapping (a, c) with
    (b, e) keeps u, l and s s' and flips s and s', so the result is hermitian
    bit for bit."""
    lead = R.shape[:-2]
    rows_A, signs_A = _coordinate_tables(dA)[1:]
    rows_B, signs_B = _coordinate_tables(dB)[1:]
    G = R.take(rows_A, axis=-2)
    G *= signs_A[:, None]
    G = G[..., rows_B]
    G *= signs_B
    G = G.reshape(lead + (2, dA, dA, 2, dB, dB))
    T = np.empty(lead + (dA, dB, dA, dB), dtype=complex)
    out = T.swapaxes(-3, -2)  # indexed (a, b, c, e), as G's four blocks
    np.subtract(G[..., 0, :, :, 0, :, :], G[..., 1, :, :, 1, :, :], out=out.real)
    np.add(G[..., 1, :, :, 0, :, :], G[..., 0, :, :, 1, :, :], out=out.imag)
    return T.reshape(lead + (dA * dB, dA * dB))


def sos_certificate(strategy: Strategy, S: GramMatrix, fold, theta) -> SosReport:
    """Residuals of W_d + Theta_d = d^2 I, positivity of Theta_d, and Theta_d rho = 0
    at one strategy; W_d comes from ``fold``, what ``pair_fold_reader`` returned
    from a walk, and ``theta`` from the effects, what ``sos_theta_reader`` returned."""
    if strategy.stack:
        raise ValueError("sos_certificate takes one strategy, not a stack")
    residual = bell_operator(strategy, S, fold)  # W_d, then W_d + Theta_d - d^2 I in place
    residual += theta
    residual -= S.d * S.d * np.eye(residual.shape[-1])
    theta_rho = theta @ strategy.rho
    return SosReport(
        identity_residual=frobenius(residual),
        theta_min_eigenvalue=theta_min_eigenvalue(theta),
        theta_rho_residual=frobenius(theta_rho),
        identity_worst=_largest_entry(residual),
        theta_rho_worst=_largest_entry(theta_rho),
    )


def _largest_entry(M: np.ndarray) -> tuple[int, int] | None:
    """The (row, column) of the largest |entry| of M as 1-based basis labels,
    i dB + j + 1 for |i>|j>, or None for M = 0."""
    if not M.any():
        return None
    row, column = divmod(int(np.abs(M).argmax()), M.shape[-1])
    return row + 1, column + 1


def theta_min_eigenvalue(theta: np.ndarray) -> float | np.ndarray:
    """The least eigenvalue of Theta_d's hermitian part, per member of a stack."""
    return _each(np.linalg.eigvalsh((theta + dagger(theta)) / 2)[..., 0])


def random_strategy(dims: BipartiteDims, d: int, seed) -> Strategy:
    """Seeded random strategy with full-support POVMs, or, for a sequence of
    seeds, the stack of them, each member bitwise equal to its single draw.

    Effects are Ginibre squares normalized by the inverse square root of
    their sum; the state is a normalized Ginibre square.  Each seed's
    generator draws the state, the pair POVMs, the povm setting and Bob's
    binary POVMs in that order; the normalizations run on the whole stack.
    """
    return _random_strategy(dims, d, seed, pair_effects=True)


def _random_strategy(dims: BipartiteDims, d: int, seed, pair_effects: bool) -> Strategy:
    """``random_strategy``, or without ``pair_effects`` the same draws with the
    pair POVMs left unnormalized and the pair effects zero, for readers of the
    state and the povm setting alone."""
    n, N = d * d, dims.total
    shapes = ((2, N, N), (n_pairs(n), 3, 2, dims.dA, dims.dA),
              (1, n, 2, dims.dA, dims.dA), (n, 2, 2, dims.dB, dims.dB))
    sizes = [math.prod(shape) for shape in shapes]
    seeds = np.reshape(seed, -1).tolist()
    z = np.empty((len(seeds), sum(sizes)))
    for i, s in enumerate(seeds):  # one call draws what four calls in a row would
        np.random.default_rng(s).standard_normal(out=z[i])
    state_z, pair_z, povm_z, bob_z = (
        part.reshape((len(seeds),) + shape)
        for part, shape in zip(np.split(z, np.cumsum(sizes)[:-1], axis=1), shapes))
    G = state_z[:, 0] + 1j * state_z[:, 1]
    rho = G @ dagger(G)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]

    def unstack(x):  # the leading axis of the draws -> the stack shape of ``seed``
        return x.reshape(np.shape(seed) + x.shape[1:])

    pairs = (_random_povm(pair_z, 2) if pair_effects else
             np.zeros(pair_z.shape[:2] + (2, dims.dA, dims.dA), dtype=complex))
    return Strategy(
        dims=dims,
        rho=unstack(rho),
        alice_pair_effects=unstack(pairs),
        alice_povm=unstack(_random_povm(povm_z, n)[:, 0]),
        bob=unstack(_random_povm(bob_z, 1)[:, :, 0]),
    )


def _random_povm(z: np.ndarray, keep: int) -> np.ndarray:
    """The first ``keep`` effects (..., keep, dim, dim) of the POVMs of the
    Ginibre squares of ``z`` (..., outcomes, 2, dim, dim), real part then
    imaginary part, normalized by the inverse square root of their sum."""
    lead, dim = z.shape[:-4], z.shape[-1]
    z = z.reshape((-1,) + z.shape[-4:])
    G = z[:, :, 0] + 1j * z[:, :, 1]
    raw = G @ dagger(G)
    w, U = np.linalg.eigh(raw.sum(axis=1))
    inv_sqrt = (U / np.sqrt(w)[:, None, :]) @ dagger(U)
    # einsum: a chain of @ rounds differently, which would change seeded strategies
    povms = np.einsum("pab,pxbc,pcd->pxad", inv_sqrt, raw[:, :keep], inv_sqrt)
    return povms.reshape(lead + (keep, dim, dim))
