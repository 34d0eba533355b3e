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

# Pairs per batched step: larger blocks buy little speed and raise peak memory.
_PAIR_BLOCK = 64


@functools.cache
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All (j, k) with 0 <= j < k < n, lexicographic (one shared tuple per n)."""
    return tuple((j, k) for j in range(n) for k in range(j + 1, n))


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (j, k) of ``pair_list(n)``: ``np.triu_indices(n, 1)`` at a
    fifth of its cost for small n."""
    r = np.arange(n)
    return np.nonzero(r[:, None] < r)


def pair_blocks(n: int, size: int = _PAIR_BLOCK):
    """(slice of the pair axis, j, k) per block of ``size`` pairs of ``pair_list(n)``."""
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
class Strategy:
    """A quantum strategy: state, Alice's pair-setting and povm effects, Bob's effects.

    ``alice_pair_effects[..., p, :]`` holds (A1, A2) for the p-th pair in
    ``pairs``, either as matrices (..., n_pairs, 2, dA, dA) or, for rank-one
    effects, as unit vectors (..., n_pairs, 2, dA) standing for
    A = (|a><a|)^t / tr (|a><a|)^t.  ``walk`` hands every reader dense blocks
    from ``pair_effect_blocks``; only the audit's "a projectivity" and "a
    orthogonality" (``algebra.certification_reader``) read stored vectors
    themselves.  The third outcome is I - A1 - A2.  ``bob[..., j, :, :]``
    is the first effect of Bob's binary setting j; the second is I - bob[j].

    All four arrays may carry the same leading axes ``stack``, those of
    ``rho``: a stack of strategies that ``walk`` and its readers,
    ``bell_operator``, ``sos_certificate`` and ``bell_value`` treat member by
    member, against one Gram matrix.
    """

    dims: BipartiteDims
    rho: np.ndarray                 # (..., dA dB, dA dB)
    alice_pair_effects: np.ndarray  # (..., n_pairs, 2, dA, dA), or (..., n_pairs, 2, dA) vectors
    alice_povm: np.ndarray          # (..., n_outcomes, dA, dA)
    bob: np.ndarray                 # (..., n_outcomes, dB, dB)

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=complex))
        object.__setattr__(
            self, "alice_pair_effects", np.asarray(self.alice_pair_effects, dtype=complex)
        )
        object.__setattr__(self, "alice_povm", np.asarray(self.alice_povm, dtype=complex))
        object.__setattr__(self, "bob", np.asarray(self.bob, dtype=complex))
        stack, dA = self.stack, self.dims.dA
        per_pair = stack + (len(self.pairs), 2, dA)
        if self.alice_pair_effects.shape not in (per_pair, per_pair + (dA,)):
            raise ValueError("alice_pair_effects must hold one (A1, A2) per pair")
        if self.alice_povm.shape[:-3] != stack or self.bob.shape[:-3] != stack:
            raise ValueError("rho, alice_povm and bob must share one stack shape")

    @property
    def stack(self) -> tuple[int, ...]:
        """The leading axes of a stack of strategies; () for one strategy."""
        return self.rho.shape[:-2]

    @property
    def stores_vectors(self) -> bool:
        """True when ``alice_pair_effects`` holds unit vectors, not matrices."""
        return self.alice_pair_effects.ndim == self.rho.ndim + 1

    @property
    def n_outcomes(self) -> int:
        return self.bob.shape[-3]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Every outcome pair, in the order of the pair axis: ``pair_list(n_outcomes)``."""
        return pair_list(self.n_outcomes)

    def member(self, index) -> Strategy:
        """The strategy at ``index`` of the stack."""
        return replace(self, **{name: getattr(self, name)[index]
                                for name in ("rho", "alice_pair_effects", "alice_povm", "bob")})

    @property
    def d(self) -> int:
        return math.isqrt(self.n_outcomes)

    def pair_effect_blocks(self):
        """(slice of the pair axis, j, k, dense effects (..., len, 2, dA, dA)) per
        block of ``pair_blocks``.

        Vector-stored effects are expanded to (|a><a|)^t divided by its computed
        trace (a norm within an ulp of 1 rounds to 1, so a vector keeps the
        input's norm excess, which would enter the Bell value to first order),
        in one buffer that the next block overwrites: copy a block to keep it.
        """
        effects = self.alice_pair_effects
        blocks = pair_blocks(self.n_outcomes)
        if not self.stores_vectors:
            for block, j, k in blocks:
                yield block, j, k, effects[..., block, :, :, :]
            return
        dA = self.dims.dA
        buffer = np.empty(self.stack + (min(_PAIR_BLOCK, len(self.pairs)), 2, dA, dA),
                          dtype=complex)
        for block, j, k in blocks:
            a = effects[..., block, :, :]
            dense = buffer[..., :len(j), :, :, :]
            np.multiply(a[..., None, :], a.conj()[..., :, None], out=dense)
            # times 1/trace on the real view: bitwise equal to the complex division
            dense.view(float)[...] *= 1.0 / np.einsum("...piaa->...pi", dense).real[..., None, None]
            yield block, j, k, dense


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
    """Residuals of the sum-of-squares certificate at a strategy; for a stack
    of strategies each residual is an array over the stack."""

    identity_residual: float
    theta_min_eigenvalue: float
    theta_rho_residual: float

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
    eigenprojections of B_j - B_k (eigenvalues +-sqrt(1-s_jk)), stored as their
    unit eigenvectors, and her povm effects are (1/d) B_j^t.  All transposes
    are in the computational basis.

    Both eigenvectors lie in span{e_j, e_k}, so each pair is a 2x2 problem
    in the orthonormal basis q1 = e_j / |e_j|, q2 ~ e_k - <q1|e_k> q1, where
    e_j = |e_j| q1 and e_k = alpha q1 + beta q2 with the vectors' own norms.
    ``S`` is the povm's ``gram``, formed here when not given.
    """
    d = povm.d
    n = d * d
    B = povm.projections()
    overlaps = (gram(povm) if S is None else S).s
    pair_vectors = np.empty((len(pair_list(n)), 2, d), dtype=complex)
    # O(d) temporaries per pair, overwritten in place where that keeps every bit,
    # so d times a walk block's pairs take about a walk block's memory
    for block, j, k in pair_blocks(n, _PAIR_BLOCK * d):
        s_jk = overlaps[j, k]
        _refuse(s_jk >= 1.0 - 1e-12, j, k, s_jk,
                "degenerate pair ({j}, {k}): overlap s_jk={value} is too close to 1")
        q1, rest = povm.vectors[j], povm.vectors[k]  # e_j and e_k, fresh copies
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
        q2 = rest
        q2 /= beta[:, None]
        a1, a2 = pair_vectors[block, 0], pair_vectors[block, 1]
        np.multiply(x[:, None], q1, out=a1)
        a1 += y[:, None] * q2
        np.multiply(-y.conj()[:, None], q1, out=a2)
        a2 += x.conj()[:, None] * q2
    phi = maximally_entangled(d)
    return Strategy(
        dims=BipartiteDims(d, d),
        rho=np.outer(phi, phi.conj()),
        alice_pair_effects=pair_vectors,
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
    correlator and Alice marginal, in the order of ``pair_list(S.n)``, and
    d(d-2) on Bob's marginals."""
    j, k = pair_indices(S.n)
    one_minus_s = 1.0 - S.s[j, k]
    _refuse(one_minus_s < 0.0, j, k, S.s[j, k], "pair ({j}, {k}) has overlap s_jk={value} above 1")
    return np.stack([2.0 * np.sqrt(one_minus_s), one_minus_s], axis=1), S.d * (S.d - 2)


class PairBlock(NamedTuple):
    """One block of the pair axis as ``walk`` sends it to its readers: the slice
    of the pair axis, the pairs' (j, k), Alice's dense effects A (..., len, 2,
    dA, dA) from ``Strategy.pair_effect_blocks``, D = A1 - A2, P = A1 + A2 and
    E = B_j - B_k.  The next block overwrites all four arrays."""

    block: slice
    j: np.ndarray
    k: np.ndarray
    A: np.ndarray
    D: np.ndarray
    P: np.ndarray
    E: np.ndarray


def walk(strategy: Strategy, *readers) -> tuple:
    """Drive the pair axis of ``strategy`` once for all ``readers``; their results, in order.

    A reader is a generator such as ``bell_value_reader(strategy, S)``: ``walk``
    starts it, sends it each ``PairBlock`` and then None, on which it returns
    its result.  Each block is expanded, and its D, P and E formed, once for
    every reader, into buffers reused from block to block.
    """
    for reader in readers:
        next(reader)
    stack, sides = strategy.stack, (strategy.dims.dA, strategy.dims.dA, strategy.dims.dB)
    most = math.prod(stack) * min(_PAIR_BLOCK, len(strategy.pairs))
    buffers = [np.empty(most * m * m, dtype=complex) for m in sides]
    for block, j, k, A in strategy.pair_effect_blocks():
        # C-contiguous views, laid out as the arrays that A1 - A2 etc. would be
        shapes = [stack + (len(j), m, m) for m in sides]
        D, P, E = (buffer[:math.prod(shape)].reshape(shape)
                   for buffer, shape in zip(buffers, shapes))
        A1, A2 = A[..., 0, :, :], A[..., 1, :, :]
        np.subtract(A1, A2, out=D)
        np.add(A1, A2, out=P)
        np.subtract(strategy.bob[..., j, :, :], strategy.bob[..., k, :, :], out=E)
        step = PairBlock(block, j, k, A, D, P, E)
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
    _check_dims(strategy, S)
    stack, dA = strategy.stack, strategy.dims.dA
    F = np.zeros(stack + (strategy.n_outcomes, dA, dA), dtype=complex)
    M = np.zeros(stack + (dA, dA), dtype=complex)
    corr_w, marg_w = _coefficients(S)[0].T
    while (step := (yield)) is not None:
        block, j, k = step.block, step.j, step.k
        D = corr_w[block, None, None] * step.D
        # pairs are lexicographic: the block is runs of j[0], j[0] + 1, ..., j[-1],
        # each over consecutive k
        starts = np.searchsorted(j, np.arange(j[0], j[-1] + 1))
        F[..., j[0]:j[-1] + 1, :, :] += np.add.reduceat(D, starts, axis=-3)
        for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(j)]):
            F[..., k[lo]:k[hi - 1] + 1, :, :] -= D[..., lo:hi, :, :]
        M += _pair_sum(marg_w[block], step.P)
    return F, M


def _pair_sum(weights: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_p weights[p] X[..., p, :, :]: one vector-matrix product per strategy,
    each bitwise equal to ``np.tensordot(weights, X[i], axes=1)``."""
    T = weights @ X.reshape(X.shape[:-2] + (-1,))
    return T.reshape(X.shape[:-3] + X.shape[-2:])


def _each(values: np.ndarray) -> float | np.ndarray:
    """A float for one strategy, the array over the stack for a stack."""
    return float(values) if values.ndim == 0 else values


def _frobenius_per_member(M: np.ndarray) -> float | np.ndarray:
    """``frobenius`` of each matrix of a stack, computed as for that matrix alone
    (``linalg.frobenius_each`` sums in another order)."""
    norms = [frobenius(m) for m in M.reshape((-1,) + M.shape[-2:])]
    return _each(np.reshape(norms, M.shape[:-2]))


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
    return walk(strategy, bell_value_reader(strategy, S))[0]


def bell_value_reader(strategy: Strategy, S: GramMatrix):
    """The ``walk`` reader behind ``bell_value``."""
    _check_dims(strategy, S)
    dA, dB = strategy.dims.dA, strategy.dims.dB
    stack = strategy.stack
    rho4 = strategy.rho.reshape(stack + (dA, dB, dA, dB))
    # stored transposed, so that tr[X R] = sum(X * R^t)
    bob_t = np.einsum("...abce,...jeb->...jca", rho4, strategy.bob)
    rho_A_t = np.einsum("...abcb->...ca", rho4)
    weights, bob_weight = _coefficients(S)

    correlators, marginals = np.empty((2,) + stack + (len(strategy.pairs),))
    while (step := (yield)) is not None:
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
    as local matrices and the cross terms by ``kron_sum``, one product per
    block of pairs.  It reads only the effects and the walk's D, P and E;
    nothing comes from ``pair_fold_reader`` or W_d, so the identity compares
    two independent constructions.

    The identity is purely algebraic: it holds for arbitrary hermitian
    operator tuples, POVM-valid or not.
    """
    _check_dims(strategy, S)
    d = S.d
    dA, dB = strategy.dims.dA, strategy.dims.dB
    IA, IB = np.eye(dA), np.eye(dB)
    stack, bob = strategy.stack, strategy.bob

    # sums over the pairs of c^2 D^2, E^2, (1-s)(A1 + A2 - D^2) and c D (x) E
    hybrid_A, hybrid_B, marginal = (np.zeros(stack + (m, m), dtype=complex)
                                    for m in (dA, dB, dA))
    cross = np.zeros(stack + (dA * dB, dA * dB), dtype=complex)
    while (step := (yield)) is not None:
        one_minus_s = 1.0 - S.s[step.j, step.k]
        D, E = step.D, step.E
        D2 = D @ D
        hybrid_A += _pair_sum(one_minus_s, D2)
        hybrid_B += (E @ E).sum(axis=-3)
        marginal += _pair_sum(one_minus_s, step.P - D2)
        cross += kron_sum(np.sqrt(one_minus_s)[:, None, None] * D, E)

    theta = kron(hybrid_A, IB) - 2.0 * cross + kron(IA, hybrid_B)
    theta += kron(marginal, IB)
    completeness = d * IB - bob.sum(axis=-3)
    theta += kron(IA, completeness @ completeness)
    theta += kron_sum(strategy.alice_povm, IB - bob)
    theta += d * d * kron(IA, (bob - bob @ bob).sum(axis=-3))
    return theta


def sos_certificate(strategy: Strategy, S: GramMatrix, fold, theta) -> SosReport:
    """Residuals of W_d + Theta_d = d^2 I, positivity of Theta_d, and Theta_d rho = 0;
    W_d comes from ``fold``, what ``pair_fold_reader`` returned from a walk, and
    ``theta`` from the effects, what ``sos_theta_reader`` returned."""
    W = bell_operator(strategy, S, fold)
    d2 = S.d * S.d
    return SosReport(
        identity_residual=_frobenius_per_member(W + theta - d2 * np.eye(W.shape[-1])),
        theta_min_eigenvalue=theta_min_eigenvalue(theta),
        theta_rho_residual=_frobenius_per_member(theta @ strategy.rho),
    )


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
    shapes = ((2, N, N), (len(pair_list(n)), 3, 2, dims.dA, dims.dA),
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
