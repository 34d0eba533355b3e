"""Test-only oracles: slower or more direct restatements of what the package
computes, which the tests compare it against.

- ``dense_relations`` and ``dense_pair_residuals``: the exact relation
  check, every X_j X_k X_j formed densely (two GEMMs per row, O(n^2 m^3));
  ``algebra.check_as_relations`` bounds the same pair residuals from above
  through the rank-r eigenpart of each X_j.
- ``Correlation``, ``correlation``, ``validate_correlation`` and
  ``bell_value_from_correlation``: the full probability table of a strategy
  and the Bell function evaluated on it, an oracle for ``bell.bell_value``.
- ``depolarize`` and ``validate_strategy``: strategies below the quantum
  value, and the POVM and state invariants of a strategy.
- ``deterministic_score``: one local deterministic strategy's score, which
  the tests maximize by hand as an oracle for ``brute_force_classical``.
- ``weyl_operator_loop``, ``weyl_orbit_loop`` and ``weyl_overlaps_loop``:
  the Weyl operators, orbit and overlaps one (p, q) at a time; ``bic``
  builds them as array operations on one phase table, and ``weyl_operator``
  reads one operator, indices taken mod d, off that stack.
- ``matricize``: a vector of C^{dA} (x) C^{dB} folded into its dA x dB
  matrix, the isometry the purification tests read.
- ``cross_term_kron``: Theta_d's cross term sum_p c_p D_p (x) E_p as one
  complex ``kron_sum`` over the dense pair effects; ``bell.sos_theta_reader``
  forms it from one real product of hermitian coordinates per walk block.
- ``equalize_diagonal_dense``, ``factor_gram`` and ``generic_bic_dense``: the
  generic construction with dense n x n rotations and an eigendecomposition
  of the n x n Gram matrix for the vectors, O(d^8) per draw; ``bic`` rotates
  two rows and two columns and reads the vectors off the factor it holds.
- ``commutant_basis_kron``: the commutant of a family from the null space of
  the full (m n^2 x n^2) commutator system built with Kronecker products,
  O(n^6 m); ``algebra`` solves it only on the eigenspaces of one random
  element of the family's algebra.
- ``pair_list``: every outcome pair as a tuple of Python tuples, the order
  of the pair axis that ``bell.pair_indices`` holds as two index arrays.
- ``stored_reference_vectors``: the reference strategy's pair vectors as
  ``bell.reference_strategy`` stored them for every pair, in blocks of 64 d
  pairs, kept bit for bit; ``bell.ReferencePairs`` computes them chunk by
  chunk while the pairs are walked.
- ``StoredPairs``: a ``bell.ReferencePairs`` that yields a given vector
  array instead of computing it, so that a test can tilt or spoil one
  pair's vectors and still reach the audit's closed-form rank-one relations.
- ``random_strategy_four_draws``, ``equalize_diagonal_masked`` and
  ``generic_bic_masked``: frozen copies of the seeded draws as they were
  written before their per-call overhead was cut (four normal draws per
  seed, every outcome normalized; the rotation loop re-scanning boolean
  masks), which the package must still match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import ge

import numpy as np

from biccert.bell import (
    ReferencePairs, Strategy, _refuse, pair_blocks, pair_indices,
)
from biccert.bic import (
    _GENERIC_ATTEMPTS, BicPovm, GramMatrix, _fixing_rotation, _weyl_stack, gram, validate_bic,
    validate_gram,
)
from biccert.linalg import (
    DEFAULT_TOL,
    BipartiteDims,
    Check,
    Checks,
    check,
    dagger,
    eigh,
    frobenius,
    frobenius_each,
    held,
    kron,
    kron_sum,
)


def dense_pair_residuals(X: np.ndarray, s: np.ndarray) -> np.ndarray:
    """||X_j X_k X_j - s_jk X_j||_F for every pair (j, k), zero on the diagonal."""
    n, m = X.shape[:2]
    gram_res = np.zeros((n, n))
    # the transposed relations X_j^t X_k^t X_j^t = s_jk X_j^t have the same
    # residual norms, and [X_1^t | ... | X_n^t] is a view of X
    side_by_side = X.reshape(n * m, m).T
    # reused by every row, indexed (a, k, c) for the entry (a, c) of the k-th product
    XjX, T, sXj = np.empty((3, m, n, m), dtype=complex)
    for j in range(n):  # row j for every k at once, two GEMMs; k = j is not a relation
        Xj_t = X[j].T
        np.matmul(Xj_t, side_by_side, out=XjX.reshape(m, n * m))
        np.matmul(XjX.reshape(m * n, m), Xj_t, out=T.reshape(m * n, m))
        np.multiply(Xj_t[:, None, :], s[j, None, :, None], out=sXj)
        gram_res[j] = frobenius_each(np.subtract(T, sXj, out=T).transpose(1, 0, 2))
    np.fill_diagonal(gram_res, 0.0)
    return gram_res


def dense_relations(X, S: GramMatrix) -> Check:
    """The relation check with every pair residual exact, from
    ``dense_pair_residuals``.

    The relations are projectivity X_j^2 = X_j, completeness sum_j X_j = d I
    and X_j X_k X_j = s_jk X_j for j != k.  The check holds the largest
    residual (NaN if any is NaN) to ``DEFAULT_TOL * max(1, max_j ||X_j||_F)``;
    its worst offender is "completeness", the 1-based index j of a
    projectivity relation or the pair (j, k).
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValueError("expected a stack of square matrices")
    n = X.shape[0]
    if n != S.n:
        raise ValueError(f"expected {S.n} generators for S, got {n}")
    scale = max(1.0, float(frobenius_each(X).max(initial=0.0)))

    projectivity = frobenius_each(X @ X - X)
    completeness = frobenius(X.sum(axis=0) - S.d * np.eye(X.shape[1]))
    gram_res = dense_pair_residuals(X, S.s)

    j = int(np.argmax(projectivity))  # n = S.n >= 4
    at = np.unravel_index(np.argmax(gram_res), gram_res.shape)
    candidates = [(completeness, "completeness"), (projectivity[j], j + 1),
                  (gram_res[at], tuple(int(i) + 1 for i in at))]
    measured, worst = candidates[int(np.argmax([c[0] for c in candidates]))]
    return held("standard relations", measured, DEFAULT_TOL * scale, worst=worst)


@dataclass(frozen=True)
class Correlation:
    """Full outcome probability table of a strategy; the tests score it with
    ``bell_value_from_correlation`` as an oracle for ``bell_value``.

    ``pair_probs[p, y, a, b]`` is p(a,b | pair p, y) with a in (1, 2, perp)
    and b in (1, perp); ``povm_probs[a, y, b]`` covers the povm setting.
    """

    n_outcomes: int
    pairs: tuple[tuple[int, int], ...]
    pair_probs: np.ndarray
    povm_probs: np.ndarray

    def __post_init__(self):
        if tuple(self.pairs) != pair_list(self.n_outcomes):
            raise ValueError(f"pairs must be all {self.n_outcomes} outcome pairs in order")


def correlation(strategy: Strategy) -> Correlation:
    """The full probability table p(a,b|x,y) = tr[rho (A^x_a (x) B^y_b)]: the
    table-side oracle that the tests compare ``bell_value`` against."""
    dA, dB = strategy.dims.dA, strategy.dims.dB
    rho4 = strategy.rho.reshape(dA, dB, dA, dB)
    n = strategy.n_outcomes
    IA, IB = np.eye(dA), np.eye(dB)

    bob_effects = np.stack([strategy.bob, IB - strategy.bob], axis=1)  # (n, 2, dB, dB)

    # tr[rho (X (x) Y)] = sum rho[a,b,a',b'] X[a',a] Y[b',b]
    pair_probs = np.empty((len(pair_list(n)), n, 3, 2))
    for block, _, _, A, _ in strategy.pair_effect_blocks():
        alice_pair = np.concatenate([A, (IA - A.sum(axis=1))[:, None]], axis=1)
        pair_probs[block] = np.einsum(
            "abcd,xuca,yvdb->xyuv", rho4, alice_pair, bob_effects, optimize=True
        ).real
    povm_probs = np.einsum(
        "abcd,uca,yvdb->uyv", rho4, strategy.alice_povm, bob_effects, optimize=True
    ).real
    return Correlation(
        n_outcomes=n,
        pairs=pair_list(n),
        pair_probs=pair_probs,
        povm_probs=povm_probs,
    )


def validate_correlation(corr: Correlation, tol: float = 1e-10) -> Checks:
    """Nonnegativity, normalization per setting pair, and no-signaling; the
    tests hold ``correlation`` tables of valid strategies to it."""
    lo = min(float(corr.pair_probs.min()), float(corr.povm_probs.min()))
    norm_pair = np.abs(corr.pair_probs.sum(axis=(2, 3)) - 1.0)
    norm_povm = np.abs(corr.povm_probs.sum(axis=(0, 2)) - 1.0)
    norm_res = max(float(norm_pair.max()), float(norm_povm.max()))

    # Alice marginals must not depend on y; Bob marginals must not depend on x.
    a_pair = corr.pair_probs.sum(axis=3)  # (n_pairs, y, a)
    a_res = float(np.abs(a_pair - a_pair[:, :1, :]).max())
    a_povm = corr.povm_probs.sum(axis=2)  # (a, y)
    a_res = max(a_res, float(np.abs(a_povm - a_povm[:, :1]).max()))
    b_pair = corr.pair_probs.sum(axis=2)  # (x, y, b)
    b_povm = corr.povm_probs.sum(axis=0)  # (y, b)
    b_ref = b_povm[None, :, :]
    b_res = float(np.abs(b_pair - b_ref).max())

    return Checks([
        check("nonnegative", lo, tol),
        check("normalized", norm_res, tol),
        check("no_signaling_alice", a_res, tol),
        check("no_signaling_bob", b_res, tol),
    ])


def bell_value_from_correlation(corr: Correlation, S: GramMatrix) -> float:
    """Evaluate the Bell function directly on a probability table: the
    oracle the tests compare ``bell_value`` against.

    Alice's marginals are read against Bob's first setting and Bob's against
    Alice's povm setting; no-signaling makes both choices immaterial for
    valid tables.
    """
    if corr.n_outcomes != S.n:
        raise ValueError(f"correlation table has {corr.n_outcomes} outcomes, S expects {S.n}")
    P = corr.pair_probs
    p = np.arange(len(corr.pairs))
    j, k = pair_indices(S.n)
    one_minus_s = 1.0 - S.s[j, k]
    correlators = P[p, j, 0, 0] + P[p, k, 1, 0] - P[p, k, 0, 0] - P[p, j, 1, 0]
    value = 2.0 * np.sqrt(one_minus_s) @ correlators - one_minus_s @ P[:, 0, :2].sum(axis=(1, 2))
    value -= S.d * (S.d - 2) * corr.povm_probs[:, :, 0].sum()
    value -= np.trace(corr.povm_probs[:, :, 1])
    return float(value)


def depolarize(strategy: Strategy, v: float) -> Strategy:
    """Mix the state with white noise: rho <- v rho + (1-v) I / (dA dB); the
    tests use it to drive strategies below the quantum value."""
    if not (0.0 <= v <= 1.0):
        raise ValueError("visibility must lie in [0, 1]")
    n = strategy.dims.total
    return replace(strategy, rho=v * strategy.rho + (1.0 - v) * np.eye(n) / n)


def validate_strategy(strategy: Strategy, tol: float = DEFAULT_TOL) -> Checks:
    """POVM and state invariants of a strategy; the tests hold the reference
    and random strategies to it."""
    rho = strategy.rho
    w = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
    herm_res = frobenius(rho - dagger(rho))
    trace_res = abs(np.trace(rho).real - 1.0)
    scale = max(1.0, frobenius(rho))

    def min_eig(M, cap=np.inf):
        """Smallest eigenvalue over a stack of matrices, at most ``cap``."""
        return float(np.linalg.eigvalsh((M + dagger(M)) / 2).min(initial=cap))

    dA, dB = strategy.dims.dA, strategy.dims.dB
    pair_floor = pair_cap = 0.0
    for _, _, _, A, _ in strategy.pair_effect_blocks():
        pair_floor = min_eig(A, pair_floor)
        pair_cap = min_eig(np.eye(dA) - A[:, 0] - A[:, 1], pair_cap)
    povm_sum_res = frobenius(strategy.alice_povm.sum(axis=0) - np.eye(dA))
    povm_floor = min_eig(strategy.alice_povm)
    bob_floor = min_eig(strategy.bob)
    bob_cap = min_eig(np.eye(dB) - strategy.bob)

    return Checks([
        held("state_hermitian", herm_res, tol * scale),
        held("state_psd", w[0], -tol * scale, ge),
        held("state_trace", trace_res, tol * scale),
        check("pair_effects_psd", pair_floor, tol),
        check("pair_effects_capped", pair_cap, tol),
        check("povm_psd", povm_floor, tol),
        check("povm_sums_to_identity", povm_sum_res, tol, dA),
        check("bob_psd", bob_floor, tol),
        check("bob_capped", bob_cap, tol),
    ])


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


def weyl_operator_loop(d: int, p: int, q: int) -> np.ndarray:
    """U_{p,q} = sum_j w^{jq} |j+p><j| filled one entry at a time, each phase a
    scalar power; an oracle for the orbit stack read by ``weyl_operator``."""
    p, q = p % d, q % d
    U = np.zeros((d, d), dtype=complex)
    omega = np.exp(2j * np.pi / d)
    for j in range(d):
        U[(j + p) % d, j] = omega ** (j * q)
    return U


def weyl_operator(d: int, p: int, q: int) -> np.ndarray:
    """Shift-and-phase unitary U_{p,q} = sum_j w^{jq} |j+p><j| with w = e^{2 pi i/d},
    indices mod d: entry (p, q) of the stack ``bic.construct_weyl_bic`` applies."""
    return _weyl_stack(d)[(p % d) * d + q % d]


def weyl_orbit_loop(d: int, psi: np.ndarray) -> np.ndarray:
    """The vectors U_{p,q}|psi>, one matrix-vector product per (p, q) in
    lexicographic order; an oracle for ``bic.construct_weyl_bic``."""
    return np.stack([weyl_operator_loop(d, p, q) @ psi for p in range(d) for q in range(d)])


def weyl_overlaps_loop(d: int, psi: np.ndarray) -> np.ndarray:
    """<psi|U_{p,q}|psi> by a double loop over (p, q); an oracle for
    ``bic.weyl_overlaps``."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    out = np.empty((d, d), dtype=complex)
    j = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    for p in range(d):
        shifted = psi[(j + p) % d].conj() * psi
        for q in range(d):
            out[p, q] = np.sum(omega ** (j * q) * shifted)
    return out


def equalize_diagonal_dense(P: np.ndarray) -> np.ndarray:
    """``bic.equalize_diagonal`` with each rotation applied as a dense n x n
    unitary, G M G* and G U, so O(n^3) per rotation."""
    P = np.asarray(P, dtype=complex)
    n = P.shape[0]
    mu = np.trace(P).real / n
    M = P.copy()
    U = np.eye(n, dtype=complex)
    active = list(range(n))
    band = 1e-12 * max(1.0, abs(mu))
    for _ in range(n - 1):
        diag = M.diagonal().real
        low = [i for i in active if diag[i] < mu - band]
        high = [i for i in active if diag[i] > mu + band]
        if not low or not high:
            break
        i, j = low[0], high[0]
        R = _fixing_rotation(diag[i], diag[j], M[i, j], mu)
        G = np.eye(n, dtype=complex)
        G[np.ix_([i, j], [i, j])] = R
        M = G @ M @ dagger(G)
        U = G @ U
        active.remove(i)
    return U


def factor_gram(G: np.ndarray, d: int) -> np.ndarray:
    """Vectors (rows) whose Gram matrix is G, via the top-d eigenpairs."""
    w, W = eigh(G, tol=1e-8)
    V = (W[:, -d:] * np.sqrt(w[-d:])).conj()  # row j = e_j with <e_j|e_k> = G_jk
    residual = frobenius(V.conj() @ V.T - G)
    if residual > 1e-9 * max(1.0, frobenius(G)):
        raise ValueError(f"gram factorization residual {residual:.3e} too large")
    return V


def generic_bic_dense(d: int, seed: int) -> tuple[BicPovm, int]:
    """``bic.construct_generic_bic`` through the dense pipeline: dense
    rotations, K3 = U K2 U*, then an eigendecomposition of G = d K3 for the
    vectors, O(d^8).  Returns the POVM and the number of draws it took."""
    rng = np.random.default_rng(seed)
    n = d * d
    for draw in range(1, _GENERIC_ATTEMPTS + 1):
        K0 = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        K1, _ = np.linalg.qr(K0)
        K2 = K1 @ dagger(K1)
        U = equalize_diagonal_dense(K2)
        povm = BicPovm(d=d, vectors=factor_gram(d * (U @ K2 @ dagger(U)), d))
        if validate_bic(povm).passed and validate_gram(gram(povm)).passed:
            return povm, draw
    raise ValueError(f"generic construction failed after {_GENERIC_ATTEMPTS} attempts")


def commutant_basis_kron(X: np.ndarray) -> np.ndarray:
    """Basis (k, n, n) of {Y : [Y, X_j] = 0 for all j} via the nullspace of the
    stacked row-major superoperators kron(X_j, I) - kron(I, X_j^T): the right
    singular vectors past the singular values above 1e-10 * max(1, largest)."""
    m, n, _ = X.shape
    eye = np.eye(n)
    rows = np.concatenate([kron(Xj, eye) - kron(eye, Xj.T) for Xj in X])
    _, sv, Vh = np.linalg.svd(rows, full_matrices=False)
    rank = int((sv > 1e-10 * max(1.0, sv[0])).sum())
    return Vh[rank:].conj().reshape(-1, n, n)


def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All (j, k) with 0 <= j < k < n, lexicographic."""
    return tuple((j, k) for j in range(n) for k in range(j + 1, n))


def stored_reference_vectors(povm: BicPovm, S: GramMatrix | None = None) -> np.ndarray:
    """The (n_pairs, 2, d) unit vectors of the reference strategy's pair
    effects, computed in blocks of 64 d pairs and stored for every pair, with
    its refusals, as ``bell.reference_strategy`` did before it streamed them."""
    d = povm.d
    n = d * d
    overlaps = (gram(povm) if S is None else S).s
    pair_vectors = np.empty((len(pair_list(n)), 2, d), dtype=complex)
    for block, j, k in pair_blocks(n, 64 * d):
        s_jk = overlaps[j, k]
        _refuse(s_jk >= 1.0 - 1e-12, j, k, s_jk,
                "degenerate pair ({j}, {k}): overlap s_jk={value} is too close to 1")
        q1, rest = povm.vectors[j], povm.vectors[k]  # e_j and e_k, fresh copies
        norm_j = np.linalg.norm(q1, axis=1)
        q1 /= norm_j[:, None]
        alpha = np.einsum("pa,pa->p", q1.conj(), rest)
        rest -= alpha[:, None] * q1
        beta = np.linalg.norm(rest, axis=1)
        a, b, c = norm_j**2 - np.abs(alpha) ** 2, -alpha * beta, -beta**2
        h = (a - c) / 2
        r = np.hypot(h, np.abs(b))
        w = np.stack([(a + c) / 2 - r, (a + c) / 2 + r], axis=1)
        _refuse(~(w[:, 1] >= 1e-12) | ~(w[:, 0] <= -1e-12), j, k, w,
                "pair ({j}, {k}) difference lacks a +/- eigenvalue pair: extremes {value}")
        x, y = np.where(h >= 0, h + r, b), np.where(h >= 0, b.conj(), r - h)
        x, y = (v / np.hypot(np.abs(x), np.abs(y)) for v in (x, y))
        q2 = rest
        q2 /= beta[:, None]
        a1, a2 = pair_vectors[block, 0], pair_vectors[block, 1]
        np.multiply(x[:, None], q1, out=a1)
        a1 += y[:, None] * q2
        np.multiply(-y.conj()[:, None], q1, out=a2)
        a2 += x.conj()[:, None] * q2
    return pair_vectors


class StoredPairs(ReferencePairs):
    """Rank-one pair effects given by their unit vectors ``vectors`` (n_pairs,
    2, d), yielded a walk block of ``size`` pairs per chunk where
    ``ReferencePairs.chunks`` computes several blocks' vectors per chunk."""

    @property
    def shape(self) -> tuple[int, ...]:
        return self.vectors.shape

    def chunks(self, size: int):
        for start in range(0, len(self.vectors), size):
            chunk = slice(start, min(start + size, len(self.vectors)))
            yield chunk, self.vectors[chunk]


def random_strategy_four_draws(dims: BipartiteDims, d: int, seed):
    """(rho, pair effects, povm setting, Bob) of ``bell.random_strategy``: per
    seed four ``standard_normal`` calls (state, pair POVMs, povm setting, Bob),
    and every outcome of every POVM normalized before the kept ones are read."""
    n, N = d * d, dims.total
    pairs = pair_list(n)
    seeds = np.reshape(seed, -1).tolist()
    shapes = ((2, N, N), (len(pairs), 3, 2, dims.dA, dims.dA), (1, n, 2, dims.dA, dims.dA),
              (n, 2, 2, dims.dB, dims.dB))
    state_z, pair_z, povm_z, bob_z = (np.empty((len(seeds),) + shape) for shape in shapes)
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        for z in (state_z, pair_z, povm_z, bob_z):
            rng.standard_normal(out=z[i])
    G = state_z[:, 0] + 1j * state_z[:, 1]
    rho = G @ dagger(G)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]

    def unstack(x):
        return x.reshape(np.shape(seed) + x.shape[1:])

    return (unstack(rho), unstack(_every_outcome_povm(pair_z)[:, :, :2]),
            unstack(_every_outcome_povm(povm_z)[:, 0]), unstack(_every_outcome_povm(bob_z)[:, :, 0]))


def _every_outcome_povm(z: np.ndarray) -> np.ndarray:
    """Every effect of the normalized POVMs of ``random_strategy_four_draws``."""
    lead, (outcomes, _, dim, _) = z.shape[:-4], z.shape[-4:]
    z = z.reshape((-1,) + z.shape[-4:])
    G = z[:, :, 0] + 1j * z[:, :, 1]
    raw = G @ dagger(G)
    w, U = np.linalg.eigh(raw.sum(axis=1))
    inv_sqrt = (U / np.sqrt(w)[:, None, :]) @ dagger(U)
    povms = np.einsum("pab,pxbc,pcd->pxad", inv_sqrt, raw, inv_sqrt)
    return povms.reshape(lead + (outcomes, dim, dim))


def _fixing_rotation_masked(a: float, c: float, b: complex, mu: float) -> np.ndarray:
    """The rotation of ``equalize_diagonal_masked``."""
    phi = 0.0 if b == 0 else -np.angle(b)
    amp = np.hypot((a - c) / 2, abs(b))
    kappa = mu - (a + c) / 2
    gamma = np.arctan2((a - c) / 2, abs(b))
    base = np.arcsin(np.clip(kappa / amp, -1.0, 1.0))
    for s in (base, np.pi - base):
        theta = (s - gamma) / 2
        ct, st = np.cos(theta), np.sin(theta)
        value = a * ct**2 + c * st**2 + 2 * ct * st * (np.exp(1j * phi) * b).real
        if abs(value - mu) <= 1e-9 * max(1.0, abs(mu)):
            return np.array(
                [[ct, st * np.exp(-1j * phi)], [-st * np.exp(1j * phi), ct]],
                dtype=complex,
            )
    raise ValueError("no rotation angle found; mean outside [min, max] bracket")


def equalize_diagonal_masked(P: np.ndarray) -> np.ndarray:
    """``bic.equalize_diagonal`` choosing each rotation's pair from boolean
    masks over the whole live diagonal, re-scanned every step."""
    P = np.asarray(P, dtype=complex)
    n = P.shape[0]
    mu = np.trace(P).real / n
    M = P.copy()
    U = np.eye(n, dtype=complex)
    diag = M.diagonal().real
    active = np.ones(n, dtype=bool)
    band = 1e-12 * max(1.0, abs(mu))
    for _ in range(n - 1):
        low, high = active & (diag < mu - band), active & (diag > mu + band)
        if not (low.any() and high.any()):
            break
        i, j = int(low.argmax()), int(high.argmax())
        R = _fixing_rotation_masked(diag[i], diag[j], M[i, j], mu)
        pair = [i, j]
        M[pair] = R @ M[pair]
        M[:, pair] = M[:, pair] @ dagger(R)
        U[pair] = R @ U[pair]
        active[i] = False
    return U


def generic_bic_masked(d: int, seed: int) -> BicPovm:
    """``bic.construct_generic_bic`` through ``equalize_diagonal_masked``, each
    draw held to the full ``validate_bic`` and ``validate_gram``."""
    rng = np.random.default_rng(seed)
    n = d * d
    for _ in range(_GENERIC_ATTEMPTS):
        K0 = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        K1, _ = np.linalg.qr(K0)
        U = equalize_diagonal_masked(K1 @ dagger(K1))
        povm = BicPovm(d=d, vectors=(np.sqrt(d) * (U @ K1)).conj())
        if validate_bic(povm).passed and validate_gram(gram(povm)).passed:
            return povm
    raise ValueError(f"generic construction failed after {_GENERIC_ATTEMPTS} attempts")


def matricize(v: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Fold a vector in C^{dA} (x) C^{dB} into the dA x dB matrix with
    mat(|a>|b>) = |a><b|; an isometry between the 2-norm and Frobenius norm."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != dims.total:
        raise ValueError(f"expected length {dims.total}, got {v.size}")
    return v.reshape(dims.dA, dims.dB)


def cross_term_kron(strategy: Strategy, S: GramMatrix, pair_effects: np.ndarray) -> np.ndarray:
    """sum_p sqrt(1 - s_jk) (A1 - A2) (x) (B_j - B_k) over every pair at once,
    per member of a stack, by the complex ``kron_sum`` that ``sos_theta_reader``
    summed block by block before it read hermitian coordinates;
    ``pair_effects`` are the dense (..., n_pairs, 2, dA, dA) effects."""
    j, k = pair_indices(strategy.n_outcomes)
    c = np.sqrt(1.0 - S.s[j, k])[:, None, None]
    D = c * (pair_effects[..., 0, :, :] - pair_effects[..., 1, :, :])
    E = strategy.bob[..., j, :, :] - strategy.bob[..., k, :, :]
    return kron_sum(D, E)
