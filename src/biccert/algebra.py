"""Operator-algebra machinery behind the certification argument.

A tuple X_1..X_{d^2} of projections with sum d*I and X_j X_k X_j = s_jk X_j
generates a finite-dimensional *-algebra whose irreducible blocks all have
dimension divisible by d.  This module checks those relations, decomposes
finite representations into irreducible blocks, certifies the
block-maximally-entangled structure of synchronized bipartite states, runs
the full optimality-relation audit for strategies attaining the quantum value,
and ``certify`` runs the whole certification of a POVM.

The irreducible decomposition is computed numerically: the commutant of the
generated algebra is solved as a linear system on the eigenspaces of one
random hermitian element of the algebra, a random hermitian commutant
element splits the space into irreducible copies (its eigenspaces), and a
second random commutant element links equivalent copies and aligns their
bases through its Schur intertwiners (the algorithm of Murota, Kanno, Kojima
and Kojima, Japan J. Indust. Appl. Math. 27, 2010).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import bell, bic, randomness
from .bell import BellReport, SosReport, Strategy
from .bic import GramMatrix
from .linalg import (
    DEFAULT_TOL,
    RANK_CUTOFF,
    BipartiteDims,
    Check,
    Checks,
    apply_local,
    check,
    components,
    dagger,
    eigh,
    frobenius,
    frobenius_each,
    held,
    is_hermitian,
    is_state,
    kron,
    partial_trace,
    threshold,
)
from .randomness import RandomnessReport

# the most that ``certify`` lets its d^4-sized arrays take together (see
# ``check_certify_size``): d = 36 needs 0.14 GiB, d = 59 1.0 GiB, d = 60 1.06 GiB
MAX_CERTIFY_BYTES = 2**30


# ---------------------------------------------------------------------------
# Relation checks
# ---------------------------------------------------------------------------

def check_as_relations(X, S: GramMatrix) -> Check:
    """Largest Frobenius residual of the projection-family relations against S.

    The relations are projectivity X_j^2 = X_j, completeness sum_j X_j = d I
    and X_j X_k X_j = s_jk X_j for j != k.  Projectivity and completeness are
    measured exactly; each pair residual is the upper bound of
    ``_pair_bounds``, through the rank-r eigenpart of X_j, so it never reads
    below the exact residual beyond rounding.  The check holds the largest
    residual (NaN if any is NaN) to ``DEFAULT_TOL * max(1, max_j ||X_j||_F)``;
    its worst offender is "completeness", the 1-based index j of a
    projectivity relation or the pair (j, k).  ``verify_certification`` and
    the reproduction suite hold ``measured`` to their own threshold in
    ``linalg.THRESHOLDS`` instead.
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
    core, tail = _pair_bounds(X, S.s)
    gram_res = core + tail
    np.fill_diagonal(gram_res, 0.0)  # k = j is not a relation

    j = int(np.argmax(projectivity))  # n = S.n >= 4
    at = np.unravel_index(np.argmax(gram_res), gram_res.shape)
    candidates = [(completeness, "completeness"), (projectivity[j], j + 1),
                  (gram_res[at], tuple(int(i) + 1 for i in at))]
    measured, worst = candidates[int(np.argmax([c[0] for c in candidates]))]
    return held("standard relations", measured, DEFAULT_TOL * scale, worst=worst)


def _eigenparts(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, V), (n, r) and (n, m, r): for each X_j, the r eigenpairs of its
    hermitian part of largest |eigenvalue|, r the largest count above
    ``RANK_CUTOFF`` over j.  Non-finite entries enter eigh as 0."""
    herm = np.where(np.isfinite(X), X, 0)  # eigh may refuse NaN; D_j carries it
    herm = herm + dagger(herm)
    herm *= 0.5
    w, U = np.linalg.eigh(herm)
    r = max(1, int((np.abs(w) > RANK_CUTOFF).sum(axis=1).max()))
    top = np.argsort(-np.abs(w), axis=1)[:, :r]
    return np.take_along_axis(w, top, axis=1), np.take_along_axis(U, top[:, None, :], axis=2)


def _pair_bounds(X: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds ``core + tail`` on ||X_j X_k X_j - s_jk X_j||_F, as two
    (n, n) arrays indexed (j, k).

    X_j = P_j + D_j, with P_j = V_j diag(L_j) V_j* from the eigenpairs of the
    hermitian part of X_j with |L| > ``RANK_CUTOFF`` (one common count r, the
    largest over j) and D_j = X_j - P_j formed densely, so that D_j also
    holds eigh's rounding and any anti-hermitian part.  Then

        X_j X_k X_j - s X_j = V_j C V_j* + D_j X_k X_j + P_j X_k D_j - s D_j

    with C = L G L - s L and G = V_j* X_k V_j.  ``core`` is ||V_j C V_j*||_F =
    sqrt(tr(C* H C H)), H = V_j* V_j, and ``tail`` bounds the other three
    terms by ||D_j||_F (||X_k||_F (||X_j||_F + ||P_j||_F) + |s_jk|).  Every G
    comes from O(n^2 m^2 r) products, in blocks of j whose products take no
    more room than X.  A NaN in X_j reads as a NaN in row j.
    """
    n, m = X.shape[:2]
    L, V = _eigenparts(X)  # a call of its own, so that eigh's temporaries are freed here
    r = L.shape[1]
    P = (V * L[:, None, :]) @ dagger(V)
    norm_X, norm_P = frobenius_each(X), frobenius_each(P)
    delta = frobenius_each(np.subtract(X, P, out=P))
    tail = delta[:, None] * (norm_X[None, :] * (norm_X + norm_P)[:, None] + np.abs(s))

    H = dagger(V) @ V
    LL = L[:, :, None] * L[:, None, :]
    diag_L = L[:, None, :, None] * np.eye(r)  # (n, 1, r, r)
    # [X_1^t | ... | X_n^t], a view of X: rows s of V_j^t times it are (V_j^t X_k^t)[s, a]
    side_by_side = X.reshape(n * m, m).T
    step = m // r
    Z = np.empty((step * r, n * m), dtype=complex)  # reused by every block
    core = np.empty((n, n))
    for start in range(0, n, step):
        js = slice(start, min(start + step, n))
        b = js.stop - start
        z = np.matmul(V[js].transpose(0, 2, 1).reshape(b * r, m), side_by_side, out=Z[:b * r])
        # G_jk[t, s] = sum_a conj(V_j[a, t]) (V_j^t X_k^t)[s, a], from rows (s, k)
        G = (z.reshape(b, r * n, m) @ V[js].conj()).reshape(b, r, n, r).transpose(0, 2, 3, 1)
        C = G * LL[js, None] - s[js, :, None, None] * diag_L[js]
        HCH = H[js, None] @ C @ H[js, None]
        core[js] = np.sqrt(np.maximum(np.einsum("jkts,jkts->jk", C.conj(), HCH).real, 0.0))
    return core, tail


# ---------------------------------------------------------------------------
# The 6-dimensional exceptional representation (d = 3, s_jk = 1/4 off-diagonal)
# ---------------------------------------------------------------------------

def counterexample_rep() -> np.ndarray:
    """Nine 6x6 projections summing to 3I with X_j X_k X_j = (1/4) X_j.

    This family realizes the d=3 uniform-overlap relations in dimension six,
    so the relation algebra admits irreducible blocks beyond the minimal
    3-dimensional ones.  Entries are exact expressions in xi = e^{i pi/12}
    and sqrt(3), evaluated to double precision.
    """
    xi = np.exp(1j * np.pi / 12)
    s3 = np.sqrt(3.0)
    r8 = np.sqrt(8.0)

    X1 = np.diag([1, 1, 0, 0, 0, 0]).astype(complex)
    X2 = np.array(
        [
            [1 / 4, 0, -s3 / 4, 0, 0, 0],
            [0, 1 / 4, 0, -s3 / 4, 0, 0],
            [-s3 / 4, 0, 3 / 4, 0, 0, 0],
            [0, -s3 / 4, 0, 3 / 4, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ],
        dtype=complex,
    )
    X3 = np.array(
        [
            [1 / 4, 0, s3 / 4, 0, 0, 0],
            [0, 1 / 4, 0, s3 / 4, 0, 0],
            [s3 / 4, 0, 3 / 4, 0, 0, 0],
            [0, s3 / 4, 0, 3 / 4, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ],
        dtype=complex,
    )
    X4 = np.array(
        [
            [1 / 4, 0, xi**6 / 4, 0, 1 / (r8 * xi**5), 0],
            [0, 1 / 4, 0, xi**6 / 4, 0, -1 / (r8 * xi**5)],
            [1 / (4 * xi**6), 0, 1 / 4, 0, -xi / r8, 0],
            [0, 1 / (4 * xi**6), 0, 1 / 4, 0, xi / r8],
            [xi**5 / r8, 0, -1 / (r8 * xi), 0, 1 / 2, 0],
            [0, -(xi**5) / r8, 0, 1 / (r8 * xi), 0, 1 / 2],
        ],
        dtype=complex,
    )
    X5 = np.array(
        [
            [1 / 4, 0, 1 / (4 * xi**6), 0, xi**5 / r8, 0],
            [0, 1 / 4, 0, 1 / (4 * xi**6), 0, -(xi**5) / r8],
            [xi**6 / 4, 0, 1 / 4, 0, -1 / (r8 * xi), 0],
            [0, xi**6 / 4, 0, 1 / 4, 0, 1 / (r8 * xi)],
            [1 / (r8 * xi**5), 0, -xi / r8, 0, 1 / 2, 0],
            [0, -1 / (r8 * xi**5), 0, xi / r8, 0, 1 / 2],
        ],
        dtype=complex,
    )
    X6 = np.array(
        [
            [1 / 4, 0, 0, xi**6 / 4, 1 / 4, 1 / (4 * xi**6)],
            [0, 1 / 4, xi**6 / 4, 0, xi**6 / 4, -1 / 4],
            [0, 1 / (4 * xi**6), 1 / 4, 0, 1 / 4, xi**6 / 4],
            [1 / (4 * xi**6), 0, 0, 1 / 4, 1 / (4 * xi**6), -1 / 4],
            [1 / 4, 1 / (4 * xi**6), 1 / 4, xi**6 / 4, 1 / 2, 0],
            [xi**6 / 4, -1 / 4, 1 / (4 * xi**6), -1 / 4, 0, 1 / 2],
        ],
        dtype=complex,
    )
    X7 = np.array(
        [
            [1 / 4, 0, 0, 1 / 4, (-1 - s3) / 8, (1 - s3) / 8],
            [0, 1 / 4, -1 / 4, 0, (1 - s3) / 8, (1 + s3) / 8],
            [0, -1 / 4, 1 / 4, 0, (s3 - 1) / 8, (-1 - s3) / 8],
            [1 / 4, 0, 0, 1 / 4, (-1 - s3) / 8, (1 - s3) / 8],
            [(-1 - s3) / 8, (1 - s3) / 8, (s3 - 1) / 8, (-1 - s3) / 8, 1 / 2, 0],
            [(1 - s3) / 8, (1 + s3) / 8, (-1 - s3) / 8, (1 - s3) / 8, 0, 1 / 2],
        ],
        dtype=complex,
    )
    X8 = np.array(
        [
            [1 / 4, 0, 0, 1 / (4 * xi**6), 1 / 4, xi**6 / 4],
            [0, 1 / 4, 1 / (4 * xi**6), 0, 1 / (4 * xi**6), -1 / 4],
            [0, xi**6 / 4, 1 / 4, 0, 1 / 4, 1 / (4 * xi**6)],
            [xi**6 / 4, 0, 0, 1 / 4, xi**6 / 4, -1 / 4],
            [1 / 4, xi**6 / 4, 1 / 4, 1 / (4 * xi**6), 1 / 2, 0],
            [1 / (4 * xi**6), -1 / 4, xi**6 / 4, -1 / 4, 0, 1 / 2],
        ],
        dtype=complex,
    )
    X9 = np.array(
        [
            [1 / 4, 0, 0, -1 / 4, (-1 - s3) / 8, (s3 - 1) / 8],
            [0, 1 / 4, 1 / 4, 0, (s3 - 1) / 8, (1 + s3) / 8],
            [0, 1 / 4, 1 / 4, 0, (s3 - 1) / 8, (1 + s3) / 8],
            [-1 / 4, 0, 0, 1 / 4, (1 + s3) / 8, (1 - s3) / 8],
            [(-1 - s3) / 8, (s3 - 1) / 8, (s3 - 1) / 8, (1 + s3) / 8, 1 / 2, 0],
            [(s3 - 1) / 8, (1 + s3) / 8, (1 + s3) / 8, (1 - s3) / 8, 0, 1 / 2],
        ],
        dtype=complex,
    )
    return np.stack([X1, X2, X3, X4, X5, X6, X7, X8, X9])


def counterexample_gram() -> GramMatrix:
    """The 9x9 matrix with unit diagonal and 1/4 elsewhere (d = 3)."""
    S = np.full((9, 9), 0.25)
    np.fill_diagonal(S, 1.0)
    return GramMatrix(d=3, s=S)


def span_dimension(matrices) -> int:
    """Numerical dimension of the linear span of a family of matrices: the
    singular values above 1e-8 times the largest."""
    stack = np.stack([np.asarray(M, dtype=complex).reshape(-1) for M in matrices])
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int((sv > 1e-8 * sv[0]).sum())


# ---------------------------------------------------------------------------
# Local supports and compressions
# ---------------------------------------------------------------------------

def local_support(rho: np.ndarray, dims: BipartiteDims, side: str,
                  eigenvalues: np.ndarray | None = None) -> np.ndarray:
    """Isometry (ambient x support dimension, orthonormal columns) onto the
    range of the reduced state on the given side; ``eigenvalues`` are rho's
    from ``linalg.eigh``, when already computed."""
    rho = np.asarray(rho, dtype=complex)
    if not is_state(rho, 1e-8, eigenvalues):
        raise ValueError("local_support expects a quantum state")
    reduced = partial_trace(rho, dims, "B" if side == "A" else "A")
    w, U = eigh(reduced, tol=1e-8)
    return U[:, w > RANK_CUTOFF]


def compress(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """X_hat = V* X V, the operator (or each of a stack) restricted to the
    range of the isometry V."""
    X = np.asarray(X, dtype=complex)
    if X.ndim < 2 or X.shape[-2:] != (V.shape[0], V.shape[0]):
        raise ValueError("operator size does not match the isometry")
    return dagger(V) @ X @ V


# ---------------------------------------------------------------------------
# Irreducible decomposition of a finite *-closed operator family
# ---------------------------------------------------------------------------

_DECOMPOSE_TOL = 1e-8  # verification and sync tolerance of both decompositions
_IRREP_ATTEMPTS = 8  # random commutant draws of irrep_decompose before it gives up


@dataclass(frozen=True)
class IrrepBlock:
    multiplicity: int
    dimension: int
    generators: np.ndarray  # (n_generators, dimension, dimension)


@dataclass(frozen=True)
class IrrepDecomposition:
    """Unitary basis change exhibiting generators as  sum_a I_{e_a} (x) X_a."""

    basis_change: np.ndarray
    blocks: tuple[IrrepBlock, ...]
    off_block_residual: float

    @property
    def shape_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((b.multiplicity, b.dimension) for b in self.blocks))

    def block_matrix(self, block_gens) -> np.ndarray:
        """Assemble sum_a I_{e_a} (x) G_a from per-block matrices G_a, or the
        stack of such sums from per-block stacks (m, d_a, d_a)."""
        n = self.basis_change.shape[1]
        out = np.zeros(np.shape(block_gens[0])[:-2] + (n, n), dtype=complex)
        pos = 0
        for blk, G in zip(self.blocks, block_gens):
            for _ in range(blk.multiplicity):
                out[..., pos : pos + blk.dimension, pos : pos + blk.dimension] = G
                pos += blk.dimension
        return out


def _commutant_basis(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis (k, n, n) of {C : [C, X_j] = 0 for all j}.  Each such C
    commutes with Y = sum_j g_j X_j (real Gaussian g from ``rng``), so it is block
    diagonal over Y's eigenvalue groups split at gaps above 1e-8 max(1, |Y|_2):
    the null space (past singular values above 1e-10 max(1, largest)) of the
    commutator system in those block entries, in Y's eigenbasis.  A gap only
    merges eigenspaces, never splits one (``eigh`` rounds at 1e-15 |Y|)."""
    m, n, _ = X.shape
    w, V = np.linalg.eigh(np.tensordot(rng.standard_normal(m), X, axes=1))
    group = np.cumsum(np.diff(w, prepend=w[0]) > 1e-8 * max(1.0, float(np.abs(w).max())))
    a, b = np.nonzero(group[:, None] == group)  # the unknowns: entries (a, b) of C
    Z = dagger(V) @ X @ V
    # [E_ab, Z_j] is Z_j's row b placed in row a, less its column a placed in column b
    unknown = np.arange(len(a))
    system = np.zeros((len(a), m, n, n), dtype=complex)
    system[unknown, :, a, :] = Z[:, b, :].swapaxes(0, 1)
    system[unknown, :, :, b] -= Z[:, :, a].transpose(2, 0, 1)
    _, sv, Vh = np.linalg.svd(system.reshape(len(a), -1).T, full_matrices=False)
    rank = int((sv > 1e-10 * max(1.0, sv[0])).sum())
    C = np.zeros((len(a) - rank, n, n), dtype=complex)
    C[:, a, b] = Vh[rank:].conj()
    return V @ C @ dagger(V)


def _random_commutant_element(
    basis: np.ndarray, rng: np.random.Generator, hermitian: bool
) -> np.ndarray:
    """sum_k g_k K_k with complex Gaussian g_k, drawn as (re, im) pairs."""
    re, im = rng.standard_normal((len(basis), 2)).T
    Y = ((re + 1j * im)[:, None, None] * basis).sum(axis=0)
    return (Y + dagger(Y)) / 2 if hermitian else Y


def irrep_decompose(X, seed: int = 0) -> IrrepDecomposition:
    """Decompose a hermitian operator family into irreducible blocks.

    Returns a unitary Q and blocks (e_a, d_a, X_a) such that Q* X_j Q equals
    the direct sum over a of I_{e_a} (x) X_{j,a} within ``_DECOMPOSE_TOL``;
    retries with fresh randomness, at most ``_IRREP_ATTEMPTS`` times, when
    eigenvalue collisions spoil the splitting, and names each attempt's
    failure when none succeeds.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValueError("expected a stack of square matrices")
    if not is_hermitian(X, 1e-8):
        raise ValueError("irrep_decompose expects hermitian generators")
    scale = max(1.0, float(frobenius_each(X).max()))
    rng = np.random.default_rng(seed)
    basis = _commutant_basis(X, rng)
    failures = []
    for _ in range(_IRREP_ATTEMPTS):
        result = _attempt_decomposition(X, basis, rng, scale)
        if isinstance(result, IrrepDecomposition):
            return result
        failures.append(result)
    tally = ", ".join(f"{reason} (x{failures.count(reason)})" for reason in dict.fromkeys(failures))
    raise ValueError(
        f"irreducible decomposition unverified after {_IRREP_ATTEMPTS} attempts: {tally}"
    )


def _unitarized(M: np.ndarray):
    """M / c when M = c U for a unitary U and a scalar c > 0 (within 1e-6
    relative), else None."""
    size = M.shape[1]
    overlap = dagger(M) @ M
    c2 = np.trace(overlap).real / size
    if c2 <= 0 or frobenius(overlap - c2 * np.eye(size)) > 1e-6 * max(1.0, c2) * size:
        return None
    return M / np.sqrt(c2)


def _attempt_decomposition(X, basis, rng, scale) -> IrrepDecomposition | str:
    """One random split of the space into irreducible copies (eigenspaces of a
    hermitian commutant element), linked and aligned by a second commutant
    element; the verified decomposition, or why this attempt failed."""
    w, V = np.linalg.eigh(_random_commutant_element(basis, rng, hermitian=True))
    gap = 1e-8 * max(1.0, float(np.abs(w).max()))
    copies = np.split(V, np.flatnonzero(np.diff(w) > gap) + 1, axis=1)

    # copies carrying equivalent irreducibles are linked by the second element
    link = _random_commutant_element(basis, rng, hermitian=False)
    links = [[dagger(ci) @ link @ cj for cj in copies] for ci in copies]
    adjacency = np.array([[frobenius(L) > 1e-6 * scale for L in row] for row in links])

    found = []  # (block, its copies aligned to the first)
    for group in components(adjacency):
        ref = copies[group[0]]
        if any(copies[t].shape[1] != ref.shape[1] for t in group):
            return "a collision merged inequivalent copies"
        aligned = [ref]
        for t in group[1:]:
            Z = _unitarized(links[t][group[0]])
            if Z is None:
                return "a link between copies is not a multiple of a unitary"
            aligned.append(copies[t] @ Z)
        found.append((IrrepBlock(len(group), ref.shape[1], dagger(ref) @ X @ ref), aligned))
    found.sort(key=lambda pair: (pair[0].dimension, pair[0].multiplicity))

    Q = np.hstack([copy for _, aligned in found for copy in aligned])
    dec = IrrepDecomposition(Q, tuple(blk for blk, _ in found), 0.0)
    model = dec.block_matrix([blk.generators for blk in dec.blocks])
    residual = float(frobenius_each(dagger(Q) @ X @ Q - model).max())
    if residual > _DECOMPOSE_TOL * scale:
        return f"off-block mass {residual:.3e}"
    if frobenius(dagger(Q) @ Q - np.eye(Q.shape[0])) > 1e-8:
        return "the basis change is not unitary"
    return replace(dec, off_block_residual=residual)


# ---------------------------------------------------------------------------
# Block-maximally-entangled decomposition of synchronized states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxEntBlock:
    alice_multiplicity: int
    bob_multiplicity: int
    dimension: int


@dataclass(frozen=True)
class MaxEntReport:
    """Result of matching the two local block structures through the state.

    ``state_residuals[k]`` measures how far the k-th spectral eigenvector of
    the compressed state is from the predicted form  sum_a R_{k,a} (x) I_{d_a};
    ``ef_transpose_residual`` compares compressed E_j with compressed F_j
    transposed in the matched bases (zero for pure states, possibly large for
    mixed ones).
    """

    blocks: tuple[MaxEntBlock, ...]
    state_residuals: np.ndarray
    ef_transpose_residual: float

    @property
    def max_state_residual(self) -> float:
        return float(self.state_residuals.max(initial=0.0))


def maxent_decompose(rho: np.ndarray, E, F, dims: BipartiteDims, seed: int = 0) -> MaxEntReport:
    """Decompose a state satisfying (E_j (x) I) rho = (I (x) F_j) rho.

    Compresses both sides to the local supports read from one ``eigh`` of
    rho, decomposes the generated algebras into irreducible blocks, matches
    Alice blocks to Bob blocks through a random combination of the matricized
    eigenvectors of rho (whose blocks are Schur intertwiners), and reports
    the residual of each eigenvector against the block maximally-entangled
    form.
    """
    rho = np.asarray(rho, dtype=complex)
    E = np.asarray(E, dtype=complex)
    F = np.asarray(F, dtype=complex)

    sync = frobenius_each(apply_local(E, rho, dims, "A") - apply_local(F, rho, dims, "B")).max()
    if sync > _DECOMPOSE_TOL * max(1.0, frobenius(rho)):
        raise ValueError(
            f"sync precondition violated: max ||(E_j x I)rho - (I x F_j)rho|| = {sync:.3e}"
        )

    w, vecs = eigh(rho, tol=1e-8)
    UA = local_support(rho, dims, "A", w)
    VB = local_support(rho, dims, "B", w)
    dec_A = irrep_decompose(compress(E, UA), seed=seed)
    dec_B = irrep_decompose(compress(F, VB).swapaxes(1, 2), seed=seed + 1)
    U_full = UA @ dec_A.basis_change
    V_full = VB @ dec_B.basis_change.conj()

    psis = vecs[:, w > RANK_CUTOFF].T.reshape(-1, dims.dA, dims.dB)  # matricized
    re, im = np.random.default_rng(seed + 2).standard_normal((len(psis), 2)).T
    T = dagger(U_full) @ ((re + 1j * im)[:, None, None] * psis).sum(axis=0) @ V_full.conj()

    # the partner table: for each Alice and Bob block of the same dimension, the
    # unitarized largest copy-to-copy block of T; it must be a perfect matching
    a_cuts, b_cuts = (np.cumsum([b.multiplicity * b.dimension for b in dec.blocks])[:-1]
                      for dec in (dec_A, dec_B))
    b_columns = np.split(V_full, b_cuts, axis=1)
    partners = {}
    for ai, (ablk, T_a) in enumerate(zip(dec_A.blocks, np.split(T, a_cuts))):
        for bi, (bblk, T_ab) in enumerate(zip(dec_B.blocks, np.split(T_a, b_cuts, axis=1))):
            k = ablk.dimension
            if bblk.dimension != k:
                continue
            copy_blocks = T_ab.reshape(ablk.multiplicity, k, bblk.multiplicity, k).swapaxes(1, 2)
            norms = frobenius_each(copy_blocks)
            best = np.unravel_index(np.argmax(norms), norms.shape)
            Z = _unitarized(copy_blocks[best]) if norms[best] > 1e-8 else None
            if Z is not None:
                partners[ai, bi] = Z
    alice, bob = sorted(ai for ai, _ in partners), sorted(bi for _, bi in partners)
    if alice != list(range(len(dec_A.blocks))) or bob != list(range(len(dec_B.blocks))):
        raise ValueError(
            f"block matching failure: partner pairs {sorted(partners)} are no perfect "
            f"matching of {len(dec_A.blocks)} Alice and {len(dec_B.blocks)} Bob blocks"
        )

    # Bob's basis columns, realigned and reordered to Alice's block order
    blocks, matched = [], []
    for (ai, bi), Z in sorted(partners.items()):
        f, k = dec_B.blocks[bi].multiplicity, dec_B.blocks[bi].dimension
        blocks.append(MaxEntBlock(dec_A.blocks[ai].multiplicity, f, k))
        matched.append(b_columns[bi] @ kron(np.eye(f), Z.T))
    V_matched = np.hstack(matched)

    # per-eigenvector residual against the predicted block structure: each
    # copy-to-copy block of a matched pair less its trace part
    M = dagger(U_full) @ psis @ V_matched.conj()
    a0 = b0 = 0
    for blk in blocks:
        e, f, k = blk.alice_multiplicity, blk.bob_multiplicity, blk.dimension
        sub = M[:, a0 : a0 + e * k, b0 : b0 + f * k].reshape(-1, e, k, f, k)
        traces = np.einsum("xpiqi->xpq", sub)  # (eigenvector, Alice copy, Bob copy)
        sub -= traces[:, :, None, :, None] / k * np.eye(k)[:, None, :]
        a0, b0 = a0 + e * k, b0 + f * k
    residuals = frobenius_each(M)

    # compressed-E versus transposed compressed-F comparison in matched bases
    ef = np.inf
    if U_full.shape[1] == V_matched.shape[1]:
        ef = frobenius_each(dagger(U_full) @ E @ U_full
                            - (dagger(V_matched) @ F @ V_matched).swapaxes(1, 2)).max()

    return MaxEntReport(
        blocks=tuple(blocks),
        state_residuals=residuals,
        ef_transpose_residual=float(ef),
    )


# ---------------------------------------------------------------------------
# Full optimality-relation audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationReport:
    """The Bell value check and one check per relation family implied by
    reaching the quantum value, each family held to the "certification
    relations" threshold.

    When ``optimal`` is False the relations are not implied and the report is
    advisory only.
    """

    d: int
    bell_value: float
    checks: Checks  # "bell value" first, then the relations

    @property
    def optimal(self) -> bool:
        return self.checks["bell value"].passed

    @property
    def passed(self) -> bool:
        return self.checks.passed

    @property
    def relations(self) -> Check:
        """The relation families as one "certification relations" check: the
        largest residual (NaN if any is NaN), its family and worst offender;
        passes exactly when every family passes."""
        families = [c for name, c in self.checks.items() if name != "bell value"]
        top = families[int(np.argmax([c.measured for c in families]))]
        return Check("certification relations", top.measured, top.threshold,
                     all(c.passed for c in families),
                     top.name if top.worst is None else f"{top.name}: {top.worst}")

    @property
    def max_residual(self) -> float:
        return self.relations.measured

    def to_json(self) -> dict:
        return {"d": self.d, "bellValue": self.bell_value, "optimal": self.optimal,
                "maxResidual": self.max_residual, **self.checks.to_json()}


def dual_alice_operators(strategy: Strategy, S: GramMatrix, F: np.ndarray) -> np.ndarray:
    """Operators C_j = (d I + F_j / 2) / d^2, with F the first part of what
    ``bell.pair_fold_reader`` returned from a walk.

    F_j / 2 sums the differences A1 - A2 of the pairs holding j, each scaled by
    half its correlator weight.  The difference enters antisymmetrically: for
    k < j the (k, j) setting contributes with outcomes swapped, so that at the
    quantum value (C_j (x) I) rho = (I (x) B_j) rho holds for every j.
    """
    d = S.d
    return (d * np.eye(strategy.dims.dA) + F / 2) / (d * d)


class PairAudit(NamedTuple):
    """What ``certification_reader`` returns: rho's eigenvalues and the
    eigenvectors of those above ``RANK_CUTOFF``, ``spectrum``, all that
    ``linalg.purify`` reads of ``linalg.eigh(rho, tol=1e-8)``, its local
    supports UA and VB, its rank factor K with the summed squares ``tail`` of
    the dropped eigenvalues, and the "sync pair", "a projectivity" and "a
    orthogonality" residual of each pair, the last two of vector effects in
    closed form (see ``certification_reader``), and Bob's side of every state
    relation: BK = (I (x) B_j) K and the bounds sqrt(dA) ||B_j||_F."""

    spectrum: tuple[np.ndarray, np.ndarray]
    UA: np.ndarray
    VB: np.ndarray
    K: np.ndarray
    tail: float
    BK: np.ndarray
    bob_norms: np.ndarray
    sync_pair: np.ndarray
    a_proj: np.ndarray
    a_ortho: np.ndarray


def _residuals(Z_K, Z_norm_bound, tail):
    """||Z rho||_F bounded through the rank factor: see ``verify_certification``."""
    return np.sqrt(frobenius_each(Z_K) ** 2 + Z_norm_bound**2 * tail)


def _rank_one_relations(a, UA):
    """"a projectivity" and "a orthogonality" of each pair of rank-one effects
    given by vectors a (len, 2, dA), compressed by UA (None for the full space).

    With w = a or a UA, the compressed effect is u u* / t for u = conj(w) and
    t = |a|^2, so with q = |u|^2 / t it squares to q times itself, and A1 A2 =
    u1 (u1* u2) u2* / (t1 t2): ||A^2 - A||_F = q |q - 1| and ||A1 A2||_F =
    |u1* u2| |u1| |u2| / (t1 t2).  On the full space q = t / t, exactly 1 (or NaN).
    """
    t = np.einsum("...a,...a->...", a.conj(), a).real
    w = a if UA is None else a @ UA
    n2 = t if UA is None else np.einsum("...a,...a->...", w.conj(), w).real
    q = n2 / t
    overlap = np.abs(np.einsum("pa,pa->p", w[:, 0].conj(), w[:, 1]))
    return ((q * np.abs(q - 1.0)).max(axis=1),
            overlap * np.sqrt(n2[:, 0] * n2[:, 1]) / (t[:, 0] * t[:, 1]))


def certification_reader(strategy: Strategy, S: GramMatrix):
    """The ``bell.walk`` reader behind ``verify_certification``: a ``PairAudit``,
    from the one decomposition of rho that the run needs.

    "sync pair" reads the walk's cD: Z K = (cD (x) I) K - (I (x) (B_j - B_k)) K,
    Bob's side from BK[j] - BK[k], BK = (I (x) B_j) K formed once per walk.
    The norm that scales the dropped-eigenvalue tail is bounded by
    sqrt(dB) ||cD||_F + sqrt(dA) ||E||_F, Bob's side by the triangle
    inequality ||E||_F <= ||B_j||_F + ||B_k||_F from per-outcome norms.  "a
    projectivity" and "a orthogonality" read the dense effects compressed to
    Alice's support when they are matrices, and ``_rank_one_relations`` of
    the vectors of each chunk that the walk sends otherwise, in O(d) per pair
    instead of O(d^3); on the full support such effects are projectors by
    construction, and "a projectivity" reads exactly 0.
    """
    rho, dims = strategy.rho, strategy.dims
    L, V = eigh(rho, tol=1e-8)
    UA = local_support(rho, dims, "A", L)
    VB = local_support(rho, dims, "B", L)
    keep = np.abs(L) > RANK_CUTOFF
    K, tail = V[:, keep] * L[keep], float(np.sum(L[~keep] ** 2))
    spectrum = L, V[:, L > RANK_CUTOFF]
    del V  # this frame lives through the walk: keep only the columns above

    BK = apply_local(strategy.bob, K, dims, "B")
    bob_norms = np.sqrt(dims.dA) * frobenius_each(strategy.bob)
    sync_pair, a_proj, a_ortho = np.zeros((3, bell.n_pairs(strategy.n_outcomes)))
    full_support = UA.shape[1] == dims.dA  # UA unitary: compressing keeps every norm below
    while (step := (yield ("cD",))) is not None:
        block, j, k, A = step.block, step.j, step.k, step.A
        Z_K = apply_local(step.cD, K, dims, "A")
        Z_K -= BK.take(j, axis=0) - BK.take(k, axis=0)
        sync_pair[block] = _residuals(
            Z_K, np.sqrt(dims.dB) * frobenius_each(step.cD) + (bob_norms[j] + bob_norms[k]), tail)
        if step.vectors is not None:  # the first block of a chunk: O(d) temporaries per pair
            chunk, a = step.vectors
            a_proj[chunk], a_ortho[chunk] = _rank_one_relations(a, None if full_support else UA)
        elif not strategy.stores_vectors:
            Ah = A if full_support else compress(A, UA)
            a_proj[block] = frobenius_each(Ah @ Ah - Ah).max(axis=1)
            a_ortho[block] = frobenius_each(Ah[:, 0] @ Ah[:, 1])
    return PairAudit(spectrum, UA, VB, K, tail, BK, bob_norms, sync_pair, a_proj, a_ortho)


def verify_certification(
    strategy: Strategy, S: GramMatrix, bell_report: BellReport, F: np.ndarray,
    audit: PairAudit, tol: float = 1e-9,
) -> CertificationReport:
    """Audit every optimality relation of a strategy against S.

    ``bell_report`` is ``bell.bell_value(strategy, S)``, F the first part of
    what ``bell.pair_fold_reader`` returned from a walk and ``audit`` what
    ``certification_reader`` returned from the same walk.  Checks the two
    state relations, the compressed-measurement algebra relations on both
    sides, the dual operators C_j (state relation plus algebra relations),
    and the povm-block identity A^povm_j = (1/d) C_j on the compressed space.
    For strategies below the quantum value the report is advisory.

    A state relation Z rho = 0 is measured on the rank factor K = V_r diag(L_r)
    of rho = V diag(L) V* (r = 1 for a pure state): ||Z rho||_F^2 is
    ||Z K||_F^2 plus at most ||Z||_F^2 sum L_dropped^2 for the eigenvalues
    below ``RANK_CUTOFF``, and both are reported, so no residual reads below
    its full-rho value.  Pair terms run in blocks of pairs.
    """
    d = S.d
    dims = strategy.dims
    bob, povm = strategy.bob, strategy.alice_povm
    value = bell_report.value
    UA, VB, K, tail = audit.UA, audit.VB, audit.K, audit.tail

    # (E_j (x) I) rho = (I (x) B_j)(E_j (x) I) rho: Z = E_j (x) (I - B_j)
    E_K = apply_local(povm, K, dims, "A")
    sync_povm = _residuals(E_K - apply_local(bob, E_K, dims, "B"),
                           frobenius_each(povm) * frobenius_each(np.eye(dims.dB) - bob), tail)

    C = dual_alice_operators(strategy, S, F)
    C_hat = compress(C, UA)
    # Z = C_j (x) I - I (x) B_j, Bob's side read from the audit
    c_sync = _residuals(apply_local(C, K, dims, "A") - audit.BK,
                        np.sqrt(dims.dB) * frobenius_each(C) + audit.bob_norms, tail)

    def pairs(at):
        j, k = bell.pair_indices(strategy.n_outcomes)
        return int(j[at]) + 1, int(k[at]) + 1

    def outcomes(at):
        return at + 1

    def worst(name, values, label):  # every family has at least d^2 >= 4 members
        at = int(np.argmax(values))  # a maximum of exactly 0 names no offender
        return check(name, values[at], tol, d, label(at) if values[at] != 0 else None)

    def relations(name, X):
        found = check_as_relations(X, S)
        return check(name, found.measured, tol, d, found.worst)

    return CertificationReport(d=d, bell_value=value, checks=Checks([
        check("bell value", abs(value - d * d), tol, d),
        worst("sync pair", audit.sync_pair, pairs),
        worst("sync povm", sync_povm, outcomes),
        relations("b relations", compress(bob, VB)),
        worst("a projectivity", audit.a_proj, pairs),
        worst("a orthogonality", audit.a_ortho, pairs),
        worst("c sync", c_sync, outcomes),
        relations("c relations", C_hat),
        worst("povm c", frobenius_each(compress(povm, UA) - C_hat / d), outcomes),
    ]))


@dataclass(frozen=True)
class CertifyRun:
    """What ``certify`` found: the input validation and, for a valid input, the
    Bell value, the SOS residuals, the optimality relations, the entropy, the
    six top-level ``checks`` and the seconds of each stage (None when refused)."""

    d: int
    validation: Checks
    bell: BellReport | None = None
    sos: SosReport | None = None
    certification: CertificationReport | None = None
    randomness: RandomnessReport | None = None
    checks: Checks | None = None
    seconds: dict[str, float] | None = None

    @property
    def optimal(self) -> bool:
        """A valid input whose reference strategy attains d^2 within its threshold."""
        return self.certification is not None and self.certification.optimal

    def to_json(self) -> dict:
        """The body of ``certify_report.json``."""
        if self.checks is None:
            return {"inputValidation": self.validation.to_json(), "passed": False}
        reports = ("bell", "sos", "certification", "randomness")
        return {"d": self.d, **{name: getattr(self, name).to_json() for name in reports},
                **self.checks.to_json()}


def check_certify_size(d: int) -> None:
    """Refuse with a ValueError a d whose arrays of d^4 entries, held at once,
    would take more than MAX_CERTIFY_BYTES together: Theta_d, W_d, rho, Bob's
    contracted states ``bob_t`` and the audit's BK (complex, BK for a pure
    state) and Theta's real cross-term sum R."""
    size = (5 * np.dtype(complex).itemsize + np.dtype(float).itemsize) * d**4
    if size > MAX_CERTIFY_BYTES:
        raise ValueError(
            f"certify at d={d} needs about {size / 2**30:.3g} GiB for its d^4-sized arrays, "
            f"above the cap of {MAX_CERTIFY_BYTES / 2**30:.3g} GiB")


def certify(povm: bic.BicPovm, tol: float = 1e-9) -> CertifyRun:
    """The certification run: ``povm`` validated at the "input" threshold and, if
    it passes, the reference strategy, one ``bell.walk``, the SOS certificate,
    the optimality relations and the entropy, each stage timed; a d that
    ``check_certify_size`` refuses is refused before anything is allocated."""
    d = povm.d
    check_certify_size(d)
    S = bic.gram(povm)  # the one Gram matrix of the run
    validation = bic.validate_bic(povm, tol=threshold("input", tol), S=S)
    if not validation.passed:
        return CertifyRun(d, validation)
    seconds = {}

    def stage(name, fn, *fn_args):
        start = time.perf_counter()
        result = fn(*fn_args)
        seconds[name] = time.perf_counter() - start
        return result

    ref = stage("reference", bell.reference_strategy, povm, S)
    # one pass over the pairs for the Bell value, the fold that W_d and the dual
    # operators C_j take, Theta_d and the pair relations of the audit
    value, fold, theta, audit = stage(
        "walk", bell.walk, ref, S, bell.bell_value_reader(ref, S), bell.pair_fold_reader(ref, S),
        bell.sos_theta_reader(ref, S), certification_reader(ref, S))
    sos = stage("sos", bell.sos_certificate, ref, S, fold, theta)
    del theta  # a (d^2 x d^2) matrix the later stages do not read
    cert = stage("certification", verify_certification, ref, S, value, fold[0], audit, tol)
    rand = stage("randomness", randomness.randomness_report, ref, S, value, audit.spectrum, tol)
    checks = Checks([
        cert.checks["bell value"],
        check("sos identity", sos.identity_residual, tol, d, sos.identity_worst),
        check("sos positivity", sos.theta_min_eigenvalue, tol, d),  # an eigenvector: no entry
        check("sos theta.rho", sos.theta_rho_residual, tol, d, sos.theta_rho_worst),
        cert.relations,
        check("entropy", abs(rand.conditional_entropy_bits - 2 * np.log2(d)), tol, d),
    ])
    return CertifyRun(d, validation, value, sos, cert, rand, checks, seconds)
