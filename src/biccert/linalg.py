"""Dense complex linear algebra, the JSON body checks and the check record
shared by every module.

Operators and states are plain complex ``numpy`` arrays; vectors are
one-dimensional arrays.  All tolerances are relative to ``max(1, ||.||_F)``
unless a function says otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import eq, ge, gt, le, lt
from types import MappingProxyType

import numpy as np

DEFAULT_TOL = 1e-9
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions of a bipartite system."""

    dA: int
    dB: int

    def __post_init__(self):
        if self.dA < 1 or self.dB < 1:
            raise ValueError("local dimensions must be positive")

    @property
    def total(self) -> int:
        return self.dA * self.dB


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return M.conj().swapaxes(-1, -2)


def frobenius(M: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(M))


def frobenius_each(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, m): the sum of squares
    over a real view, without the conjugate and product copies of
    ``np.linalg.norm``, and without copying a stack strided in its leading axes."""
    M = np.asarray(M)
    if np.iscomplexobj(M):
        M = (M if M.strides[-1] == M.itemsize else M.copy()).view(M.real.dtype)
    return np.sqrt(np.einsum("...ij,...ij->...", M, M))


def is_hermitian(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff M is square, or a stack of square matrices, and each has
    ||M - M*||_F <= tol * max(1, ||M||_F) (never with NaN or infinite entries,
    refused before any arithmetic on them)."""
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or not np.isfinite(M).all():
        return False
    return bool(np.all(frobenius_each(M - dagger(M)) <= tol * np.maximum(1.0, frobenius_each(M))))


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B of two matrices; leading axes broadcast."""
    A, B = np.asarray(A), np.asarray(B)
    (a, a2), (b, b2) = A.shape[-2:], B.shape[-2:]
    P = A[..., :, None, :, None] * B[..., None, :, None, :]
    return P.reshape(P.shape[:-4] + (a * b, a2 * b2))


def kron_sum(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """sum_i X_i (x) Y_i for stacks X (..., m, a, a') and Y (..., m, b, b'): one
    (a a' x m) @ (m x b b') product per leading index, permuted to
    (a b) x (a' b'); leading axes broadcast."""
    (m, a, a2), (b, b2) = X.shape[-3:], Y.shape[-2:]
    T = X.reshape(X.shape[:-3] + (m, -1)).swapaxes(-1, -2) @ Y.reshape(Y.shape[:-3] + (m, -1))
    T = T.reshape(T.shape[:-2] + (a, a2, b, b2)).swapaxes(-3, -2)
    return T.reshape(T.shape[:-4] + (a * b, a2 * b2))


def partial_trace(M: np.ndarray, dims: BipartiteDims, side: str) -> np.ndarray:
    """Trace out subsystem ``side`` ("A" or "B") of a bipartite operator.

    ``partial_trace(M, dims, "B")`` returns tr_B(M) acting on A, and
    conversely for ``side="A"``.
    """
    M = np.asarray(M, dtype=complex)
    n = dims.total
    if M.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims {dims}, got {M.shape}")
    T = M.reshape(dims.dA, dims.dB, dims.dA, dims.dB)
    if side == "B":
        return np.einsum("abcb->ac", T)
    if side == "A":
        return np.einsum("abad->bd", T)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def apply_local(X: np.ndarray, M: np.ndarray, dims: BipartiteDims, side: str) -> np.ndarray:
    """(X (x) I_B) M for ``side="A"``, (I_A (x) X) M for ``side="B"``, where M
    has dA*dB rows; computed by reshaping, without the Kronecker product.
    Leading axes of X (..., local, local) and M (..., dA*dB, cols) broadcast;
    a single M takes one GEMM for the whole stack X."""
    X, M = np.asarray(X), np.asarray(M)
    local = {"A": dims.dA, "B": dims.dB}.get(side)
    if local is None:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if X.shape[-2:] != (local, local) or X.ndim < 2 or M.ndim < 2 or M.shape[-2] != dims.total:
        raise ValueError(f"shapes {X.shape} and {M.shape} do not fit {dims} on side {side}")
    if M.ndim == 2:
        lead, cols = X.shape[:-2], M.shape[1]
        if side == "A":  # rows (x_i, a) of [X_1; ...; X_L] times M as (a, (b, col))
            return (X.reshape(-1, local) @ M.reshape(local, -1)).reshape(lead + M.shape)
        # B's axis first, M as (b, (a, col)), then back to (i, a, b, col)
        M_b = M.reshape(dims.dA, local, cols).swapaxes(0, 1).reshape(local, -1)
        out = (X.reshape(-1, local) @ M_b).reshape(-1, local, dims.dA, cols).swapaxes(1, 2)
        return out.reshape(lead + M.shape)
    rows = (dims.dA, -1) if side == "A" else (dims.dA, dims.dB, -1)
    out = (X if side == "A" else X[..., None, :, :]) @ M.reshape(M.shape[:-2] + rows)
    return out.reshape(out.shape[:-len(rows)] + M.shape[-2:])


def eigh(H: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix, or of each matrix of a stack.

    Returns ``(w, U)`` with eigenvalues ``w`` ascending and unitary ``U``
    such that ``H = U diag(w) U*``.
    """
    H = np.asarray(H, dtype=complex)
    if not is_hermitian(H, tol):
        raise ValueError(f"eigh input is not hermitian within tolerance {tol}")
    return np.linalg.eigh((H + dagger(H)) / 2)


def is_state(rho: np.ndarray, tol: float = DEFAULT_TOL, eigenvalues=None) -> bool:
    """True iff rho, or each matrix of a stack, is PSD with unit trace, within
    tol; the PSD verdict reads ``eigenvalues``, rho's ascending ones from
    ``eigh``, when given."""
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho, tol):
        return False
    scale = tol * np.maximum(1.0, frobenius_each(rho))
    if np.any(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0) > scale):
        return False
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
    return bool(np.all(eigenvalues[..., 0] >= -scale))


def purify(rho: np.ndarray, tol: float = DEFAULT_TOL, spectrum=None) -> np.ndarray:
    """Canonical purification of a state, or of each state of a stack (..., n, n).

    Returns a vector in H (x) H_E with dim E = rank(rho) (eigenvalues above
    the 1e-12 cutoff), built from the eigendecomposition ``spectrum = eigh(rho)``,
    computed here when not given, whose eigenvectors may be cut to the last
    columns, at least those of the eigenvalues above the cutoff; tracing out
    the trailing E factor recovers
    rho.  A stack gives one vector per state, (..., n * dim E), with dim E the
    largest rank of the stack: a state of lower rank gets a zero environment
    column for each dropped eigenvalue, which adds nothing to its marginal.
    Each state is checked as ``is_state`` does, with the PSD verdict read from
    that same eigendecomposition.
    """
    rho = np.asarray(rho, dtype=complex)
    if spectrum is None and is_hermitian(rho, tol):
        spectrum = np.linalg.eigh((rho + dagger(rho)) / 2)
    if spectrum is None or not is_state(rho, tol, spectrum[0]):
        raise ValueError("purify input is not a quantum state")
    w, U = spectrum
    keep = w > RANK_CUTOFF  # the top of each ascending spectrum
    n, rank = w.shape[-1], int(keep.sum(axis=-1).max())
    # sum_i sqrt(lam_i) u_i (x) e_i, i.e. the matrix U_keep sqrt(lam) read row by row;
    # a dropped eigenvalue, perhaps a tiny negative one, enters as an exact 0
    root = np.sqrt(np.where(keep, w, 0.0)[..., n - rank:])
    return (U[..., U.shape[-1] - rank:] * root[..., None, :]).reshape(rho.shape[:-2] + (-1,))


def maximally_entangled(d: int) -> np.ndarray:
    """The state (1/sqrt(d)) sum_k |kk> as a vector in C^{d^2}."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def random_hermitian(n: int, rng: np.random.Generator, lead: tuple[int, ...] = ()) -> np.ndarray:
    """Hermitian n x n matrix with Gaussian entries, or a stack ``lead + (n, n)``
    of them equal to as many single draws in row-major order."""
    z = rng.standard_normal(lead + (2, n, n))
    G = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    return (G + dagger(G)) / 2


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of the graph with an edge wherever adjacency[v, u]
    or adjacency[u, v] holds; each sorted, ordered by their least vertex."""
    linked = adjacency | adjacency.T
    seen = np.zeros(linked.shape[0], dtype=bool)
    comps = []
    for start in range(linked.shape[0]):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in np.flatnonzero(linked[v] & ~seen):
                seen[u] = True
                stack.append(int(u))
        comps.append(sorted(comp))
    return comps


def json_checked(value, kind: str, name: str):
    """``value`` of a JSON body if it is of ``kind`` ("object", "int" but not
    bool, or "numbers": returned as a finite float array), else ValueError."""
    if kind == "numbers":
        try:
            array = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must hold numbers only") from None
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{name} has non-finite entries") from None
        if not np.isfinite(array).all():
            raise ValueError(f"{name} has non-finite entries")
        return array
    if isinstance(value, bool) or not isinstance(value, {"object": dict, "int": int}[kind]):
        raise ValueError(f"{name} must be a JSON {kind}, got {type(value).__name__}")
    return value


def dump_json(obj: dict, path) -> None:
    """Write JSON with a stable layout so round trips are bit-identical."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests too deeply to decode") from None


# ---------------------------------------------------------------------------
# Checks: every pass/fail verdict is a ``Check``; the thresholds that depend
# only on the tolerance ``tol`` and the dimension ``d`` live in THRESHOLDS.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """``measured`` held to ``threshold``; ``worst`` names the worst offender
    (1-based outcome indices, as in every output) when there is one."""

    name: str
    measured: float
    threshold: float
    passed: bool
    worst: object = None

    def to_json(self) -> dict:
        worst = list(self.worst) if isinstance(self.worst, tuple) else self.worst
        return {"measured": self.measured, "threshold": self.threshold,
                "passed": self.passed, "worst": worst}


class Checks(dict):
    """Checks by name; passes when every check passes."""

    def __init__(self, checks=()):
        super().__init__((c.name, c) for c in checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.values())

    def failures(self) -> list[str]:
        return [name for name, c in self.items() if not c.passed]

    def failing(self) -> str:
        """One line naming each failing check, its measured value, threshold
        and worst offender."""
        return "; ".join(
            f"{c.name} {c.measured:.3e} (threshold {c.threshold:.3e}"
            + ("" if c.worst is None else f", worst {c.worst}") + ")"
            for c in self.values() if not c.passed
        )

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": {name: c.to_json() for name, c in self.items()}}


_TOL, _MINUS_TOL = (lambda tol, d: tol, le), (lambda tol, d: -tol, ge)
_TOL_D, _TOL_D2 = (lambda tol, d: tol * d, le), (lambda tol, d: tol * d * d, le)
_ONE = (lambda tol, d: 1, eq)

# Check name -> (threshold as a function of (tol, d), the comparison
# ``op(measured, threshold)`` that passes); read-only.
THRESHOLDS = MappingProxyType({
    # input validation (bic, bell)
    "unit_norms": (lambda tol, d: 1e-10, le),
    **dict.fromkeys(("sum_to_d_identity", "column_sums", "povm_sums_to_identity"), _TOL_D),
    **dict.fromkeys(("symmetric", "unit_diagonal", "normalized", "no_signaling_alice",
                     "no_signaling_bob"), _TOL),
    **dict.fromkeys(("offdiagonal_nonnegative", "nonnegative", "pair_effects_psd",
                     "pair_effects_capped", "povm_psd", "bob_psd", "bob_capped"), _MINUS_TOL),
    "offdiagonal_below_one": (lambda tol, d: 1.0 - tol, lt),
    "connected": _ONE,  # number of components
    # the tolerance every command validates its input or constructed POVM at:
    # no tighter than DEFAULT_TOL, so that rounding never reads as invalid input
    "input": (lambda tol, d: max(tol, DEFAULT_TOL), le),
    # certify (cli, algebra, randomness)
    **dict.fromkeys(("bell value", "sos identity", "sos theta.rho",
                     "certification relations"), _TOL_D2),
    **dict.fromkeys(("sos positivity", "min eig Theta"), (lambda tol, d: -10 * tol, ge)),
    "entropy": _TOL,
    # reproduction criteria, stated at tol = 1e-9
    **dict.fromkeys(("max |value - d^2|", "max residual / d^2", "deviations", "deviation",
                     "max residual", "max state residual"), _TOL),
    **dict.fromkeys(("max value - d^2", "max trace deviation"), (lambda tol, d: 10 * tol, le)),
    "max gap": (lambda tol, d: 3.0 - 2.0 * math.sqrt(2.0) + tol, le),
    **dict.fromkeys(("max lattice overlap", "max relation residual"),
                    (lambda tol, d: 0.1 * tol, le)),
    "min valid overlap": (lambda tol, d: 0.1 * tol, gt),
    "product span": (lambda tol, d: 25, eq),
    **dict.fromkeys(("dims divisible", "conjugation invariant", "single block"), _ONE),
    "mixed E vs F^t residual": (lambda tol, d: 1e-2, gt),
})

# Checks held to the threshold of another name in THRESHOLDS; read-only
SHARED = MappingProxyType({
    **dict.fromkeys(("SIC deviation", "oracle deviation", "grid deviation"), "deviations"),
    **dict.fromkeys(("max column-sum deviation", "max triangle-sum deviation",
                     "max |H - 2 log2 d|", "intro example |H|", "max H - log2(d^2)"),
                    "deviation"),
    **dict.fromkeys(("sync pair", "sync povm", "b relations", "a projectivity",
                     "a orthogonality", "c sync", "c relations", "povm c"),
                    "certification relations"),
})


def threshold(name: str, tol: float, d: int = 0) -> float:
    """The table threshold of check ``name`` at (tol, d)."""
    return THRESHOLDS[SHARED.get(name, name)][0](tol, d)


def held(name: str, measured, limit, op=le, worst=None) -> Check:
    """``measured`` held to ``limit``: passes when ``op(measured, limit)``."""
    return Check(name, float(measured), float(limit), bool(op(measured, limit)), worst)


def check(name: str, measured, tol: float, d: int = 0, worst=None) -> Check:
    """``measured`` held to the table threshold of ``name`` at (tol, d)."""
    return held(name, measured, threshold(name, tol, d),
                THRESHOLDS[SHARED.get(name, name)][1], worst)
