"""Dense complex linear algebra shared by every module.

Operators and states are plain complex ``numpy`` arrays; vectors are
one-dimensional arrays.  All tolerances are relative to ``max(1, ||.||_F)``
unless a function says otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    """Conjugate transpose."""
    return M.conj().T


def frobenius(M: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(M))


def is_hermitian(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||M - M*||_F <= tol * max(1, ||M||_F)."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    return frobenius(M - dagger(M)) <= tol * max(1.0, frobenius(M))


def _require_hermitian(M: np.ndarray, tol: float, what: str) -> None:
    if not is_hermitian(M, tol):
        raise ValueError(f"{what} is not hermitian within tolerance {tol}")


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B."""
    return np.kron(np.asarray(A), np.asarray(B))


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
    has dA*dB rows; computed by reshaping, without the Kronecker product."""
    M = np.asarray(M)
    local = {"A": dims.dA, "B": dims.dB}.get(side)
    if local is None:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if np.shape(X) != (local, local) or M.ndim != 2 or M.shape[0] != dims.total:
        raise ValueError(f"shapes {np.shape(X)} and {M.shape} do not fit {dims} on side {side}")
    rows = (dims.dA, -1) if side == "A" else (dims.dA, dims.dB, -1)
    return (X @ M.reshape(rows)).reshape(M.shape)


def eigh(H: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix.

    Returns ``(w, U)`` with eigenvalues ``w`` ascending and unitary ``U``
    such that ``H = U diag(w) U*``.
    """
    H = np.asarray(H, dtype=complex)
    _require_hermitian(H, tol, "eigh input")
    w, U = np.linalg.eigh((H + dagger(H)) / 2)
    return w, U


def is_psd(H: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the minimal eigenvalue is >= -tol * max(1, ||H||_F)."""
    H = np.asarray(H, dtype=complex)
    _require_hermitian(H, tol, "is_psd input")
    w = np.linalg.eigvalsh((H + dagger(H)) / 2)
    return bool(w[0] >= -tol * max(1.0, frobenius(H)))


def is_state(rho: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff rho is PSD with unit trace, within tol."""
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho, tol):
        return False
    if abs(np.trace(rho) - 1.0) > tol * max(1.0, frobenius(rho)):
        return False
    return is_psd(rho, tol)


def purify(rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Canonical purification of a state.

    Returns a vector in H (x) H_E with dim E = rank(rho) (eigenvalues above
    the 1e-12 cutoff), built from the eigendecomposition; tracing out the
    trailing E factor recovers rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if not is_state(rho, tol):
        raise ValueError("purify input is not a quantum state")
    w, U = eigh(rho, tol)
    keep = w > RANK_CUTOFF
    lam = w[keep]
    vecs = U[:, keep]
    rank = int(lam.size)
    n = rho.shape[0]
    psi = np.zeros(n * rank, dtype=complex)
    for i in range(rank):
        env = np.zeros(rank, dtype=complex)
        env[i] = 1.0
        psi += np.sqrt(lam[i]) * np.kron(vecs[:, i], env)
    return psi


def trace_out_environment(psi: np.ndarray, system_dim: int) -> np.ndarray:
    """Reduced state on the leading factor of a pure state in H (x) H_E."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size % system_dim != 0:
        raise ValueError("vector length is not a multiple of the system dimension")
    M = psi.reshape(system_dim, -1)
    return M @ dagger(M)


def matricize(v: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Fold a vector in C^{dA} (x) C^{dB} into the dA x dB matrix with
    mat(|a>|b>) = |a><b|; an isometry between the 2-norm and Frobenius norm."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != dims.total:
        raise ValueError(f"expected length {dims.total}, got {v.size}")
    return v.reshape(dims.dA, dims.dB)


def maximally_entangled(d: int) -> np.ndarray:
    """The state (1/sqrt(d)) sum_k |kk> as a vector in C^{d^2}."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with Gaussian entries."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
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


# ---------------------------------------------------------------------------
# JSON wire format, used repo-wide:
#   {"rows": n, "cols": m, "data": [[re, im], ...]} in row-major order.
# Vectors are stored with cols = 1.
# ---------------------------------------------------------------------------

def matrix_to_json(M: np.ndarray) -> dict:
    """Encode a matrix (or vector, as a column) into the JSON wire format."""
    M = np.asarray(M, dtype=complex)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise ValueError("only vectors and matrices are serializable")
    flat = M.reshape(-1)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the JSON wire format back into a complex array."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError("data length does not match rows*cols")
    flat = np.array([complex(re, im) for re, im in data])
    M = flat.reshape(rows, cols)
    return M[:, 0] if cols == 1 else M


def dump_json(obj: dict, path) -> None:
    """Write JSON with a stable layout so round trips are bit-identical."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
