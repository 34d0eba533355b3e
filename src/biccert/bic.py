"""Balanced informationally complete POVMs.

A BIC-POVM on C^d is a d^2-outcome POVM (1/d) P_j whose rank-one projections
P_j = |e_j><e_j| form a basis of the d x d matrices and sum to d*I.  Two
constructions are provided: the shift-and-phase covariant orbit of a fiducial
vector, and a generic seeded construction that works in every dimension.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import gt

import numpy as np

from .linalg import (
    DEFAULT_TOL, Check, Checks, check, components, dagger, frobenius, held, is_hermitian,
    json_checked,
)

_GENERIC_ATTEMPTS = 32  # draws of construct_generic_bic before it gives up
_MAX_ENTRY = 1e50  # valid entries are at most about 1; POVM entries above ~1e77 overflow


@dataclass(frozen=True)
class BicPovm:
    """Dimension d plus the d^2 unit vectors whose projections define the POVM."""

    d: int
    vectors: np.ndarray  # shape (d^2, d), row j is e_j

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        v = np.asarray(self.vectors, dtype=complex)
        if v.shape != (self.d * self.d, self.d):
            raise ValueError(f"expected {self.d * self.d} vectors in C^{self.d}")
        object.__setattr__(self, "vectors", v)

    def projections(self) -> np.ndarray:
        """Stack of the rank-one projections P_j, shape (d^2, d, d)."""
        return np.einsum("ja,jb->jab", self.vectors, self.vectors.conj())


@dataclass(frozen=True)
class GramMatrix:
    """The d^2 x d^2 real matrix with entries s_jk = tr(P_j P_k), or a stack
    of M such matrices of one d along a leading member axis, shape (M, d^2,
    d^2), as ``GramMatrix.stack`` builds it; only
    ``classical.classical_value`` reads stacks."""

    d: int
    s: np.ndarray

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        s = np.asarray(self.s, dtype=float)
        n = self.d * self.d
        if s.shape[-2:] != (n, n) or s.ndim not in (2, 3):
            raise ValueError(f"expected a {n}x{n} matrix or a stack of them")
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.d * self.d

    @classmethod
    def stack(cls, grams) -> GramMatrix:
        """The single Gram matrices ``grams``, all of one d, as one stack."""
        grams = tuple(grams)
        if not grams:
            raise ValueError("a stack needs at least one Gram matrix")
        d = grams[0].d
        for i, member in enumerate(grams):
            if member.d != d or member.s.ndim != 2:
                raise ValueError(f"stack member {i} is not a single d={d} Gram matrix "
                                 f"(d={member.d}, shape {member.s.shape})")
        return cls(d, np.stack([member.s for member in grams]))


def _weyl_phases(d: int) -> np.ndarray:
    """The phases w^{jq} with w = e^{2 pi i/d}, indexed [q, j]."""
    j = np.arange(d)
    return np.exp(2j * np.pi / d) ** np.outer(j, j)


def _weyl_stack(d: int) -> np.ndarray:
    """Every U_{p,q}, ordered by (p,q) lexicographic, shape (d^2, d, d)."""
    j = np.arange(d)
    p = j[:, None, None]
    W = np.zeros((d, d, d, d), dtype=complex)
    W[p, j[:, None], (j + p) % d, j] = _weyl_phases(d)
    return W.reshape(d * d, d, d)


def weyl_overlaps(d: int, psi: np.ndarray) -> np.ndarray:
    """All inner products <psi|U_{p,q}|psi>, indexed [p, q]."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != d:
        raise ValueError("fiducial length does not match d")
    j = np.arange(d)
    shifted = psi[(j + j[:, None]) % d].conj() * psi  # [p, j]
    return (_weyl_phases(d) * shifted[:, None, :]).sum(axis=-1)


def geometric_fiducial(d: int, r: float, t: float) -> np.ndarray:
    """Normalized sum_k alpha^k |k> with alpha = r e^{2 pi i t}.

    Requires r in (0, 1/2) and a finite t; for even d, t must stay off the
    lattice (1/(2d)) Z, where the orbit fails to be informationally complete.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not (0.0 < r < 0.5):
        raise ValueError(f"r must lie in (0, 1/2), got {r}")
    if not np.isfinite(t):
        raise ValueError(f"t must be a finite number, got {t}")
    if d % 2 == 0:
        lattice = round(2 * d * t) / (2 * d)
        if abs(t - lattice) <= 1e-12:
            raise ValueError(
                f"t={t} lies on the lattice (1/(2d))Z for even d={d}; "
                "the covariant orbit of this fiducial is not informationally complete"
            )
    alpha = r * np.exp(2j * np.pi * t)
    psi = alpha ** np.arange(d)
    return psi / np.linalg.norm(psi)


def construct_weyl_bic(d: int, psi: np.ndarray) -> BicPovm:
    """Covariant BIC-POVM with vectors U_{p,q}|psi>, ordered by (p,q) lexicographic.

    Raises if any orbit overlap <psi|U_{p,q}|psi> vanishes (informational
    completeness failure), naming the offending (p, q) pairs.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != d:
        raise ValueError("fiducial length does not match d")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("fiducial vector must be normalized")
    overlaps = weyl_overlaps(d, psi)
    bad = [(p, q) for p in range(d) for q in range(d) if abs(overlaps[p, q]) < 1e-10]
    if bad:
        raise ValueError(
            "fiducial fails informational completeness: vanishing overlap at "
            + ", ".join(str(pq) for pq in bad)
        )
    return BicPovm(d=d, vectors=_weyl_stack(d) @ psi)


def equalize_diagonal(P: np.ndarray) -> np.ndarray:
    """Unitary U such that diag(U P U*) is constant, equal to tr(P)/n.

    Uses at most n-1 exact two-index rotations; each rotation picks an index
    below the mean and one above (by more than 1e-12 * max(1, |mean|)) and
    sets the first exactly to the mean.  A rotation touches only its two rows
    and columns, so the whole costs O(n^2).
    """
    P = np.asarray(P, dtype=complex)
    n = P.shape[0]
    if not is_hermitian(P, 1e-10):
        raise ValueError("equalize_diagonal expects a hermitian matrix")
    mu = np.trace(P).real / n
    M = P.copy()
    U = np.eye(n, dtype=complex)
    diag = M.diagonal().real  # a view: follows M as the rotations update it
    band = 1e-12 * max(1.0, abs(mu))
    below, above = mu - band, mu + band
    # active indices below and above the band, ascending: a rotation retires i
    # and changes the diagonal at i and j only
    low, high = np.flatnonzero(diag < below).tolist(), np.flatnonzero(diag > above).tolist()
    while low and high:
        i, j = low.pop(0), high.pop(0)
        R = _fixing_rotation(diag[i], diag[j], M[i, j], mu)
        pair = [i, j]  # take and row stores: a fraction of fancy indexing's cost
        M[i], M[j] = R @ M.take(pair, axis=0)
        M[:, i], M[:, j] = (M.take(pair, axis=1) @ dagger(R)).T
        U[i], U[j] = R @ U.take(pair, axis=0)
        if diag[j] < below:
            bisect.insort(low, j)
        elif diag[j] > above:
            high.insert(0, j)
    return U


def _fixing_rotation(a: float, c: float, b: complex, mu: float) -> np.ndarray:
    """2x2 unitary R with (R m R*)_{00} = mu for m = [[a, b], [conj(b), c]]."""
    phi = 0.0 if b == 0 else -np.arctan2(b.imag, b.real)  # np.angle's own ufunc
    amp = np.hypot((a - c) / 2, abs(b))
    kappa = mu - (a + c) / 2
    gamma = np.arctan2((a - c) / 2, abs(b))
    base = np.arcsin(min(max(kappa / amp, -1.0), 1.0))
    turn, back = np.exp(1j * phi), np.exp(-1j * phi)
    cross = (turn * b).real
    for s in (base, np.pi - base):
        theta = (s - gamma) / 2
        ct, st = np.cos(theta), np.sin(theta)
        value = a * ct**2 + c * st**2 + 2 * ct * st * cross
        if abs(value - mu) <= 1e-9 * max(1.0, abs(mu)):
            return np.array([[ct, st * back], [-st * turn, ct]], dtype=complex)
    raise ValueError("no rotation angle found; mean outside [min, max] bracket")


def construct_generic_bic(d: int, seed: int) -> BicPovm:
    """Seeded generic BIC-POVM in any dimension d >= 2.

    Pipeline: random full-rank d^2 x d matrix -> column orthonormalization
    K1 -> rank-d projection K2 = K1 K1* -> unitary U equalizing the diagonal
    to 1/d.  Then G = d U K2 U* = A A* with A = sqrt(d) U K1, and the vectors
    are the rows of conj(A).  Retries with fresh randomness, at most
    ``_GENERIC_ATTEMPTS`` draws, until the POVM passes ``validate_bic`` and
    its Gram matrix passes ``validate_gram``, both at ``DEFAULT_TOL``.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = np.random.default_rng(seed)
    n = d * d
    for _ in range(_GENERIC_ATTEMPTS):
        K0 = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        K1, _ = np.linalg.qr(K0)
        U = equalize_diagonal(K1 @ dagger(K1))
        povm = BicPovm(d=d, vectors=(np.sqrt(d) * (U @ K1)).conj())
        S = gram(povm)
        # validate_bic's gram_invertible is validate_gram's positive_definite
        failures = Checks(_bic_axioms(povm, DEFAULT_TOL)).failures() + validate_gram(S).failures()
        if not failures:
            return povm
    raise ValueError(
        f"generic construction failed after {_GENERIC_ATTEMPTS} attempts; "
        f"the last draw failed {', '.join(failures)}"
    )


def gram(povm: BicPovm) -> GramMatrix:
    """The induced matrix S with s_jk = |<e_j|e_k>|^2."""
    overlaps = povm.vectors.conj() @ povm.vectors.T
    return GramMatrix(d=povm.d, s=np.abs(overlaps) ** 2)


def validate_bic(povm: BicPovm, tol: float = DEFAULT_TOL, S: GramMatrix | None = None) -> Checks:
    """Check the BIC axioms: unit norms, sum_j P_j = d*I, invertible Gram.
    ``S`` is the povm's ``gram``, formed here when not given."""
    S = (gram(povm) if S is None else S).s
    w = np.linalg.eigvalsh((S + S.T) / 2)
    invertible = held("gram_invertible", w[0], tol * max(1.0, w[-1]), gt)
    return Checks([*_bic_axioms(povm, tol), invertible])


def _bic_axioms(povm: BicPovm, tol: float) -> list[Check]:
    """The unit-norm and sum_j P_j = d*I checks of ``validate_bic``."""
    d = povm.d
    norm_res = np.abs(np.linalg.norm(povm.vectors, axis=1) - 1.0)
    worst_norm = int(np.argmax(norm_res))
    sum_res = frobenius(povm.projections().sum(axis=0) - d * np.eye(d))
    return [
        check("unit_norms", norm_res[worst_norm], tol, d, worst_norm + 1),
        check("sum_to_d_identity", sum_res, tol, d),
    ]


def validate_gram(gm: GramMatrix, tol: float = DEFAULT_TOL) -> Checks:
    """Check the induced-matrix laws: symmetry, unit diagonal, off-diagonal
    in [0,1), positive definiteness, column sums d, and connectivity of the
    nonzero-overlap graph."""
    S, d = gm.s, gm.d
    skew = np.abs(S - S.T)
    pair = np.unravel_index(np.argmax(skew), skew.shape)
    off = np.where(np.eye(gm.n, dtype=bool), 0.5, S)  # midpoint, never the offender
    lo, hi = (np.unravel_index(arg(off), off.shape) for arg in (np.argmin, np.argmax))
    w = np.linalg.eigvalsh((S + S.T) / 2)
    col_res = np.abs(S.sum(axis=0) - d)
    worst_col = int(np.argmax(col_res))
    adjacency = S > tol
    np.fill_diagonal(adjacency, False)
    return Checks([
        check("symmetric", skew[pair], tol, d, tuple(sorted(int(i) + 1 for i in pair))),
        check("unit_diagonal", np.max(np.abs(np.diagonal(S) - 1.0)), tol, d),
        check("offdiagonal_nonnegative", off[lo], tol, d, tuple(int(i) + 1 for i in lo)),
        check("offdiagonal_below_one", off[hi], tol, d, tuple(int(i) + 1 for i in hi)),
        held("positive_definite", w[0], tol * max(1.0, w[-1]), gt),
        check("column_sums", col_res[worst_col], tol, d, worst_col + 1),
        check("connected", len(components(adjacency)), tol, d),
    ])


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def povm_to_json(povm: BicPovm) -> dict:
    return {
        "d": povm.d,
        "vectors": [
            [[float(z.real), float(z.imag)] for z in row] for row in povm.vectors
        ],
    }


def _decode(obj, key: str) -> tuple[int, np.ndarray]:
    """The integer d and the finite float array under ``key`` of a JSON body,
    refused before any arithmetic if an entry exceeds _MAX_ENTRY in magnitude."""
    obj = json_checked(obj, "object", "body")
    d, values = json_checked(obj["d"], "int", "d"), json_checked(obj[key], "numbers", key)
    if (np.abs(values) > _MAX_ENTRY).any():
        raise ValueError(f"{key} has entries of magnitude above {_MAX_ENTRY:g}")
    return d, values


def povm_from_json(obj) -> BicPovm:
    d, v = _decode(obj, "vectors")
    if v.shape[-1:] != (2,):
        raise ValueError("vectors must hold [re, im] pairs")
    return BicPovm(d=d, vectors=v[..., 0] + 1j * v[..., 1])


def gram_to_json(gm: GramMatrix) -> dict:
    return {"d": gm.d, "s": [[float(x) for x in row] for row in gm.s]}


def gram_from_json(obj) -> GramMatrix:
    gm = GramMatrix(*_decode(obj, "s"))
    if gm.s.ndim != 2:  # a file holds one matrix
        raise ValueError(f"expected a {gm.n}x{gm.n} matrix")
    return gm
