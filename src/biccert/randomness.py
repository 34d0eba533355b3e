"""Randomness of the povm-setting outcome against a purifying eavesdropper.

The classical-quantum state pairs Alice's outcome register with the
conditional states an eavesdropper holding the purification would see; its
conditional von Neumann entropy H(A|E) = H(AE) - H(E) lower-bounds the
asymptotic extractable private randomness.  For strategies attaining the
quantum value the state factorizes and the entropy is exactly 2 log2(d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BellReport, Strategy
from .bic import GramMatrix
from .linalg import Check, check, dagger, frobenius, purify

EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class CqState:
    """Blocks sigma_j of the classical-quantum state sum_j |j><j| (x) sigma_j."""

    num_outcomes: int
    eve_dim: int
    blocks: np.ndarray  # (num_outcomes, eve_dim, eve_dim), subnormalized

    def outcome_distribution(self) -> np.ndarray:
        return np.einsum("jaa->j", self.blocks).real

    def eve_state(self) -> np.ndarray:
        return self.blocks.sum(axis=0)


@dataclass(frozen=True)
class RandomnessReport:
    bell_value: float
    gap_to_quantum_max: float
    conditional_entropy_bits: float
    conditional_entropy_nats: float
    outcome_distribution: np.ndarray
    uniformity_deviation: float
    certified: Check  # the Bell value against its "bell value" threshold

    def to_json(self) -> dict:
        return {
            "bellValue": self.bell_value,
            "gap": self.gap_to_quantum_max,
            "entropyBits": self.conditional_entropy_bits,
            "entropyNats": self.conditional_entropy_nats,
            "distribution": [float(p) for p in self.outcome_distribution],
            "uniformityDeviation": self.uniformity_deviation,
            "certified": self.certified.to_json(),
        }


def cq_state(strategy: Strategy, psi: np.ndarray) -> CqState:
    """Blocks sigma_j = tr_AB[ |psi><psi| (A^povm_j (x) I_B (x) I_E) ].

    ``psi`` must be a purification of the strategy's state, with the
    environment as the trailing tensor factor.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dA, dB = strategy.dims.dA, strategy.dims.dB
    n_ab = dA * dB
    if psi.size % n_ab != 0:
        raise ValueError("purification length is not a multiple of dA*dB")
    d_e = psi.size // n_ab
    M = psi.reshape(n_ab, d_e)
    marginal = M @ dagger(M)
    if frobenius(marginal - strategy.rho) > 1e-9 * max(1.0, frobenius(strategy.rho)):
        raise ValueError("psi does not purify the strategy state")
    tensor = psi.reshape(dA, dB, d_e)
    # the order optimize=True picks, without its search on every call: psi with
    # its conjugate first, or with the povm first for a full-rank state
    path = ["einsum_path", (0, 1) if d_e == n_ab else (0, 2), (0, 1)]
    blocks = np.einsum(
        "abe,jpa,pbf->jef", tensor, strategy.alice_povm, tensor.conj(), optimize=path
    )
    return CqState(
        num_outcomes=strategy.alice_povm.shape[0], eve_dim=d_e, blocks=blocks
    )


def _spectrum_entropy(lam: np.ndarray) -> float:
    """-sum lambda log2(lambda) over the eigenvalues above EIGENVALUE_FLOOR."""
    lam = lam[lam > EIGENVALUE_FLOOR]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log(lam)).sum() / np.log(2.0))


def conditional_entropy(cq: CqState) -> float:
    """H(A|E) = H(AE) - H(E) in bits of the block-diagonal classical-quantum state."""
    blocks, eve = cq.blocks, cq.eve_state()
    joint = np.linalg.eigvalsh((blocks + dagger(blocks)) / 2).reshape(-1)
    eve = np.linalg.eigvalsh((eve + dagger(eve)) / 2)
    return _spectrum_entropy(joint) - _spectrum_entropy(eve)


def randomness_report(strategy: Strategy, S: GramMatrix, bell_report: BellReport, spectrum,
                      tol: float = 1e-9) -> RandomnessReport:
    """The Bell value ``bell_report = bell.bell_value(strategy, S)``, the
    conditional entropy under the canonical purification built from
    ``spectrum``, rho's ``linalg.eigh``, and the outcome distribution of the
    povm setting.

    ``certified`` checks the optimality hypothesis, the Bell value within its
    table threshold; below the quantum value the entropy is descriptive only,
    not a device-independent bound.
    """
    psi = purify(strategy.rho, spectrum=spectrum)
    cq = cq_state(strategy, psi)
    bits = conditional_entropy(cq)
    nats = bits * np.log(2.0)
    dist = cq.outcome_distribution()
    deviation = float(np.abs(dist - 1.0 / strategy.n_outcomes).max())
    return RandomnessReport(
        bell_value=bell_report.value,
        gap_to_quantum_max=bell_report.gap,
        conditional_entropy_bits=float(bits),
        conditional_entropy_nats=float(nats),
        outcome_distribution=dist,
        uniformity_deviation=deviation,
        certified=check("bell value", abs(bell_report.gap), tol, S.d),
    )
