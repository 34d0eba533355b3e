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
from .linalg import Check, check, dagger, frobenius_each, purify

EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class CqState:
    """Blocks sigma_j of the classical-quantum state sum_j |j><j| (x) sigma_j,
    with the leading axes of a stack of strategies when ``cq_state`` had one."""

    num_outcomes: int
    eve_dim: int
    blocks: np.ndarray  # (..., num_outcomes, eve_dim, eve_dim), subnormalized

    def outcome_distribution(self) -> np.ndarray:
        return np.einsum("...jaa->...j", self.blocks).real

    def eve_state(self) -> np.ndarray:
        return self.blocks.sum(axis=-3)


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
    """Blocks sigma_j = tr_AB[ |psi><psi| (A^povm_j (x) I_B (x) I_E) ], or for a
    stack of strategies the blocks of each member, (..., j, e, f).

    ``psi`` must be a purification of the strategy's state, with the
    environment as the trailing tensor factor; for a stack, one purification
    per member along the stack's leading axes, as ``purify`` gives them.
    """
    stack, dA, dB = strategy.stack, strategy.dims.dA, strategy.dims.dB
    n_ab = dA * dB
    psi = np.asarray(psi, dtype=complex).reshape(stack + (-1,))
    if psi.shape[-1] % n_ab != 0:
        raise ValueError("purification length is not a multiple of dA*dB")
    d_e = psi.shape[-1] // n_ab
    M = psi.reshape(stack + (n_ab, d_e))
    residual = frobenius_each(M @ dagger(M) - strategy.rho)
    if np.any(residual > 1e-9 * np.maximum(1.0, frobenius_each(strategy.rho))):
        raise ValueError("psi does not purify the strategy state")
    tensor = psi.reshape(stack + (dA, dB, d_e))
    # the order optimize=True picks, without its search on every call: psi with
    # its conjugate first, or with the povm first for a full-rank state; einsum
    # runs a stack as batched products of the single call's shapes
    path = ["einsum_path", (0, 1) if d_e == n_ab else (0, 2), (0, 1)]
    blocks = np.einsum("...abe,...jpa,...pbf->...jef", tensor, strategy.alice_povm,
                       tensor.conj(), optimize=path)
    return CqState(
        num_outcomes=strategy.alice_povm.shape[-3], eve_dim=d_e, blocks=blocks
    )


def _spectrum_entropy(lam: np.ndarray) -> np.ndarray:
    """-sum lambda log2(lambda) along the last axis over the eigenvalues above
    EIGENVALUE_FLOOR; each of the others adds an exact 0 (1 log 1)."""
    lam = np.where(lam > EIGENVALUE_FLOOR, lam, 1.0)
    return -(lam * np.log(lam)).sum(axis=-1) / np.log(2.0)


def conditional_entropy(cq: CqState) -> float | np.ndarray:
    """H(A|E) = H(AE) - H(E) in bits of the block-diagonal classical-quantum
    state: a float, or an array over the leading axes of a stack of states."""
    blocks, eve = cq.blocks, cq.eve_state()
    joint = np.linalg.eigvalsh((blocks + dagger(blocks)) / 2)
    eve = np.linalg.eigvalsh((eve + dagger(eve)) / 2)
    bits = _spectrum_entropy(joint.reshape(joint.shape[:-2] + (-1,))) - _spectrum_entropy(eve)
    return float(bits) if bits.ndim == 0 else bits


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
