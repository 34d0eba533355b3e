"""Desk-scale reproduction suite.

Each criterion function re-derives one headline claim of the toolkit at its
pinned tolerance and returns a structured outcome; ``run_full_suite`` runs
them all.  The CLI ``report`` command and the acceptance test module both
drive this code.

Thresholds are stated for the default ``tol=1e-9`` and scale linearly with a
user-supplied tolerance, so a tighter tolerance demonstrates honest failures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra, bell, classical, randomness
from . import bic
from .linalg import BipartiteDims, frobenius, purify, random_hermitian, random_unitary

BASE_TOL = 1e-9

WEYL_PARAMETERS = ((0.3, 0.137), (0.25, 0.21), (0.45, 0.0733))
SIC3_FIDUCIAL = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)


@dataclass
class CriterionOutcome:
    cid: int
    name: str
    passed: bool
    seconds: float
    measured: dict[str, float] = field(default_factory=dict)
    thresholds: dict[str, float] = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        details = ", ".join(f"{k}={v:.3e}" for k, v in self.measured.items())
        return f"{status} criterion {self.cid}: {self.name} [{details}] ({self.seconds:.2f}s)"

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "passed": self.passed,
            "seconds": self.seconds,
            "measured": {k: float(v) for k, v in self.measured.items()},
            "thresholds": {k: float(v) for k, v in self.thresholds.items()},
        }


def _weyl_povm(d: int, r: float = 0.3, t: float = 0.137) -> bic.BicPovm:
    return bic.construct_weyl_bic(d, bic.geometric_fiducial(d, r, t))


def _reference(d: int, r: float = 0.3, t: float = 0.137):
    povm = _weyl_povm(d, r, t)
    return bell.reference_strategy(povm), bic.gram(povm)


def criterion_1_quantum_value(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """bell_value(reference_strategy) = d^2 for Weyl and generic POVMs."""
    start = time.perf_counter()
    threshold = tol
    worst = 0.0
    for d in range(2, max(5, d_max) + 1):
        povms = [ _weyl_povm(d, r, t) for r, t in WEYL_PARAMETERS ]
        povms += [bic.construct_generic_bic(d, seed + i) for i in (1, 2, 3)]
        for povm in povms:
            S = bic.gram(povm)
            ref = bell.reference_strategy(povm)
            worst = max(worst, abs(bell.bell_value(ref, S).value - d * d))
    return CriterionOutcome(
        1,
        "quantum value d^2 at the reference strategy (Weyl x3, generic x3)",
        worst <= threshold,
        time.perf_counter() - start,
        {"max |value - d^2|": worst},
        {"max |value - d^2|": threshold},
    )


def criterion_2_sos_identity(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """||W_d + Theta_d - d^2 I|| on random arbitrary hermitian tuples."""
    start = time.perf_counter()
    worst_rel = 0.0
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        S = bic.gram(_weyl_povm(d))
        n = d * d
        pairs = bell.pair_list(n)
        for _ in range(100):
            strat = bell.Strategy(
                dims=BipartiteDims(d, d),
                rho=np.eye(n, dtype=complex) / n,
                pairs=pairs,
                alice_pair_effects=np.stack(
                    [
                        [random_hermitian(d, rng), random_hermitian(d, rng)]
                        for _ in pairs
                    ]
                ),
                alice_povm=np.stack([random_hermitian(d, rng) for _ in range(n)]),
                bob=np.stack([random_hermitian(d, rng) for _ in range(n)]),
            )
            W = bell.bell_operator(strat, S)
            theta = bell.sos_theta(strat, S)
            res = frobenius(W + theta - d * d * np.eye(n)) / (d * d)
            worst_rel = max(worst_rel, res)
    return CriterionOutcome(
        2,
        "operator identity W_d + Theta_d = d^2 I on 100 arbitrary hermitian tuples",
        worst_rel <= tol,
        time.perf_counter() - start,
        {"max residual / d^2": worst_rel},
        {"max residual / d^2": tol},
    )


def criterion_3_sos_bound(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Theta_d PSD and tr(W_d rho) <= d^2 on random valid strategies."""
    start = time.perf_counter()
    threshold = 10.0 * tol  # the criterion is stated at 1e-8
    min_eig = np.inf
    max_excess = -np.inf
    for d in (2, 3):
        S = bic.gram(_weyl_povm(d))
        for i in range(100):
            strat = bell.random_strategy(BipartiteDims(d, d), d, seed + i)
            cert = bell.sos_certificate(strat, S)
            min_eig = min(min_eig, cert.theta_min_eigenvalue)
            max_excess = max(
                max_excess, bell.bell_value(strat, S).value - d * d
            )
    passed = min_eig >= -threshold and max_excess <= threshold
    return CriterionOutcome(
        3,
        "Theta_d PSD and quantum bound on 100 random valid strategies",
        bool(passed),
        time.perf_counter() - start,
        {"min eig Theta": min_eig, "max value - d^2": max_excess},
        {"min eig Theta": -threshold, "max value - d^2": threshold},
    )


def criterion_4_classical_value(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Exact d=2 classical values: SIC case, oracle, closed form, gap cap."""
    start = time.perf_counter()
    sic_target = (8.0 / 3.0) * (math.sqrt(6.0) - 1.0)
    S_sic = classical.bic_gram_d2(1.0 / 3.0, 1.0 / 3.0)
    sic_dev = abs(classical.classical_value(S_sic).best_value - sic_target)

    oracle_dev = 0.0
    gap_max = 0.0
    for i in range(20):
        povm = bic.construct_generic_bic(2, seed + 100 + i)
        S = bic.gram(povm)
        value = classical.classical_value(S).best_value
        oracle_dev = max(oracle_dev, abs(value - classical.brute_force_classical(S)))
        gap_max = max(gap_max, 4.0 - value)

    grid_dev = 0.0
    for i in range(1, 21):
        for j in range(1, 21):
            t1, t2 = i / 21.5, j / 21.5
            if t1 + t2 >= 1.0:
                continue
            enum = classical.classical_value(classical.bic_gram_d2(t1, t2)).best_value
            grid_dev = max(grid_dev, abs(classical.closed_form_d2(t1, t2) - enum))
            gap_max = max(gap_max, 4.0 - enum)

    gap_cap = 3.0 - 2.0 * math.sqrt(2.0) + tol
    worst = max(sic_dev, oracle_dev, grid_dev)
    passed = worst <= tol and gap_max <= gap_cap
    return CriterionOutcome(
        4,
        "exact d=2 classical value (SIC case, brute-force oracle, closed form, gap cap)",
        bool(passed),
        time.perf_counter() - start,
        {
            "SIC deviation": sic_dev,
            "oracle deviation": oracle_dev,
            "grid deviation": grid_dev,
            "max gap": gap_max,
        },
        {"deviations": tol, "max gap": gap_cap},
    )


def criterion_5_gram_laws(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Column sums d and upper-triangle sum (d^3-d^2)/2 for constructed POVMs."""
    start = time.perf_counter()
    col_dev = 0.0
    tri_dev = 0.0
    for d in range(2, max(6, d_max) + 1):
        for povm in (_weyl_povm(d), bic.construct_generic_bic(d, seed + 7)):
            S = bic.gram(povm).s
            col_dev = max(col_dev, float(np.abs(S.sum(axis=0) - d).max()))
            tri_dev = max(
                tri_dev, abs(float(np.triu(S, 1).sum()) - (d**3 - d**2) / 2.0)
            )
    worst = max(col_dev, tri_dev)
    return CriterionOutcome(
        5,
        "Gram laws: column sums = d, upper-triangle sum = (d^3-d^2)/2, d = 2..6",
        worst <= tol,
        time.perf_counter() - start,
        {"max column-sum deviation": col_dev, "max triangle-sum deviation": tri_dev},
        {"deviation": tol},
    )


def criterion_6_fiducial(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Lattice fiducials fail at (d/2, 1); valid fiducials have no vanishing overlap."""
    start = time.perf_counter()
    lattice_max = 0.0  # overlaps that must vanish
    for d in (2, 4, 6):
        psi = 0.3 ** np.arange(d)  # alpha real positive: t = 0 on the lattice
        psi = psi / np.linalg.norm(psi)
        overlaps = bic.weyl_overlaps(d, psi)
        lattice_max = max(lattice_max, float(abs(overlaps[d // 2, 1])))

    rng = np.random.default_rng(seed)
    valid_min = np.inf
    for d in range(2, max(8, d_max) + 1):
        count = 0
        while count < 20:
            r = rng.uniform(0.05, 0.45)
            t = rng.uniform(0.0, 1.0)
            try:
                psi = bic.geometric_fiducial(d, r, t)
            except ValueError:
                continue
            count += 1
            valid_min = min(valid_min, float(np.abs(bic.weyl_overlaps(d, psi)).min()))
    vanish_cap = 0.1 * tol  # stated at 1e-10
    passed = lattice_max <= vanish_cap and valid_min > vanish_cap
    return CriterionOutcome(
        6,
        "fiducial criterion: lattice overlap vanishes at (d/2, 1); valid overlaps do not",
        bool(passed),
        time.perf_counter() - start,
        {"max lattice overlap": lattice_max, "min valid overlap": valid_min},
        {"max lattice overlap": vanish_cap, "min valid overlap": vanish_cap},
    )


def criterion_7_certification(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """verify_certification residuals at the reference strategy, d = 2..4."""
    start = time.perf_counter()
    worst = 0.0
    for d in range(2, max(4, d_max) + 1):
        ref, S = _reference(d)
        cert = algebra.verify_certification(ref, S, tol=tol)
        if not cert.optimal:
            worst = np.inf
        worst = max(worst, cert.max_residual)
    return CriterionOutcome(
        7,
        "certification relations at the reference strategy (incl. C_j and povm blocks)",
        worst <= tol,
        time.perf_counter() - start,
        {"max residual": worst},
        {"max residual": tol},
    )


def criterion_8_entropy(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Conditional entropy 2 log2(d) at reference; 0 for the eavesdropped pair;
    Shannon cap for arbitrary strategies."""
    start = time.perf_counter()
    ref_dev = 0.0
    for d in range(2, max(4, d_max) + 1):
        ref, S = _reference(d)
        rep = randomness.randomness_report(ref, S)
        ref_dev = max(ref_dev, abs(rep.conditional_entropy_bits - 2 * math.log2(d)))

    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    eav = bell.Strategy(
        dims=BipartiteDims(2, 2),
        rho=0.5
        * (
            np.outer(np.eye(4)[0], np.eye(4)[0]) + np.outer(np.eye(4)[3], np.eye(4)[3])
        ).astype(complex),
        pairs=bell.pair_list(2),
        alice_pair_effects=np.zeros((1, 2, 2, 2), dtype=complex),
        alice_povm=basis,
        bob=basis.copy(),
    )
    intro_dev = abs(
        randomness.conditional_entropy(randomness.cq_state(eav, ghz))
    )

    cap_excess = -np.inf
    for i in range(100):
        strat = bell.random_strategy(BipartiteDims(2, 2), 2, seed + i)
        cq = randomness.cq_state(strat, purify(strat.rho))
        cap_excess = max(
            cap_excess, randomness.conditional_entropy(cq) - math.log2(4.0)
        )
    worst = max(ref_dev, intro_dev, cap_excess)
    return CriterionOutcome(
        8,
        "entropy: 2 log2(d) at reference, 0 for the eavesdropped pair, Shannon cap",
        worst <= tol,
        time.perf_counter() - start,
        {
            "max |H - 2 log2 d|": ref_dev,
            "intro example |H|": intro_dev,
            "max H - log2(d^2)": cap_excess,
        },
        {"deviation": tol},
    )


def criterion_9_counterexample(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """The six-dimensional exceptional family: relations, span 25, irreducible."""
    start = time.perf_counter()
    X = algebra.counterexample_rep()
    S = algebra.counterexample_gram()
    relations = algebra.check_as_relations(X, S, tol=0.1 * tol, variant="standard")
    span = algebra.span_dimension([Xj @ Xk for Xj in X for Xk in X])
    dec = algebra.irrep_decompose(X, seed=seed)
    passed = (
        relations.max_residual <= 0.1 * tol
        and span == 25
        and dec.shape_multiset == ((1, 6),)
    )
    return CriterionOutcome(
        9,
        "6-dimensional exceptional representation (relations, span 25, single block)",
        bool(passed),
        time.perf_counter() - start,
        {
            "max relation residual": relations.max_residual,
            "product span": float(span),
            "blocks": float(len(dec.blocks)),
        },
        {"max relation residual": 0.1 * tol, "product span": 25.0},
    )


def criterion_10_irrep_structure(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Block dimensions divisible by d and per-irrep traces d_a/d for every
    representation tested; multiset invariant under unitary conjugation."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    reps: list[tuple[int, np.ndarray]] = []
    for d in (2, 3):
        P = _weyl_povm(d).projections()
        reps.append((d, P))
        reps.append((d, np.stack([np.kron(np.eye(2), Pj) for Pj in P])))
    reps.append((2, bic.construct_generic_bic(2, seed + 5).projections()))
    X6 = algebra.counterexample_rep()
    reps.append((3, X6))
    sic3 = bic.construct_weyl_bic(3, SIC3_FIDUCIAL).projections()
    mixed = np.stack(
        [
            np.block(
                [
                    [sic3[j], np.zeros((3, 6))],
                    [np.zeros((6, 3)), X6[j]],
                ]
            )
            for j in range(9)
        ]
    )
    reps.append((3, mixed))

    trace_dev = 0.0
    divisible = True
    invariant = True
    for d, X in reps:
        dec = algebra.irrep_decompose(X, seed=seed)
        for blk in dec.blocks:
            divisible &= blk.dimension % d == 0
            for G in blk.generators:
                trace_dev = max(
                    trace_dev, abs(np.trace(G).real - blk.dimension / d)
                )
        U = random_unitary(X.shape[1], rng)
        conjugated = np.stack([U @ Xj @ U.conj().T for Xj in X])
        dec2 = algebra.irrep_decompose(conjugated, seed=seed + 1)
        invariant &= dec2.shape_multiset == dec.shape_multiset
    threshold = 10.0 * tol  # stated at 1e-8
    passed = divisible and invariant and trace_dev <= threshold
    return CriterionOutcome(
        10,
        "irrep structure: dims divisible by d, per-irrep traces d_a/d, basis covariance",
        bool(passed),
        time.perf_counter() - start,
        {
            "max trace deviation": trace_dev,
            "dims divisible": float(divisible),
            "conjugation invariant": float(invariant),
        },
        {"max trace deviation": threshold},
    )


def criterion_11_maxent(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Block-entangled decomposition: single (1,1,d) block at the reference;
    the mixed-state pair shows compressed E != compressed F transposed."""
    start = time.perf_counter()
    worst = 0.0
    single = True
    for d in (2, 3):
        ref, _ = _reference(d)
        report = algebra.maxent_decompose(
            ref.rho,
            np.stack([B.T for B in ref.bob]),
            ref.bob,
            ref.dims,
            seed=seed,
        )
        blocks = report.blocks
        single &= len(blocks) == 1 and (
            blocks[0].alice_multiplicity,
            blocks[0].bob_multiplicity,
            blocks[0].dimension,
        ) == (1, 1, d)
        worst = max(worst, report.max_state_residual)

    E1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    F1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    psi1 = np.zeros(9, dtype=complex)
    psi1[0], psi1[7] = 1 / math.sqrt(2), 1 / math.sqrt(2)  # (|00> + |21>)/sqrt(2)
    psi2 = np.zeros(9, dtype=complex)
    psi2[3], psi2[8] = 1 / math.sqrt(2), 1 / math.sqrt(2)  # (|10> + |22>)/sqrt(2)
    rho = 0.5 * (np.outer(psi1, psi1.conj()) + np.outer(psi2, psi2.conj()))
    remark = algebra.maxent_decompose(rho, [E1], [F1], BipartiteDims(3, 3), seed=seed)
    mixed_separates = remark.ef_transpose_residual > 1e-2

    passed = single and worst <= tol and mixed_separates
    return CriterionOutcome(
        11,
        "block-entangled decomposition: (1,1,d) at reference; mixed-state E/F^t split",
        bool(passed),
        time.perf_counter() - start,
        {
            "max state residual": worst,
            "mixed E vs F^t residual": remark.ef_transpose_residual,
        },
        {"max state residual": tol, "mixed E vs F^t residual (min)": 1e-2},
    )


CRITERIA = {
    1: criterion_1_quantum_value,
    2: criterion_2_sos_identity,
    3: criterion_3_sos_bound,
    4: criterion_4_classical_value,
    5: criterion_5_gram_laws,
    6: criterion_6_fiducial,
    7: criterion_7_certification,
    8: criterion_8_entropy,
    9: criterion_9_counterexample,
    10: criterion_10_irrep_structure,
    11: criterion_11_maxent,
}


def run_criterion(
    cid: int, tol: float = BASE_TOL, d_max: int = 4, seed: int = 0
) -> CriterionOutcome:
    return CRITERIA[cid](tol=tol, d_max=d_max, seed=seed)


def run_full_suite(
    tol: float = BASE_TOL, d_max: int = 4, seed: int = 0, verbose: bool = True
) -> list[CriterionOutcome]:
    outcomes = []
    for cid in sorted(CRITERIA):
        outcome = run_criterion(cid, tol=tol, d_max=d_max, seed=seed)
        outcomes.append(outcome)
        if verbose:
            print(outcome.line())
    return outcomes
