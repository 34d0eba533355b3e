"""Desk-scale reproduction suite.

Each criterion function re-derives one headline claim of the toolkit and
returns its checks; ``run_criterion`` times one criterion and passes it when
all its checks pass, and ``run_full_suite`` runs them all.  The CLI
``report`` command and the acceptance test module both drive this code.

Thresholds come from ``linalg.THRESHOLDS``: they are stated for the default
``tol=1e-9`` and scale linearly with a user-supplied tolerance, so a tighter
tolerance demonstrates honest failures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import algebra, bell, bic, classical, randomness
from .linalg import (
    SHARED, BipartiteDims, Checks, check, frobenius, purify, random_hermitian, random_unitary,
)

BASE_TOL = 1e-9

WEYL_PARAMETERS = ((0.3, 0.137), (0.25, 0.21), (0.45, 0.0733))
SIC3_FIDUCIAL = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)


# Strategies per stack in criteria 2, 3 and 8: larger stacks buy little speed and
# raise peak memory.
_STACK = 25

CRITERIA = {}  # cid -> fn(tol, d_max, seed) returning the criterion's checks
NAMES = {}
CERTIFYING = set()  # the cids whose fn also takes ``certify_runs``


def _criterion(cid: int, name: str, certifies: bool = False):
    def register(fn):
        CRITERIA[cid], NAMES[cid] = fn, name
        if certifies:
            CERTIFYING.add(cid)
        return fn
    return register


@dataclass(frozen=True)
class CriterionRun:
    """The checks of one criterion and the seconds it took."""

    cid: int
    checks: Checks
    seconds: float

    @property
    def passed(self) -> bool:
        return self.checks.passed

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        details = ", ".join(f"{c.name}={c.measured:.3e}" for c in self.checks.values())
        return f"{status} criterion {self.cid}: {NAMES[self.cid]} [{details}] ({self.seconds:.2f}s)"

    def to_json(self) -> dict:
        """The checks, plus their measured values and thresholds by name (a
        shared threshold under its shared name)."""
        return {
            "id": self.cid,
            "name": NAMES[self.cid],
            "seconds": self.seconds,
            **self.checks.to_json(),
            "measured": {c.name: c.measured for c in self.checks.values()},
            "thresholds": {SHARED.get(c.name, c.name): c.threshold
                           for c in self.checks.values()},
        }


def _weyl_povm(d: int, r: float = 0.3, t: float = 0.137) -> bic.BicPovm:
    return bic.construct_weyl_bic(d, bic.geometric_fiducial(d, r, t))


def _stacks(count: int):
    """Ranges of at most ``_STACK`` consecutive indices that cover range(count)."""
    return (range(start, min(start + _STACK, count)) for start in range(0, count, _STACK))


@_criterion(1, "quantum value d^2 at the reference strategy (Weyl x3, generic x3)")
def criterion_1_quantum_value(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """bell_value(reference_strategy) = d^2 for Weyl and generic POVMs."""
    worst, worst_d = 0.0, None
    for d in range(2, max(5, d_max) + 1):
        povms = [ _weyl_povm(d, r, t) for r, t in WEYL_PARAMETERS ]
        povms += [bic.construct_generic_bic(d, seed + i) for i in (1, 2, 3)]
        for povm in povms:
            S = bic.gram(povm)
            ref = bell.reference_strategy(povm, S)
            deviation = abs(bell.bell_value(ref, S).value - d * d)
            if deviation >= worst:
                worst, worst_d = deviation, d
    return [check("max |value - d^2|", worst, tol, worst=worst_d)]


@_criterion(2, "operator identity W_d + Theta_d = d^2 I on 100 arbitrary hermitian tuples")
def criterion_2_sos_identity(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """||W_d + Theta_d - d^2 I|| on random arbitrary hermitian tuples, drawn one
    tuple after another (pair effects, povm setting, Bob) and checked in stacks."""
    worst_rel = 0.0
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        S = bic.gram(_weyl_povm(d))
        n = d * d
        P = len(bell.pair_list(n))
        for members in _stacks(100):
            tuples = random_hermitian(d, rng, (len(members), 2 * P + 2 * n))
            strat = bell.Strategy(
                dims=BipartiteDims(d, d),
                rho=np.broadcast_to(np.eye(n, dtype=complex) / n, (len(members), n, n)),
                alice_pair_effects=tuples[:, :2 * P].reshape(len(members), P, 2, d, d),
                alice_povm=tuples[:, 2 * P:2 * P + n],
                bob=tuples[:, 2 * P + n:],
            )
            fold, theta = bell.walk(strat, bell.pair_fold_reader(strat, S),
                                    bell.sos_theta_reader(strat, S))
            residuals = bell.bell_operator(strat, S, fold) + theta - d * d * np.eye(n)
            worst_rel = max(worst_rel, *(frobenius(r) / (d * d) for r in residuals))
    return [check("max residual / d^2", worst_rel, tol)]


@_criterion(3, "Theta_d PSD and quantum bound on 100 random valid strategies")
def criterion_3_sos_bound(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Theta_d PSD and tr(W_d rho) <= d^2 on random valid strategies, in stacks;
    W_d itself is not formed (criterion 2 checks the identity)."""
    min_eig = np.inf
    max_excess = -np.inf
    for d in (2, 3):
        S = bic.gram(_weyl_povm(d))
        for members in _stacks(100):
            strat = bell.random_strategy(BipartiteDims(d, d), d, [seed + i for i in members])
            value, theta = bell.walk(strat, bell.bell_value_reader(strat, S),
                                     bell.sos_theta_reader(strat, S))
            min_eig = min(min_eig, bell.theta_min_eigenvalue(theta).min())
            max_excess = max(max_excess, (value.value - d * d).max())
    return [check("min eig Theta", min_eig, tol), check("max value - d^2", max_excess, tol)]


@_criterion(4, "exact d=2 classical value (SIC case, brute-force oracle, closed form, gap cap)")
def criterion_4_classical_value(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Exact d=2 classical values: SIC case, oracle, closed form, gap cap."""
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

    return [
        check("SIC deviation", sic_dev, tol),
        check("oracle deviation", oracle_dev, tol),
        check("grid deviation", grid_dev, tol),
        check("max gap", gap_max, tol),
    ]


@_criterion(5, "Gram laws: column sums = d, upper-triangle sum = (d^3-d^2)/2, d = 2..6")
def criterion_5_gram_laws(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Column sums d and upper-triangle sum (d^3-d^2)/2 for constructed POVMs."""
    col_dev = 0.0
    tri_dev = 0.0
    for d in range(2, max(6, d_max) + 1):
        for povm in (_weyl_povm(d), bic.construct_generic_bic(d, seed + 7)):
            S = bic.gram(povm).s
            col_dev = max(col_dev, float(np.abs(S.sum(axis=0) - d).max()))
            tri_dev = max(
                tri_dev, abs(float(np.triu(S, 1).sum()) - (d**3 - d**2) / 2.0)
            )
    return [
        check("max column-sum deviation", col_dev, tol),
        check("max triangle-sum deviation", tri_dev, tol),
    ]


@_criterion(6, "fiducial criterion: lattice overlap vanishes at (d/2, 1); valid overlaps do not")
def criterion_6_fiducial(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Lattice fiducials fail at (d/2, 1); valid fiducials have no vanishing overlap."""
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
    return [
        check("max lattice overlap", lattice_max, tol),
        check("min valid overlap", valid_min, tol),
    ]


def _certify_runs(tol: float, d_max: int, runs: dict | None):
    """(d, ``algebra.certify`` run of the default Weyl POVM) for d = 2..max(4, d_max):
    read from ``runs`` (d -> run) where it holds d, else certified here and
    stored in it."""
    runs = {} if runs is None else runs
    for d in range(2, max(4, d_max) + 1):
        if d not in runs:
            runs[d] = algebra.certify(_weyl_povm(d), tol)
        yield d, runs[d]


@_criterion(7, "certification relations at the reference strategy (incl. C_j and povm blocks)",
            certifies=True)
def criterion_7_certification(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0,
                              certify_runs: dict | None = None):
    """``certify``'s relation residuals at the reference strategy, d = 2..4; a
    refused input or a Bell value short of optimal counts as inf.  The runs
    come from ``certify_runs`` (see ``run_full_suite``), or alone from
    ``algebra.certify`` here."""
    worst, worst_d = 0.0, None
    for d, run in _certify_runs(tol, d_max, certify_runs):
        residual = run.certification.max_residual if run.optimal else np.inf
        if residual >= worst:
            worst, worst_d = residual, d
    return [check("max residual", worst, tol, worst=worst_d)]


@_criterion(8, "entropy: 2 log2(d) at reference, 0 for the eavesdropped pair, Shannon cap",
            certifies=True)
def criterion_8_entropy(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0,
                        certify_runs: dict | None = None):
    """``certify``'s conditional entropy 2 log2(d) at reference (a refused input
    or a Bell value short of optimal counts as inf), from the runs of
    ``certify_runs`` as criterion 7 reads them; 0 for the eavesdropped pair;
    Shannon cap for arbitrary strategies, a stack of them at a time."""
    ref_dev, ref_d = 0.0, None
    for d, run in _certify_runs(tol, d_max, certify_runs):
        deviation = (abs(run.randomness.conditional_entropy_bits - 2 * math.log2(d))
                     if run.optimal else np.inf)
        if deviation >= ref_dev:
            ref_dev, ref_d = deviation, d

    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    eav = bell.Strategy(
        dims=BipartiteDims(2, 2),
        rho=0.5
        * (
            np.outer(np.eye(4)[0], np.eye(4)[0]) + np.outer(np.eye(4)[3], np.eye(4)[3])
        ).astype(complex),
        alice_pair_effects=np.zeros((1, 2, 2, 2), dtype=complex),
        alice_povm=basis,
        bob=basis.copy(),
    )
    intro_dev = abs(
        randomness.conditional_entropy(randomness.cq_state(eav, ghz))
    )

    cap_excess = -np.inf
    for members in _stacks(100):
        # the cap reads rho and the povm setting: the pair POVMs go unnormalized
        stack = bell._random_strategy(BipartiteDims(2, 2), 2, [seed + i for i in members],
                                      pair_effects=False)
        entropies = randomness.conditional_entropy(randomness.cq_state(stack, purify(stack.rho)))
        cap_excess = max(cap_excess, (entropies - math.log2(4.0)).max())
    return [
        check("max |H - 2 log2 d|", ref_dev, tol, worst=ref_d),
        check("intro example |H|", intro_dev, tol),
        check("max H - log2(d^2)", cap_excess, tol),
    ]


@_criterion(9, "6-dimensional exceptional representation (relations, span 25, single block)")
def criterion_9_counterexample(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """The six-dimensional exceptional family: relations, span 25, and one
    irreducible block of multiplicity 1 and dimension 6."""
    X = algebra.counterexample_rep()
    S = algebra.counterexample_gram()
    relations = algebra.check_as_relations(X, S)
    span = algebra.span_dimension([Xj @ Xk for Xj in X for Xk in X])
    dec = algebra.irrep_decompose(X, seed=seed)
    return [
        check("max relation residual", relations.measured, tol, worst=relations.worst),
        check("product span", span, tol),
        check("single block", float(dec.shape_multiset == ((1, 6),)), tol,
              worst=dec.shape_multiset),
    ]


@_criterion(10, "irrep structure: dims divisible by d, per-irrep traces d_a/d, basis covariance")
def criterion_10_irrep_structure(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Block dimensions divisible by d and per-irrep traces d_a/d for every
    representation tested; multiset invariant under unitary conjugation."""
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
    mixed = np.stack([np.block([[sic3[j], np.zeros((3, 6))], [np.zeros((6, 3)), X6[j]]])
                      for j in range(9)])
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
    return [
        check("max trace deviation", trace_dev, tol),
        check("dims divisible", float(divisible), tol),
        check("conjugation invariant", float(invariant), tol),
    ]


@_criterion(11, "block-entangled decomposition: (1,1,d) at reference; mixed-state E/F^t split")
def criterion_11_maxent(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0):
    """Block-entangled decomposition: single (1,1,d) block at the reference;
    the mixed-state pair shows compressed E != compressed F transposed."""
    worst = 0.0
    single = True
    for d in (2, 3):
        ref = bell.reference_strategy(_weyl_povm(d))
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
    return [
        check("single block", float(single), tol),
        check("max state residual", worst, tol),
        check("mixed E vs F^t residual", remark.ef_transpose_residual, tol),
    ]


def run_criterion(
    cid: int, tol: float = BASE_TOL, d_max: int = 4, seed: int = 0,
    certify_runs: dict | None = None,
) -> CriterionRun:
    """Run and time one criterion; ``certify_runs`` goes to the criteria in
    ``CERTIFYING``, which read and fill it, and without it they certify alone."""
    shared = {"certify_runs": certify_runs} if cid in CERTIFYING else {}
    start = time.perf_counter()
    checks = Checks(CRITERIA[cid](tol=tol, d_max=d_max, seed=seed, **shared))
    return CriterionRun(cid, checks, time.perf_counter() - start)


def run_full_suite(tol: float = BASE_TOL, d_max: int = 4, seed: int = 0) -> list[CriterionRun]:
    """Run every criterion in order, printing each one's line as it finishes.

    Criteria 7 and 8 share one ``algebra.certify`` run per d, held for this
    call only: criterion 7 certifies and its seconds include the runs;
    criterion 8 reads them, and its seconds leave them out."""
    certify_runs = {}
    outcomes = []
    for cid in sorted(CRITERIA):
        outcome = run_criterion(cid, tol=tol, d_max=d_max, seed=seed, certify_runs=certify_runs)
        outcomes.append(outcome)
        print(outcome.line())
    return outcomes
