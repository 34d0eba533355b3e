"""The stacked criteria 2, 3 and 8 against one-strategy-at-a-time copies of
them, and the certification runs that criteria 7 and 8 share."""

import collections
import math

import numpy as np
import pytest

from biccert import algebra, bell, bic, randomness, reproduce
from biccert.linalg import BipartiteDims, frobenius, purify, random_hermitian


def _weyl_gram(d):
    return bic.gram(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))


def _criterion_2_one_at_a_time(seed):
    worst_rel = 0.0
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        S, n = _weyl_gram(d), d * d
        for _ in range(100):
            strat = bell.Strategy(
                dims=BipartiteDims(d, d),
                rho=np.eye(n, dtype=complex) / n,
                alice_pair_effects=random_hermitian(d, rng, (bell.n_pairs(n), 2)),
                alice_povm=random_hermitian(d, rng, (n,)),
                bob=random_hermitian(d, rng, (n,)),
            )
            fold, theta = bell.walk(strat, S, bell.pair_fold_reader(strat, S),
                                    bell.sos_theta_reader(strat, S))
            W = bell.bell_operator(strat, S, fold)
            worst_rel = max(worst_rel, frobenius(W + theta - d * d * np.eye(n)) / (d * d))
    return worst_rel


def _criterion_3_one_at_a_time(seed):
    min_eig, max_excess = np.inf, -np.inf
    for d in (2, 3):
        S = _weyl_gram(d)
        for i in range(100):
            strat = bell.random_strategy(BipartiteDims(d, d), d, seed + i)
            cert = bell.sos_certificate(strat, S, *bell.walk(strat, S, bell.pair_fold_reader(strat, S),
                                                             bell.sos_theta_reader(strat, S)))
            min_eig = min(min_eig, cert.theta_min_eigenvalue)
            max_excess = max(max_excess, bell.bell_value(strat, S).value - d * d)
    return min_eig, max_excess


def _criterion_8_cap_one_at_a_time(seed):
    cap_excess = -np.inf
    for members in reproduce._stacks(100):
        stack = bell.random_strategy(BipartiteDims(2, 2), 2, [seed + i for i in members])
        for i in range(len(members)):
            strat = stack.member(i)
            cq = randomness.cq_state(strat, purify(strat.rho))
            cap_excess = max(cap_excess, randomness.conditional_entropy(cq) - math.log2(4.0))
    return cap_excess


def _counted_certify_runs(monkeypatch):
    """The d of every ``algebra.certify`` call from here on, counted."""
    counts = collections.Counter()
    certify = algebra.certify

    def counted(povm, tol=1e-9):
        counts[povm.d] += 1
        return certify(povm, tol)

    monkeypatch.setattr(algebra, "certify", counted)
    return counts


def _only_criteria_7_and_8(monkeypatch):
    monkeypatch.setattr(reproduce, "CRITERIA", {cid: reproduce.CRITERIA[cid] for cid in (7, 8)})


@pytest.mark.parametrize("cid, name", [(7, "max residual"), (8, "max |H - 2 log2 d|")])
def test_criteria_7_and_8_count_a_refused_povm_as_inf(monkeypatch, lattice_povm_d2, cid, name):
    weyl_povm = reproduce._weyl_povm
    monkeypatch.setattr(reproduce, "_weyl_povm",
                        lambda d, *rt: lattice_povm_d2 if d == 2 else weyl_povm(d, *rt))
    found = reproduce.run_criterion(cid).checks[name]
    assert not found.passed and found.measured == np.inf and found.worst == 2


def test_criteria_7_and_8_count_a_refused_povm_as_inf_in_one_suite_call(monkeypatch,
                                                                        lattice_povm_d2):
    weyl_povm = reproduce._weyl_povm
    monkeypatch.setattr(reproduce, "_weyl_povm",
                        lambda d, *rt: lattice_povm_d2 if d == 2 else weyl_povm(d, *rt))
    _only_criteria_7_and_8(monkeypatch)
    seven, eight = (run.checks for run in reproduce.run_full_suite())
    for found in (seven["max residual"], eight["max |H - 2 log2 d|"]):
        assert not found.passed and found.measured == np.inf and found.worst == 2


def test_full_suite_certifies_once_per_d(monkeypatch):
    counts = _counted_certify_runs(monkeypatch)
    assert all(run.passed for run in reproduce.run_full_suite())
    assert counts == {d: 1 for d in range(2, 5)}


def test_no_certification_run_outlives_a_suite_call(monkeypatch):
    counts = _counted_certify_runs(monkeypatch)
    _only_criteria_7_and_8(monkeypatch)
    for calls in (1, 2):
        reproduce.run_full_suite(d_max=5)
        assert counts == {d: calls for d in range(2, 6)}


def test_criteria_7_and_8_alone_certify_every_d(monkeypatch):
    counts = _counted_certify_runs(monkeypatch)
    for calls, cid in enumerate((7, 8), start=1):
        assert reproduce.run_criterion(cid).passed
        assert counts == {d: calls for d in range(2, 5)}


@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_criteria_2_and_3_agree_with_one_strategy_at_a_time(seed):
    assert 1 < reproduce._STACK < 100  # so that the criteria run more than one stack
    two = reproduce.run_criterion(2, seed=seed).checks
    three = reproduce.run_criterion(3, seed=seed).checks
    # W_d and Theta_d of each member come from the same products as for one strategy
    assert two["max residual / d^2"].measured == _criterion_2_one_at_a_time(seed)
    min_eig, max_excess = _criterion_3_one_at_a_time(seed)
    assert three["min eig Theta"].measured == min_eig
    # the Bell value's einsums may sum a stack in another order
    assert abs(three["max value - d^2"].measured - max_excess) <= 1e-13 * 9
    # every member is full rank: its entropy comes from the single call's products
    eight = reproduce.run_criterion(8, seed=seed).checks
    assert eight["max H - log2(d^2)"].measured == _criterion_8_cap_one_at_a_time(seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_criterion_3_min_eigenvalue_is_the_sos_certificates_bitwise(seed):
    min_eig = np.inf
    for d in (2, 3):
        S = _weyl_gram(d)
        for members in reproduce._stacks(100):
            strat = bell.random_strategy(BipartiteDims(d, d), d, [seed + i for i in members])
            (F, M), theta = bell.walk(strat, S, bell.pair_fold_reader(strat, S),
                                      bell.sos_theta_reader(strat, S))
            for i in range(len(members)):  # the certificate takes one strategy at a time
                cert = bell.sos_certificate(strat.member(i), S, (F[i], M[i]), theta[i])
                min_eig = min(min_eig, cert.theta_min_eigenvalue)
    assert reproduce.run_criterion(3, seed=seed).checks["min eig Theta"].measured == min_eig
