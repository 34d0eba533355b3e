"""The stacked criteria 2 and 3 against one-strategy-at-a-time copies of them."""

import numpy as np
import pytest

from biccert import bell, bic, reproduce
from biccert.linalg import BipartiteDims, frobenius, random_hermitian


def _weyl_gram(d):
    return bic.gram(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))


def _criterion_2_one_at_a_time(seed):
    worst_rel = 0.0
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        S, n = _weyl_gram(d), d * d
        pairs = bell.pair_list(n)
        for _ in range(100):
            strat = bell.Strategy(
                dims=BipartiteDims(d, d),
                rho=np.eye(n, dtype=complex) / n,
                alice_pair_effects=random_hermitian(d, rng, (len(pairs), 2)),
                alice_povm=random_hermitian(d, rng, (n,)),
                bob=random_hermitian(d, rng, (n,)),
            )
            W = bell.bell_operator(strat, S, bell.pair_fold(strat, S))
            theta = bell.sos_theta(strat, S)
            worst_rel = max(worst_rel, frobenius(W + theta - d * d * np.eye(n)) / (d * d))
    return worst_rel


def _criterion_3_one_at_a_time(seed):
    min_eig, max_excess = np.inf, -np.inf
    for d in (2, 3):
        S = _weyl_gram(d)
        for i in range(100):
            strat = bell.random_strategy(BipartiteDims(d, d), d, seed + i)
            cert = bell.sos_certificate(strat, S, bell.pair_fold(strat, S))
            min_eig = min(min_eig, cert.theta_min_eigenvalue)
            max_excess = max(max_excess, bell.bell_value(strat, S).value - d * d)
    return min_eig, max_excess


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
