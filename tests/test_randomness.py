import numpy as np
import pytest

import oracles

from biccert import bell, bic, randomness
from biccert.linalg import BipartiteDims, eigh, purify, random_unitary


def eavesdropped_pair():
    """GHZ-extended perfectly correlated pair: Alice's basis measurement is
    fully predictable from the environment."""
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = 0.5 * (
        np.outer(np.eye(4)[0], np.eye(4)[0]) + np.outer(np.eye(4)[3], np.eye(4)[3])
    ).astype(complex)
    basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    strategy = bell.Strategy(
        dims=BipartiteDims(2, 2),
        rho=rho,
        alice_pair_effects=np.zeros((1, 2, 2, 2), dtype=complex),
        alice_povm=basis,
        bob=basis.copy(),
    )
    return strategy, ghz


def test_conditional_entropy_trivial_environment_is_shannon():
    # a one-dimensional environment learns nothing: H(A|E) is the Shannon entropy
    for dist, bits in (([1.0, 0.0], 0.0), ([0.25] * 4, 2.0), ([0.5, 0.25, 0.25], 1.5)):
        blocks = np.array(dist, dtype=complex)[:, None, None]
        cq = randomness.CqState(num_outcomes=len(dist), eve_dim=1, blocks=blocks)
        assert abs(randomness.conditional_entropy(cq) - bits) < 1e-12


def test_cq_state_reference_d2(reference_d2):
    ref, _ = reference_d2
    psi = purify(ref.rho)
    cq = randomness.cq_state(ref, psi)
    assert cq.eve_dim == 1  # pure state, trivial environment
    dist = cq.outcome_distribution()
    assert np.abs(dist - 0.25).max() < 1e-10


def test_cq_state_trace_matches_outcome_probability(reference_d3):
    ref, _ = reference_d3
    strat = oracles.depolarize(ref, 0.7)
    psi = purify(strat.rho)
    cq = randomness.cq_state(strat, psi)
    assert abs(cq.outcome_distribution().sum() - 1.0) < 1e-10
    rho4 = strat.rho.reshape(3, 3, 3, 3)
    for j in range(9):
        expected = np.einsum("abcb,ca->", rho4, strat.alice_povm[j]).real
        assert abs(cq.outcome_distribution()[j] - expected) < 1e-10


def test_cq_state_rejects_wrong_purification(reference_d2):
    ref, _ = reference_d2
    wrong = np.zeros(4, dtype=complex)
    wrong[0] = 1.0
    with pytest.raises(ValueError, match="purify"):
        randomness.cq_state(ref, wrong)


def test_cq_state_product_pure_blocks_proportional():
    strategy, _ = eavesdropped_pair()
    pure = bell.Strategy(
        dims=strategy.dims,
        rho=np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex),
        alice_pair_effects=strategy.alice_pair_effects,
        alice_povm=strategy.alice_povm,
        bob=strategy.bob,
    )
    psi = purify(pure.rho)
    cq = randomness.cq_state(pure, psi)
    assert cq.eve_dim == 1


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_conditional_entropy_reference(d):
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    ref = bell.reference_strategy(povm)
    cq = randomness.cq_state(ref, purify(ref.rho))
    assert abs(randomness.conditional_entropy(cq) - 2 * np.log2(d)) < 1e-9


def test_conditional_entropy_eavesdropped_pair_is_zero():
    strategy, ghz = eavesdropped_pair()
    cq = randomness.cq_state(strategy, ghz)
    # environment states are orthogonal: perfectly distinguishable outcomes
    overlap = np.abs(cq.blocks[0] @ cq.blocks[1]).max()
    assert overlap < 1e-14
    assert abs(randomness.conditional_entropy(cq)) < 1e-9


def test_conditional_entropy_uniform_with_product_environment():
    blocks = np.stack([np.diag([0.5, 0.5]) / 4 for _ in range(4)]).astype(complex)
    cq = randomness.CqState(num_outcomes=4, eve_dim=2, blocks=blocks)
    assert abs(randomness.conditional_entropy(cq) - 2.0) < 1e-12


def test_conditional_entropy_nonnegative_and_capped():
    worst = -np.inf
    for seed in range(100):
        strat = bell.random_strategy(BipartiteDims(2, 2), 2, seed)
        cq = randomness.cq_state(strat, purify(strat.rho))
        H = randomness.conditional_entropy(cq)
        assert H >= -1e-9
        worst = max(worst, H)
    assert worst <= np.log2(4.0) + 1e-9


def test_conditional_entropy_invariant_under_eve_unitary():
    strat = bell.random_strategy(BipartiteDims(2, 2), 2, 5)
    cq = randomness.cq_state(strat, purify(strat.rho))
    U = random_unitary(cq.eve_dim, np.random.default_rng(1))
    rotated = randomness.CqState(
        cq.num_outcomes,
        cq.eve_dim,
        np.einsum("ab,jbc,dc->jad", U, cq.blocks, U.conj()),
    )
    assert (
        abs(randomness.conditional_entropy(cq) - randomness.conditional_entropy(rotated))
        < 1e-10
    )


@pytest.mark.parametrize("d", [2, 3])
def test_randomness_report_reference(d):
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    S = bic.gram(povm)
    ref = bell.reference_strategy(povm)
    report = randomness.randomness_report(ref, S, bell.bell_value(ref, S), eigh(ref.rho))
    assert abs(report.bell_value - d * d) < 1e-9
    assert abs(report.conditional_entropy_bits - 2 * np.log2(d)) < 1e-9
    assert abs(report.conditional_entropy_nats - 2 * np.log(d)) < 1e-9
    assert report.certified.passed
    assert report.uniformity_deviation < 1e-10


def test_randomness_report_depolarized_not_certified(reference_d2):
    ref, S = reference_d2
    mixed = oracles.depolarize(ref, 0.99)
    report = randomness.randomness_report(mixed, S, bell.bell_value(mixed, S), eigh(mixed.rho))
    assert not report.certified.passed
    assert report.bell_value < 4.0
    assert report.gap_to_quantum_max > 0.0
    payload = report.to_json()
    assert payload["certified"]["passed"] is False
    assert set(payload) >= {
        "bellValue",
        "gap",
        "entropyBits",
        "distribution",
        "uniformityDeviation",
        "certified",
    }


def test_reference_cq_state_factorizes(reference_d3):
    # all conditional environment blocks are equal after normalization and
    # every outcome weight is 1/d^2
    ref, _ = reference_d3
    cq = randomness.cq_state(ref, purify(ref.rho))
    weights = cq.outcome_distribution()
    assert np.abs(weights - 1.0 / 9.0).max() < 1e-10
    normalized = [b / w for b, w in zip(cq.blocks, weights)]
    for b in normalized[1:]:
        assert np.linalg.norm(b - normalized[0]) < 1e-9
