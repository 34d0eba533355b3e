import numpy as np
import pytest

from biccert import bell, bic


def dense_pair_effects(strategy):
    """Alice's pair effects as one dense (n_pairs, 2, dA, dA) array, read
    through ``Strategy.pair_effect_blocks``, whichever form they are stored in."""
    dA = strategy.dims.dA
    dense = np.empty((bell.n_pairs(strategy.n_outcomes), 2, dA, dA), dtype=complex)
    for block, _, _, A, _ in strategy.pair_effect_blocks():
        dense[block] = A
    return dense


@pytest.fixture(scope="session")
def weyl_povm_d2():
    return bic.construct_weyl_bic(2, bic.geometric_fiducial(2, 0.3, 0.137))


@pytest.fixture(scope="session")
def weyl_povm_d3():
    return bic.construct_weyl_bic(3, bic.geometric_fiducial(3, 0.3, 0.137))


@pytest.fixture(scope="session")
def weyl_povm_d4():
    return bic.construct_weyl_bic(4, bic.geometric_fiducial(4, 0.3, 0.137))


@pytest.fixture(scope="session")
def reference_d2(weyl_povm_d2):
    return bell.reference_strategy(weyl_povm_d2), bic.gram(weyl_povm_d2)


@pytest.fixture(scope="session")
def reference_d3(weyl_povm_d3):
    return bell.reference_strategy(weyl_povm_d3), bic.gram(weyl_povm_d3)


@pytest.fixture(scope="session")
def reference_d4(weyl_povm_d4):
    return bell.reference_strategy(weyl_povm_d4), bic.gram(weyl_povm_d4)


@pytest.fixture(scope="session")
def lattice_povm_d2():
    """The d=2 Weyl orbit of the on-lattice fiducial (1, 0.3): unit vectors that
    sum to 2 I, but a singular Gram matrix, so ``validate_bic`` refuses them."""
    psi = np.array([1.0, 0.3]) / np.hypot(1.0, 0.3)
    return bic.BicPovm(2, bic._weyl_stack(2) @ psi)


@pytest.fixture(scope="session")
def sic3_povm():
    return bic.construct_weyl_bic(3, np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0))
