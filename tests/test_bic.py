import numpy as np
import oracles
import pytest

from biccert import bic
from biccert.classical import bic_gram_d2
from biccert.reproduce import SIC3_FIDUCIAL, WEYL_PARAMETERS


def test_weyl_identity_element():
    assert np.array_equal(oracles.weyl_operator(2, 0, 0), np.eye(2))
    assert np.array_equal(oracles.weyl_operator(5, 0, 0), np.eye(5))


def test_weyl_pauli_cases():
    assert np.allclose(oracles.weyl_operator(2, 1, 0), np.array([[0, 1], [1, 0]]))
    assert np.allclose(oracles.weyl_operator(2, 0, 1), np.diag([1.0, -1.0]))


def test_weyl_matches_hand_expansion():
    # bitwise: the orbit stack's operators, indices wrapped mod d, equal the
    # entry-by-entry loop
    for d in (1, 2, 3, 4, 5, 9):
        for p in range(-1, d + 1):
            for q in range(-1, d + 1):
                assert np.array_equal(oracles.weyl_operator(d, p, q), oracles.weyl_operator_loop(d, p, q))


def test_weyl_powers_proportional_to_identity():
    for p in range(3):
        for q in range(3):
            U = oracles.weyl_operator(3, p, q)
            cube = np.linalg.matrix_power(U, 3)
            assert abs(abs(cube[0, 0]) - 1.0) < 1e-12
            assert np.allclose(cube, cube[0, 0] * np.eye(3), atol=1e-12)


def test_weyl_unitary():
    for d in (2, 5):
        for p in range(d):
            for q in range(d):
                U = oracles.weyl_operator(d, p, q)
                assert np.allclose(U @ U.conj().T, np.eye(d), atol=1e-12)


def test_geometric_fiducial_d2_value():
    psi = bic.geometric_fiducial(2, 0.3, 0.13)
    expected = np.array([1.0, 0.3 * np.exp(0.26j * np.pi)]) / np.sqrt(1.09)
    assert np.allclose(psi, expected, atol=1e-14)


def test_geometric_fiducial_parameter_errors():
    with pytest.raises(ValueError):
        bic.geometric_fiducial(3, 0.6, 0.1)  # r out of range
    with pytest.raises(ValueError):
        bic.geometric_fiducial(3, 0.0, 0.1)
    with pytest.raises(ValueError):
        bic.geometric_fiducial(4, 0.3, 0.0)  # t on (1/8)Z
    with pytest.raises(ValueError):
        bic.geometric_fiducial(6, 0.3, 5.0 / 12.0)  # t on (1/12)Z
    # odd d admits any t
    bic.geometric_fiducial(3, 0.3, 0.0)


def test_fiducial_overlaps_all_nonzero_d3():
    psi = bic.geometric_fiducial(3, 0.45, 0.0)
    # oracle: explicit matrix products rather than the overlap formula
    for p in range(3):
        for q in range(3):
            val = psi.conj() @ oracles.weyl_operator_loop(3, p, q) @ psi
            assert abs(val) > 1e-10
            assert abs(val - bic.weyl_overlaps(3, psi)[p, q]) < 1e-12


def test_weyl_overlaps_bitwise_equal_double_loop():
    rng = np.random.default_rng(0)
    for d in range(2, 33):
        lattice = 0.3 ** np.arange(d)  # criterion 6's lattice fiducial
        fiducials = [lattice / np.linalg.norm(lattice)]
        fiducials += [bic.geometric_fiducial(d, rng.uniform(0.05, 0.45), rng.uniform(0.0, 1.0))
                      for _ in range(2)]
        for _ in range(3):
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            fiducials.append(psi / np.linalg.norm(psi))
        for psi in fiducials:
            assert np.array_equal(bic.weyl_overlaps(d, psi), oracles.weyl_overlaps_loop(d, psi)), d


def test_weyl_vectors_bitwise_equal_per_operator_orbit():
    cases = [(3, SIC3_FIDUCIAL)] + [
        (d, bic.geometric_fiducial(d, r, t)) for d in range(2, 25) for r, t in WEYL_PARAMETERS]
    for d, psi in cases:
        assert np.array_equal(bic.construct_weyl_bic(d, psi).vectors, oracles.weyl_orbit_loop(d, psi)), d


@pytest.mark.parametrize("d", [2, 4, 6])
def test_even_d_lattice_overlap_vanishes(d):
    # alpha real positive (t = 0): the overlap at (d/2, 1) must vanish
    psi = 0.3 ** np.arange(d)
    psi = psi / np.linalg.norm(psi)
    overlaps = bic.weyl_overlaps(d, psi)
    assert abs(overlaps[d // 2, 1]) < 1e-10
    # odd multiples of 1/(2d) kill even-q overlaps at p = d/2 instead
    alpha = 0.3 * np.exp(2j * np.pi / (2 * d))
    psi_odd = alpha ** np.arange(d)
    psi_odd = psi_odd / np.linalg.norm(psi_odd)
    assert abs(bic.weyl_overlaps(d, psi_odd)[d // 2, 0]) < 1e-10


def test_construct_weyl_bic_d2_valid(weyl_povm_d2):
    report = bic.validate_bic(weyl_povm_d2)
    assert report.passed, report.failures()
    assert bic.validate_gram(bic.gram(weyl_povm_d2)).passed


def test_construct_weyl_bic_basis_state_fails():
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        bic.construct_weyl_bic(2, np.array([1.0, 0.0]))


def test_construct_weyl_bic_d5_column_sums():
    povm = bic.construct_weyl_bic(5, bic.geometric_fiducial(5, 0.4, 0.2))
    S = bic.gram(povm).s
    assert np.abs(S.sum(axis=0) - 5.0).max() < 1e-9


@pytest.mark.parametrize("d", range(2, 9))
def test_weyl_bic_valid_up_to_d8(d):
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    assert bic.validate_bic(povm).passed


def _counting_draws(monkeypatch) -> list[int]:
    """Patch ``bic.validate_gram``, which the generic construction calls once
    per draw, to count those calls; the returned list holds the count."""
    draws = [0]
    validate_gram = bic.validate_gram

    def counted(gm, *args, **kwargs):
        draws[0] += 1
        return validate_gram(gm, *args, **kwargs)

    monkeypatch.setattr(bic, "validate_gram", counted)
    return draws


def test_generic_bic_small_and_beyond_sic_range(monkeypatch):
    # (4, 2) and (8, 3) first draw a Gram matrix just below the invertibility
    # tolerance, which the construction must reject and redraw
    draws = _counting_draws(monkeypatch)
    for d, seed in ((2, 1), (4, 0), (4, 1), (4, 2), (4, 3), (6, 7), (8, 3)):
        draws[0] = 0
        povm = bic.construct_generic_bic(d, seed)
        assert draws[0] == (2 if (d, seed) in ((4, 2), (8, 3)) else 1), (d, seed)
        assert bic.validate_bic(povm).passed
        assert bic.validate_gram(bic.gram(povm)).passed


def test_generic_bic_forms_one_gram_matrix_per_draw(monkeypatch):
    draws = _counting_draws(monkeypatch)
    grams = []
    gram = bic.gram
    monkeypatch.setattr(bic, "gram", lambda povm: grams.append(povm) or gram(povm))
    bic.construct_generic_bic(4, 2)  # the first draw is rejected
    assert draws[0] == 2 and len(grams) == 2


@pytest.mark.parametrize("d", [12, 16, 20])
def test_generic_bic_validates_at_scale(d):
    povm = bic.construct_generic_bic(d, 1)
    assert bic.validate_bic(povm).passed
    assert bic.validate_gram(bic.gram(povm)).passed


@pytest.mark.parametrize("d", range(2, 9))
def test_generic_gram_matches_dense_pipeline(d, monkeypatch):
    # the vectors differ from the dense pipeline's by a unitary, so only the
    # Gram matrices are compared
    draws = _counting_draws(monkeypatch)
    for seed in range(8):
        draws[0] = 0
        S = bic.gram(bic.construct_generic_bic(d, seed)).s
        new_draws = draws[0]
        oracle, oracle_draws = oracles.generic_bic_dense(d, seed)
        assert new_draws == oracle_draws, seed
        assert np.abs(S - bic.gram(oracle).s).max() <= 1e-12, seed


def test_generic_bic_unit_projection_traces():
    # equalization target: every |e_j| = 1, i.e. diag of (1/d) G equals 1/d
    povm = bic.construct_generic_bic(3, 4)
    norms = np.linalg.norm(povm.vectors, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-10


def test_generic_bic_deterministic():
    a = bic.construct_generic_bic(4, 11)
    b = bic.construct_generic_bic(4, 11)
    assert np.array_equal(a.vectors, b.vectors)


def test_equalize_diagonal_already_uniform():
    U = bic.equalize_diagonal(np.eye(3, dtype=complex) * 0.7)
    assert np.array_equal(U, np.eye(3))


def test_equalize_diagonal_two_by_two():
    U = bic.equalize_diagonal(np.diag([1.0, 0.0]).astype(complex))
    M = U @ np.diag([1.0, 0.0]) @ U.conj().T
    assert np.allclose(np.diagonal(M).real, [0.5, 0.5], atol=1e-12)
    assert np.allclose(U @ U.conj().T, np.eye(2), atol=1e-12)


def test_equalize_diagonal_random_nine():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    H = (G + G.conj().T) / 2
    U = bic.equalize_diagonal(H)
    M = U @ H @ U.conj().T
    mean = np.trace(H).real / 9
    assert np.abs(np.diagonal(M).real - mean).max() < 1e-10
    assert np.linalg.norm(U @ U.conj().T - np.eye(9)) < 1e-10


@pytest.mark.parametrize("n", [100, 400])
def test_equalize_diagonal_at_scale(n):
    rng = np.random.default_rng(n)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = int(np.sqrt(n))
    K1, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    # a random hermitian matrix and a rank-d projection, the generic construction's input
    for H in ((G + G.conj().T) / 2, K1 @ K1.conj().T):
        U = bic.equalize_diagonal(H)
        mu = np.trace(H).real / n
        M = U @ H @ U.conj().T
        assert np.abs(np.diagonal(M).real - mu).max() <= 1e-12 * max(1.0, abs(mu))
        assert np.linalg.norm(U @ U.conj().T - np.eye(n)) <= 1e-12 * n
    with pytest.raises(ValueError, match="hermitian"):
        bic.equalize_diagonal(G)


def test_equalize_diagonal_refuses_a_matrix_off_hermitian_by_more_than_its_tolerance():
    # np.allclose's relative tolerance of 1e-5 once let this through, and the
    # returned U left diag(U P U*) at (0.5000014, 0.4999986)
    with pytest.raises(ValueError, match="hermitian"):
        bic.equalize_diagonal(np.array([[1.0, 0.5], [0.5 + 4e-6, 0.0]]))


@pytest.mark.parametrize("n", [2, 3, 4, 9, 16, 25, 36])
def test_equalize_diagonal_matches_the_masked_rotation_loop_bitwise(n):
    rng = np.random.default_rng(n)
    d = max(1, int(np.sqrt(n)))
    for _ in range(10):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        K1, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        for H in ((G + G.conj().T) / 2, K1 @ K1.conj().T):
            assert np.array_equal(bic.equalize_diagonal(H), oracles.equalize_diagonal_masked(H))


@pytest.mark.parametrize("d", range(2, 7))
def test_generic_vectors_match_the_masked_pipeline_bitwise(d):
    for seed in range(10):
        assert np.array_equal(bic.construct_generic_bic(d, seed).vectors,
                              oracles.generic_bic_masked(d, seed).vectors), seed


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gram_laws(d):
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    S = bic.gram(povm).s
    assert np.abs(np.diagonal(S) - 1.0).max() < 1e-12
    assert np.abs(S.sum(axis=0) - d).max() < 1e-9
    assert abs(np.triu(S, 1).sum() - (d**3 - d**2) / 2) < 1e-9


def test_gram_triangle_sum_d3_is_nine(weyl_povm_d3):
    assert abs(np.triu(bic.gram(weyl_povm_d3).s, 1).sum() - 9.0) < 1e-9


def test_validate_bic_rejects_repeated_vector():
    v = np.tile(np.array([1.0, 0.0]), (4, 1)).astype(complex)
    report = bic.validate_bic(bic.BicPovm(d=2, vectors=v))
    assert not report.passed
    assert "gram_invertible" in report.failures()


def test_validate_bic_rejects_padded_basis():
    v = np.array(
        [[1, 0], [0, 1], [1, 0], [0, 1]], dtype=complex
    )
    report = bic.validate_bic(bic.BicPovm(d=2, vectors=v))
    assert not report.passed


def test_validate_gram_sic_d2_entries():
    gm = bic_gram_d2(1.0 / 3.0, 1.0 / 3.0)
    off = gm.s[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1.0 / 3.0)
    assert bic.validate_gram(gm).passed


def test_validate_gram_disconnected_fails():
    S = np.eye(4)
    S[0, 1] = S[1, 0] = 0.9
    S[2, 3] = S[3, 2] = 0.9
    # column sums forced to 2 by construction is impossible here; check connectivity only
    report = bic.validate_gram(bic.GramMatrix(d=2, s=S))
    assert "connected" in report.failures()


def test_validate_gram_refuses_asymmetry_and_names_the_pair():
    S = bic_gram_d2(0.2, 0.3).s.copy()
    S[3, 1] += 1e-6  # column 2 still sums to d
    S[2, 1] -= 2e-6
    S[0, 1] += 1e-6
    report = bic.validate_gram(bic.GramMatrix(d=2, s=S), tol=1e-7)
    symmetric = report["symmetric"]
    assert report.failures() == ["symmetric"]
    assert symmetric.worst == (2, 3) and abs(symmetric.measured - 2e-6) < 1e-15
    assert bic.validate_gram(bic.GramMatrix(d=2, s=S), tol=1e-5)["symmetric"].passed


def test_gram_diagonal_ones(weyl_povm_d3):
    S = bic.gram(weyl_povm_d3).s
    assert np.allclose(np.diagonal(S), 1.0, atol=1e-12)
