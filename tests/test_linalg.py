import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biccert.linalg import (
    BipartiteDims,
    apply_local,
    eigh,
    frobenius_each,
    is_hermitian,
    kron,
    kron_sum,
    matricize,
    maximally_entangled,
    partial_trace,
    purify,
    random_hermitian,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def trace_out_environment(psi, system_dim):
    """Reduced state on the leading factor of a pure state in H (x) H_E."""
    M = psi.reshape(system_dim, -1)
    return M @ M.conj().T


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    assert np.array_equal(
        kron(np.diag([1.0, 0.0]), np.diag([1.0, 1.0])), np.diag([1.0, 1.0, 0.0, 0.0])
    )


def test_kron_equals_numpy_kron_bitwise():
    rng = np.random.default_rng(3)
    real = [rng.standard_normal(shape) for shape in ((2, 3), (4, 1), (3, 3), (1, 5))]
    cases = real + [M + 1j * rng.standard_normal(M.shape) for M in real]
    for A in cases:
        for B in cases:
            assert np.array_equal(kron(A, B), np.kron(A, B))
    assert kron(real[0], real[1]).shape == (8, 3)


def test_random_hermitian_stack_matches_single_draws_bitwise():
    def single(n, rng):  # one matrix per call, drawing real then imaginary parts
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (G + G.conj().T) / 2

    for n, lead in ((1, ()), (3, ()), (2, (5,)), (3, (4, 2))):
        stacked = random_hermitian(n, np.random.default_rng(n), lead)
        rng = np.random.default_rng(n)
        singles = np.array([single(n, rng) for _ in range(int(np.prod(lead)))])
        assert stacked.shape == lead + (n, n)
        assert np.array_equal(stacked, singles.reshape(stacked.shape))
        assert np.array_equal(stacked, stacked.conj().swapaxes(-1, -2))


def test_kron_pauli_against_hand_expansion():
    # oracle: the 4x4 matrix written out entry by entry
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    XZ = kron(PAULI_X, PAULI_Z)
    assert np.allclose(XZ, expected)
    assert np.allclose(XZ @ XZ, np.eye(4))


def test_partial_trace_product_state():
    dims = BipartiteDims(2, 3)
    A = np.array([[1.0, 2.0], [2.0, 5.0]], dtype=complex)
    B = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.allclose(partial_trace(kron(A, B), dims, "B"), np.trace(B) * A, atol=1e-12)
    assert np.allclose(partial_trace(kron(A, B), dims, "A"), np.trace(A) * B, atol=1e-12)


def test_partial_trace_maximally_entangled_marginal():
    for d in (2, 3, 5):
        phi = maximally_entangled(d)
        rho = np.outer(phi, phi.conj())
        assert np.allclose(
            partial_trace(rho, BipartiteDims(d, d), "B"), np.eye(d) / d, atol=1e-12
        )


def test_partial_trace_preserves_trace():
    rho = random_state(6, 0)
    for side in ("A", "B"):
        reduced = partial_trace(rho, BipartiteDims(2, 3), side)
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), BipartiteDims(2, 3), "B")


def test_apply_local_matches_kron():
    dims = BipartiteDims(2, 3)
    rng = np.random.default_rng(5)
    X_A, X_B = random_hermitian(2, rng), random_hermitian(3, rng)
    rect = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    for M in (random_state(6, 1), rect):
        assert np.allclose(apply_local(X_A, M, dims, "A"), kron(X_A, np.eye(3)) @ M, atol=1e-12)
        assert np.allclose(apply_local(X_B, M, dims, "B"), kron(np.eye(2), X_B) @ M, atol=1e-12)


def test_apply_local_batches_over_leading_axes():
    dims = BipartiteDims(2, 3)
    rng = np.random.default_rng(6)
    X_A, X_B = random_hermitian(2, rng, (4,)), random_hermitian(3, rng, (4,))
    Ms = rng.standard_normal((4, 6, 2)) + 1j * rng.standard_normal((4, 6, 2))
    one = apply_local(X_A, Ms[0], dims, "A")  # a stack of operators on one M
    assert one.shape == (4, 6, 2)
    for i in range(4):
        assert np.allclose(one[i], kron(X_A[i], np.eye(3)) @ Ms[0], atol=1e-12)
    paired = apply_local(X_B, Ms, dims, "B")  # operator i on M_i
    for i in range(4):
        assert np.allclose(paired[i], kron(np.eye(2), X_B[i]) @ Ms[i], atol=1e-12)


@pytest.mark.parametrize("dA, dB", [(2, 3), (3, 2)])
def test_apply_local_one_M_matches_kron_on_both_sides(dA, dB):
    # a stack of operators on one M: one GEMM for the whole stack
    dims = BipartiteDims(dA, dB)
    rng = np.random.default_rng(9)
    M = rng.standard_normal((dA * dB, 3)) + 1j * rng.standard_normal((dA * dB, 3))
    X_A, X_B = random_hermitian(dA, rng, (2, 3)), random_hermitian(dB, rng, (2, 3))
    got_A, got_B = apply_local(X_A, M, dims, "A"), apply_local(X_B, M, dims, "B")
    assert got_A.shape == got_B.shape == (2, 3, dA * dB, 3)
    for i in np.ndindex(2, 3):
        assert np.allclose(got_A[i], kron(X_A[i], np.eye(dB)) @ M, rtol=0, atol=1e-13)
        assert np.allclose(got_B[i], kron(np.eye(dA), X_B[i]) @ M, rtol=0, atol=1e-13)


def test_kron_sum_matches_sum_of_krons():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))
    Y = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
    expected = sum(kron(Xi, Yi) for Xi, Yi in zip(X, Y))
    assert np.allclose(kron_sum(X, Y), expected, atol=1e-12)


def test_kron_and_kron_sum_stacks_equal_each_member_bitwise():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((3, 5, 2, 3)) + 1j * rng.standard_normal((3, 5, 2, 3))
    Y = rng.standard_normal((3, 5, 4, 2)) + 1j * rng.standard_normal((3, 5, 4, 2))
    stacked, one_side = kron_sum(X, Y), kron_sum(X, Y[0])
    assert stacked.shape == one_side.shape == (3, 8, 6)
    for i in range(3):
        assert np.array_equal(stacked[i], kron_sum(X[i], Y[i]))
        assert np.array_equal(one_side[i], kron_sum(X[i], Y[0]))
        assert np.array_equal(kron(X[i, 0], Y[i, 0]), kron(X[:, 0], Y[:, 0])[i])
        assert np.array_equal(kron(X[i, 0], np.eye(2)), kron(X[:, 0], np.eye(2))[i])


def test_frobenius_each_matches_numpy_norm_on_any_layout():
    rng = np.random.default_rng(10)
    Z = rng.standard_normal((4, 3, 5, 6)) + 1j * rng.standard_normal((4, 3, 5, 6))
    for M in (Z, Z.transpose(1, 0, 2, 3), Z.swapaxes(-1, -2), Z[:, :, ::2, 1:], Z.real,
              np.arange(24).reshape(2, 3, 4), Z[0, 0]):
        expected = np.linalg.norm(M, axis=(-2, -1))
        got = frobenius_each(M)
        assert got.shape == expected.shape
        assert np.allclose(got, expected, rtol=1e-15, atol=0)
    assert np.isnan(frobenius_each(np.full((2, 2, 2), np.nan + 0j))).all()


def test_eigh_checks_every_matrix_of_a_stack():
    rng = np.random.default_rng(9)
    H = random_hermitian(3, rng, (4,))
    w, U = eigh(H)
    for i in range(4):
        assert np.allclose(U[i] @ np.diag(w[i]) @ U[i].conj().T, H[i], atol=1e-12)
    H[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="not hermitian"):
        eigh(H)


def test_apply_local_rejects_bad_side_and_shapes():
    dims = BipartiteDims(2, 3)
    rho = random_state(6, 2)
    with pytest.raises(ValueError):
        apply_local(np.eye(2), rho, dims, "C")
    with pytest.raises(ValueError):
        apply_local(np.eye(3), rho, dims, "A")  # X sized for B
    with pytest.raises(ValueError):
        apply_local(np.eye(2), np.eye(5), dims, "A")  # M has the wrong row count


def test_eigh_sorted_ascending():
    w, U = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose(U @ U.conj().T, np.eye(3), atol=1e-12)


def test_eigh_pauli_x():
    # characteristic polynomial of X is l^2 - 1, so eigenvalues are -1 and 1
    w, U = eigh(PAULI_X)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(np.abs(U), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)


@pytest.mark.parametrize("n", [20, 256])
def test_eigh_reconstruction(n):
    H = random_hermitian(n, np.random.default_rng(n))
    w, U = eigh(H)
    residual = np.linalg.norm(U @ np.diag(w) @ U.conj().T - H)
    assert residual <= 1e-10 * np.linalg.norm(H)
    assert np.linalg.norm(U @ U.conj().T - np.eye(n)) <= 1e-10 * n


def test_eigh_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_hermitian_relative_tolerance():
    M = np.eye(2) + 1e-12 * np.array([[0, 1], [0, 0]])
    assert is_hermitian(M)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not is_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert not is_hermitian(np.ones((2, 3)))


def test_purify_pure_input():
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    psi = purify(rho)
    assert psi.size == 2  # dim E = 1
    assert np.allclose(np.abs(psi), [1.0, 0.0])


def test_purify_maximally_mixed():
    psi = purify(np.eye(2, dtype=complex) / 2)
    assert psi.size == 4
    assert np.allclose(trace_out_environment(psi, 2), np.eye(2) / 2, atol=1e-12)


def test_purify_rank3_reconstruction():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    psi = purify(rho)
    assert psi.size == 4 * 3
    assert np.linalg.norm(trace_out_environment(psi, 4) - rho) < 1e-10


def test_purify_rejects_nonstate():
    with pytest.raises(ValueError):
        purify(np.diag([1.0, 1.0]))  # trace 2
    with pytest.raises(ValueError):
        purify(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        purify(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        purify(np.ones(4) / 4)  # not a matrix


def test_purify_equals_the_eigh_of_the_state_bitwise():
    for seed in range(5):
        rho = random_state(4, seed)
        w, U = eigh(rho)
        assert np.array_equal(purify(rho), (U * np.sqrt(w)).reshape(-1))


def test_matricize_elementary():
    v = np.zeros(4)
    v[1] = 1.0  # |01>
    M = matricize(v, BipartiteDims(2, 2))
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.array_equal(M, expected)


def test_matricize_maximally_entangled():
    for d in (2, 4):
        M = matricize(maximally_entangled(d), BipartiteDims(d, d))
        assert np.allclose(M, np.eye(d) / np.sqrt(d))


def test_matricize_round_trip():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    M = matricize(v, BipartiteDims(2, 3))
    assert np.allclose(M.reshape(-1), v)


@settings(max_examples=25, deadline=None)
@given(
    da=st.integers(min_value=1, max_value=4),
    db=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kron_trace_multiplicative(da, db, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
    B = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
    lhs = np.trace(kron(A, B))
    rhs = np.trace(A) * np.trace(B)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@settings(max_examples=25, deadline=None)
@given(
    da=st.integers(min_value=1, max_value=4),
    db=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partial_trace_of_kron(da, db, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
    B = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
    out = partial_trace(kron(A, B), BipartiteDims(da, db), "B")
    assert np.allclose(out, np.trace(B) * A, atol=1e-12 * max(1.0, abs(np.trace(B))))


@settings(max_examples=25, deadline=None)
@given(
    da=st.integers(min_value=1, max_value=5),
    db=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matricize_isometry(da, db, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
    M = matricize(v, BipartiteDims(da, db))
    assert abs(np.linalg.norm(M) - np.linalg.norm(v)) < 1e-12 * max(
        1.0, np.linalg.norm(v)
    )


def test_purify_partial_trace_round_trip():
    rho = random_state(5, 9)
    psi = purify(rho)
    assert np.linalg.norm(trace_out_environment(psi, 5) - rho) < 1e-10
