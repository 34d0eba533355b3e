import dataclasses

import numpy as np
import pytest
from conftest import dense_pair_effects
import oracles

from biccert import algebra, bell, bic, reproduce
from biccert.linalg import (
    BipartiteDims,
    Checks,
    apply_local,
    frobenius,
    frobenius_each,
    kron,
    maximally_entangled,
    random_hermitian,
    random_unitary,
)


def test_package_exports_resolve():
    import biccert

    assert len(set(biccert.__all__)) == len(biccert.__all__)
    namespace = {}
    exec("from biccert import *", namespace)  # raises on a name that does not resolve
    assert set(biccert.__all__) <= namespace.keys()


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------

def _assert_brackets_dense_oracle(X, S):
    """``check_as_relations`` against ``oracles.dense_relations``.

    Each pair bound core + tail of ``_pair_bounds`` lies between the exact
    residual less the rounding allowance 8 m eps ||X_j||_F^2 ||X_k||_F and the
    exact residual plus 2 tail plus that allowance: core is within tail of the
    exact residual, both ways.  The named worst offender is a relation whose
    own residual attains ``measured``, and ``measured`` never reads below the
    oracle's beyond the allowance.
    """
    X = np.asarray(X, dtype=complex)
    n, m = X.shape[:2]
    found, dense = algebra.check_as_relations(X, S), oracles.dense_relations(X, S)
    core, tail = algebra._pair_bounds(X, S.s)
    exact = oracles.dense_pair_residuals(X, S.s)
    norms = frobenius_each(X)
    allow = 8 * m * np.finfo(float).eps * norms[:, None] ** 2 * norms[None, :]
    bound = core + tail
    inside = (exact - allow <= bound) & (bound <= exact + 2 * tail + allow)
    assert inside[~np.eye(n, dtype=bool)].all()

    if isinstance(found.worst, tuple):
        at = tuple(i - 1 for i in found.worst)
        assert found.measured == bound[at]
        assert exact[at] - allow[at] <= found.measured <= exact[at] + 2 * tail[at] + allow[at]
    else:
        own = dict(enumerate(frobenius_each(X @ X - X), start=1))
        own["completeness"] = frobenius(X.sum(axis=0) - S.d * np.eye(m))
        assert found.measured == own[found.worst]
    slack = allow[tuple(i - 1 for i in dense.worst)] if isinstance(dense.worst, tuple) else 0.0
    assert found.measured >= dense.measured - slack
    return found, dense


def _rank(X):
    """The common rank r of ``_pair_bounds``' eigenparts."""
    return algebra._eigenparts(X)[0].shape[1]


def test_weyl_family_passes_all_variants(weyl_povm_d3):
    P = weyl_povm_d3.projections()
    S = bic.gram(weyl_povm_d3)
    found = algebra.check_as_relations(P, S)
    assert found.name == "standard relations"
    assert found.passed, found.measured


def test_random_projections_fail_gram_relation(weyl_povm_d2):
    S = bic.gram(weyl_povm_d2)
    # projective and summing to 2I, so only X_j X_k X_j = s_jk X_j can fail
    e0, e1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    found, _ = _assert_brackets_dense_oracle(np.stack([e0, e1, e0, e1]), S)
    assert not found.passed
    assert found.measured > 0.1
    assert isinstance(found.worst, tuple) and len(found.worst) == 2
    # a perturbed Weyl family fails too
    P = weyl_povm_d2.projections().copy()
    P[0] += 1e-3 * np.eye(2)
    assert not _assert_brackets_dense_oracle(P, S)[0].passed


@pytest.mark.parametrize("d", [2, 3, 4])
def test_check_as_relations_matches_per_pair_loop(d):
    # projections of another POVM: projective and complete, so a pair is the worst
    S = bic.gram(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))
    X = bic.construct_generic_bic(d, 5).projections()
    found, dense = _assert_brackets_dense_oracle(X, S)
    # rank-one X ties (j, k) with (k, j) up to rounding, so either may be named
    assert isinstance(found.worst, tuple) and isinstance(dense.worst, tuple)
    assert not found.passed


def _reference_relation_families(povm):
    """S and the audit's two relation families of the reference strategy:
    Bob's compressed effects and the compressed dual operators."""
    S = bic.gram(povm)
    ref = bell.reference_strategy(povm)
    audit, (F, _) = bell.walk(ref, algebra.certification_reader(ref, S),
                              bell.pair_fold_reader(ref, S))
    C = algebra.dual_alice_operators(ref, S, F)
    return S, algebra.compress(ref.bob, audit.VB), algebra.compress(C, audit.UA)


@pytest.mark.parametrize("kind, d", [("weyl", 3), ("weyl", 4), ("weyl", 5), ("weyl", 6),
                                     ("generic", 4), ("generic", 5), ("generic", 6)])
def test_relation_bounds_bracket_the_reference_families(kind, d):
    povm = (bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)) if kind == "weyl"
            else bic.construct_generic_bic(d, 1))
    S, B_hat, C_hat = _reference_relation_families(povm)
    for X in (B_hat, C_hat):
        assert _rank(X) == 1
        found, _ = _assert_brackets_dense_oracle(X, S)
        assert found.passed and found.measured < 1e-13


def test_relation_bounds_bracket_perturbed_and_general_families(weyl_povm_d3, weyl_povm_d4):
    rng = np.random.default_rng(7)
    # rank 2 at m = 4: each projection plus a small rank-one term
    X = weyl_povm_d4.projections().copy()
    w = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    X += 1e-6 * w[:, :, None] * w[:, None, :].conj()
    assert _rank(X) == 2
    assert not _assert_brackets_dense_oracle(X, bic.gram(weyl_povm_d4))[0].passed
    # non-hermitian: the anti-hermitian part enters the bound through D_j
    S = bic.gram(weyl_povm_d3)
    Y = weyl_povm_d3.projections() + 1e-3 * (rng.standard_normal((9, 3, 3))
                                               + 1j * rng.standard_normal((9, 3, 3)))
    assert not _assert_brackets_dense_oracle(Y, S)[0].passed
    # full rank, r = m
    H = random_hermitian(3, rng, (9,))
    assert _rank(H) == 3
    assert not _assert_brackets_dense_oracle(H, S)[0].passed


def test_check_as_relations_reads_nan_without_raising(weyl_povm_d3, monkeypatch):
    eigh = np.linalg.eigh

    def refusing_eigh(a, *args, **kwargs):
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("non-finite input")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", refusing_eigh)
    X = weyl_povm_d3.projections().copy()
    X[4, 1, 2] = np.nan
    found = algebra.check_as_relations(X, bic.gram(weyl_povm_d3))
    assert np.isnan(found.measured) and not found.passed


def test_criterion_9_relation_residual_stays_below_criterion_1_headroom():
    # criterion 1 reads 8.5e-14 against 1e-9 (4.07 decades); criterion 9's
    # threshold is 1e-10, so below 8e-15 it cannot become report's minimum
    measured = reproduce.run_criterion(9).checks["max relation residual"].measured
    assert measured < 8e-15


def test_standard_relations_accept_both_exceptional_and_minimal_families(sic3_povm):
    # the relations do not see the block dimension: the 6-dimensional family
    # and a true 3-dimensional family both satisfy them
    S, X = algebra.counterexample_gram(), algebra.counterexample_rep()
    assert _rank(X) == 2
    assert _assert_brackets_dense_oracle(X, S)[0].passed
    assert algebra.check_as_relations(sic3_povm.projections(), S).passed


def test_check_as_relations_size_mismatch(weyl_povm_d2):
    S = bic.gram(weyl_povm_d2)
    with pytest.raises(ValueError):
        algebra.check_as_relations(np.zeros((3, 2, 2)), S)


# ---------------------------------------------------------------------------
# the exceptional 6x6 family
# ---------------------------------------------------------------------------

def test_counterexample_published_relations():
    X = algebra.counterexample_rep()
    assert X.shape == (9, 6, 6)
    assert frobenius(X.sum(axis=0) - 3 * np.eye(6)) < 1e-10
    for j in range(9):
        assert frobenius(X[j] @ X[j] - X[j]) < 1e-10
        assert abs(np.trace(X[j]).real - 2.0) < 1e-12  # dim/d = 6/3
        for k in range(9):
            if j != k:
                assert frobenius(X[j] @ X[k] @ X[j] - 0.25 * X[j]) < 1e-10


def test_counterexample_span_dimension():
    X = algebra.counterexample_rep()
    products = [X[j] @ X[k] for j in range(9) for k in range(9)]
    assert algebra.span_dimension(products) == 25


def test_counterexample_irreducible():
    dec = algebra.irrep_decompose(algebra.counterexample_rep())
    assert dec.shape_multiset == ((1, 6),)
    assert dec.off_block_residual < 1e-8


def test_span_dimension_basics(weyl_povm_d3):
    assert algebra.span_dimension([np.eye(4)]) == 1
    P = weyl_povm_d3.projections()
    products = [P[j] @ P[k] for j in range(9) for k in range(9)]
    assert algebra.span_dimension(products) == 9  # spanning family fills M_3


# ---------------------------------------------------------------------------
# local supports and compressions
# ---------------------------------------------------------------------------

def test_local_support_full_rank():
    phi = maximally_entangled(3)
    rho = np.outer(phi, phi.conj())
    sup = algebra.local_support(rho, BipartiteDims(3, 3), "A")
    assert sup.shape == (3, 3)


def test_local_support_product_basis_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    for side in ("A", "B"):
        sup = algebra.local_support(rho, BipartiteDims(2, 2), side)
        assert sup.shape == (2, 1)


def test_local_support_projector_fixes_state():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    supA = algebra.local_support(rho, BipartiteDims(2, 3), "A")
    supB = algebra.local_support(rho, BipartiteDims(2, 3), "B")
    assert frobenius(kron(supA @ supA.conj().T, np.eye(3)) @ rho - rho) < 1e-9
    assert frobenius(kron(np.eye(2), supB @ supB.conj().T) @ rho - rho) < 1e-9


def test_compress_identity_cases():
    phi = maximally_entangled(2)
    rho = np.outer(phi, phi.conj())
    sup = algebra.local_support(rho, BipartiteDims(2, 2), "A")
    assert np.allclose(algebra.compress(np.eye(2), sup), np.eye(2), atol=1e-12)
    X = np.array([[1.0, 2j], [-2j, 0.0]])
    hat = algebra.compress(X, sup)
    # full support: compression is a unitary change of basis
    assert np.allclose(np.sort(np.linalg.eigvalsh(hat)), np.sort(np.linalg.eigvalsh(X)))
    with pytest.raises(ValueError):
        algebra.compress(np.eye(3), sup)


def test_compressed_reference_bob_passes_relations(reference_d2):
    ref, S = reference_d2
    sup = algebra.local_support(ref.rho, ref.dims, "B")
    B_hat = np.stack([algebra.compress(B, sup) for B in ref.bob])
    assert algebra.check_as_relations(B_hat, S).passed


# ---------------------------------------------------------------------------
# irreducible decomposition
# ---------------------------------------------------------------------------

def test_irrep_single_bic_family(weyl_povm_d3):
    dec = algebra.irrep_decompose(weyl_povm_d3.projections())
    assert dec.shape_multiset == ((1, 3),)


def test_irrep_inflated_family(weyl_povm_d2):
    P = weyl_povm_d2.projections()
    inflated = np.stack([np.kron(np.eye(2), Pj) for Pj in P])
    dec = algebra.irrep_decompose(inflated)
    assert dec.shape_multiset == ((2, 2),)
    blk = dec.blocks[0]
    assert blk.generators.shape == (4, 2, 2)
    # conjugated generators match the block model exactly; the stacked model
    # is the per-generator one, bitwise
    Q = dec.basis_change
    stacked = dec.block_matrix([b.generators for b in dec.blocks])
    assert stacked.shape == (4, 4, 4)
    for j, Xj in enumerate(inflated):
        model = dec.block_matrix([b.generators[j] for b in dec.blocks])
        assert frobenius(Q.conj().T @ Xj @ Q - model) < 1e-8
        assert np.array_equal(stacked[j], model)


def test_irrep_failure_names_each_attempts_reason(monkeypatch, weyl_povm_d2):
    # with every link between equivalent copies refused, no attempt verifies
    P = weyl_povm_d2.projections()
    inflated = np.stack([np.kron(np.eye(2), Pj) for Pj in P])
    monkeypatch.setattr(algebra, "_unitarized", lambda M: None)
    with pytest.raises(ValueError) as err:
        algebra.irrep_decompose(inflated)
    message = str(err.value)
    assert "after 8 attempts" in message
    assert "not a multiple of a unitary (x8)" in message
    assert "off-block mass" not in message and "0.000e+00" not in message


def _mixed_rep(sic3_povm):
    """The 9x9 representation: the SIC-3 block beside the exceptional 6x6 family."""
    X6 = algebra.counterexample_rep()
    P3 = sic3_povm.projections()
    return np.stack(
        [np.block([[P3[j], np.zeros((3, 6))], [np.zeros((6, 3)), X6[j]]]) for j in range(9)]
    )


def test_irrep_mixed_inequivalent_blocks(sic3_povm):
    dec = algebra.irrep_decompose(_mixed_rep(sic3_povm))
    assert dec.shape_multiset == ((1, 3), (1, 6))


def test_irrep_trace_law_and_divisibility(sic3_povm, weyl_povm_d2):
    X6 = algebra.counterexample_rep()
    families = [
        (3, sic3_povm.projections()),
        (3, X6),
        (2, weyl_povm_d2.projections()),
    ]
    for d, X in families:
        dec = algebra.irrep_decompose(X)
        for blk in dec.blocks:
            assert blk.dimension % d == 0
            for G in blk.generators:
                assert abs(np.trace(G).real - blk.dimension / d) < 1e-8


def test_irrep_basis_covariance(weyl_povm_d2):
    P = weyl_povm_d2.projections()
    inflated = np.stack([np.kron(np.eye(2), Pj) for Pj in P])
    baseline = algebra.irrep_decompose(inflated).shape_multiset
    rng = np.random.default_rng(12)
    for seed in range(3):
        U = random_unitary(4, rng)
        conjugated = np.stack([U @ Xj @ U.conj().T for Xj in inflated])
        assert algebra.irrep_decompose(conjugated, seed=seed).shape_multiset == baseline


def _criterion_10_family(family, request):
    """One of the representations the irrep-structure criterion decomposes."""
    if family == "mixed":
        return _mixed_rep(request.getfixturevalue("sic3_povm"))
    if family == "exceptional":
        return algebra.counterexample_rep()
    if family == "generic_d2":
        return bic.construct_generic_bic(2, 5).projections()
    kind, d = family.split("_")
    P = request.getfixturevalue(f"weyl_povm_{d}").projections()
    return P if kind == "weyl" else np.stack([np.kron(np.eye(2), Pj) for Pj in P])


CRITERION_10_FAMILIES = ["weyl_d2", "weyl_d3", "inflated_d2", "inflated_d3", "generic_d2",
                         "exceptional", "mixed"]


@pytest.mark.parametrize("family, count", [
    ("weyl_d2", 1), ("weyl_d3", 1), ("inflated_d2", 4), ("inflated_d3", 4),
    ("generic_d2", 1), ("exceptional", 1), ("mixed", 2),
])
def test_commutant_basis_on_the_irrep_criterion_families(family, count, request):
    # the representations the irrep-structure criterion decomposes; the count is
    # the sum of squared multiplicities of their irreducible blocks
    X = _criterion_10_family(family, request)
    basis = algebra._commutant_basis(X, np.random.default_rng(0))
    assert len(basis) == count
    commutators = X[None] @ basis[:, None] - basis[:, None] @ X[None]
    assert np.abs(commutators).max() < 1e-12
    gram = np.einsum("iab,jab->ij", basis.conj(), basis)
    assert np.abs(gram - np.eye(count)).max() < 1e-12


def _assert_same_span(basis, oracle):
    """Two orthonormal bases (k, n, n) of one space: the overlap of the two has
    every singular value within 1e-12 of 1."""
    assert basis.shape == oracle.shape
    overlap = basis.reshape(len(basis), -1).conj() @ oracle.reshape(len(oracle), -1).T
    assert 1.0 - np.linalg.svd(overlap, compute_uv=False).min() < 1e-12


def _conjugates(X, seed):
    """X and a random-unitary conjugate of it."""
    U = random_unitary(X.shape[1], np.random.default_rng(seed))
    return X, U @ X @ U.conj().T


@pytest.mark.parametrize("family", CRITERION_10_FAMILIES)
def test_commutant_spans_the_kron_oracle_on_the_criterion_10_families(family, request):
    for X in _conjugates(_criterion_10_family(family, request), 3):
        for seed in range(3):
            basis = algebra._commutant_basis(X, np.random.default_rng(seed))
            _assert_same_span(basis, oracles.commutant_basis_kron(X))


@pytest.mark.parametrize("d", range(2, 9))
def test_commutant_spans_the_kron_oracle_on_weyl_povms(d):
    P = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)).projections()
    for X in _conjugates(P, d):
        basis = algebra._commutant_basis(X, np.random.default_rng(d))
        assert len(basis) == 1  # the orbit spans every d x d matrix
        _assert_same_span(basis, oracles.commutant_basis_kron(X))


@pytest.mark.parametrize("family, d", [("inflated_d2", 2), ("inflated_d3", 3)])
def test_irrep_keeps_the_multiplicity_of_inflated_families(family, d, request):
    # every eigenvalue of the random element is doubly degenerate here; a split
    # eigenspace would lose commutant elements and show two blocks of multiplicity 1
    for X in _conjugates(_criterion_10_family(family, request), 5):
        for seed in range(4):
            assert algebra.irrep_decompose(X, seed=seed).shape_multiset == ((2, d),)


def _intertwiner_count(A, B):
    """The dimension of {T : T A_j = B_j T for all j}, from its k^2 unknowns."""
    k = A.shape[-1]
    eye = np.eye(k)
    rows = np.concatenate([kron(eye, Aj.T) - kron(Bj, eye) for Aj, Bj in zip(A, B)])
    sv = np.linalg.svd(rows, compute_uv=False)
    return int((sv <= 1e-10 * max(1.0, sv[0])).sum())


def test_irrep_separates_two_inequivalent_weyl_blocks_of_one_dimension():
    P, Q = (bic.construct_weyl_bic(3, bic.geometric_fiducial(3, r, t)).projections()
            for r, t in ((0.3, 0.137), (0.25, 0.21)))
    zero = np.zeros((3, 3))
    X = np.stack([np.block([[Pj, zero], [zero, Qj]]) for Pj, Qj in zip(P, Q)])
    for seed in range(4):
        assert len(algebra._commutant_basis(X, np.random.default_rng(seed))) == 2
        dec = algebra.irrep_decompose(X, seed=seed)
        assert dec.shape_multiset == ((1, 3), (1, 3))
        first, second = (blk.generators for blk in dec.blocks)
        assert _intertwiner_count(first, first) == 1  # the identity, a sanity check
        assert _intertwiner_count(first, second) == 0


def test_irrep_rejects_nonhermitian():
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        algebra.irrep_decompose(bad)


def test_irrep_rejects_nan_generator():
    bad = np.zeros((2, 2, 2), dtype=complex)
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="hermitian"):
        algebra.irrep_decompose(bad)


# ---------------------------------------------------------------------------
# block-maximally-entangled decomposition
# ---------------------------------------------------------------------------

def test_maxent_reference_single_block(reference_d2, reference_d3):
    for ref, _ in (reference_d2, reference_d3):
        d = ref.dims.dA
        report = algebra.maxent_decompose(
            ref.rho, np.stack([B.T for B in ref.bob]), ref.bob, ref.dims
        )
        assert len(report.blocks) == 1
        blk = report.blocks[0]
        assert (blk.alice_multiplicity, blk.bob_multiplicity, blk.dimension) == (1, 1, d)
        assert report.max_state_residual < 1e-9
        assert report.ef_transpose_residual < 1e-8


def test_maxent_remark_mixture_separates_e_from_f():
    E1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    F1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    psi1 = np.zeros(9, dtype=complex)
    psi1[0] = psi1[7] = 1 / np.sqrt(2)  # (|00> + |21>)/sqrt(2)
    psi2 = np.zeros(9, dtype=complex)
    psi2[3] = psi2[8] = 1 / np.sqrt(2)  # (|10> + |22>)/sqrt(2)
    rho = 0.5 * (np.outer(psi1, psi1.conj()) + np.outer(psi2, psi2.conj()))
    report = algebra.maxent_decompose(rho, [E1], [F1], BipartiteDims(3, 3))
    assert all(b.dimension == 1 for b in report.blocks)
    assert report.max_state_residual < 1e-9
    # the decomposition succeeds, yet compressed E differs from compressed F^t
    assert report.ef_transpose_residual > 1e-2
    multiplicities = sorted(
        (b.alice_multiplicity, b.bob_multiplicity) for b in report.blocks
    )
    assert multiplicities == [(1, 2), (2, 1)]


def test_maxent_scalar_sync_product_state():
    sigma = np.diag([0.7, 0.3]).astype(complex)
    tau = np.diag([0.5, 0.5]).astype(complex)
    rho = kron(sigma, tau)
    E = [0.4 * np.eye(2, dtype=complex)]
    F = [0.4 * np.eye(2, dtype=complex)]
    report = algebra.maxent_decompose(rho, E, F, BipartiteDims(2, 2))
    assert all(b.dimension == 1 for b in report.blocks)


def test_maxent_pure_state_equal_multiplicities(weyl_povm_d2, sic3_povm):
    # direct sum of two equivalent copies: one block with e = f = 2 and
    # compressed E equal to compressed F transposed (purity case)
    P = weyl_povm_d2.projections()
    U = random_unitary(2, np.random.default_rng(9))
    F = np.stack(
        [
            np.block(
                [[P[j], np.zeros((2, 2))], [np.zeros((2, 2)), U @ P[j] @ U.conj().T]]
            )
            for j in range(4)
        ]
    )
    E = np.stack([Fj.T for Fj in F])
    G = np.diag([np.sqrt(1.2)] * 2 + [np.sqrt(0.8)] * 2).astype(complex)
    psi = kron(G, np.eye(4)) @ maximally_entangled(4)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    report = algebra.maxent_decompose(rho, E, F, BipartiteDims(4, 4))
    assert [
        (b.alice_multiplicity, b.bob_multiplicity, b.dimension) for b in report.blocks
    ] == [(2, 2, 2)]
    assert report.max_state_residual < 1e-8
    assert report.ef_transpose_residual < 1e-8

    # direct sum of two inequivalent blocks (dimensions 3 and 6, same S)
    X6 = algebra.counterexample_rep()
    P3 = sic3_povm.projections()
    F2 = np.stack(
        [
            np.block([[P3[j], np.zeros((3, 6))], [np.zeros((6, 3)), X6[j]]])
            for j in range(9)
        ]
    )
    E2 = np.stack([Fj.T for Fj in F2])
    G2 = np.diag([np.sqrt(1.2)] * 3 + [np.sqrt(0.8)] * 6).astype(complex)
    psi2 = kron(G2, np.eye(9)) @ maximally_entangled(9)
    psi2 /= np.linalg.norm(psi2)
    rho2 = np.outer(psi2, psi2.conj())
    report2 = algebra.maxent_decompose(rho2, E2, F2, BipartiteDims(9, 9))
    assert [
        (b.alice_multiplicity, b.bob_multiplicity, b.dimension)
        for b in report2.blocks
    ] == [(1, 1, 3), (1, 1, 6)]
    assert report2.max_state_residual < 1e-8
    assert report2.ef_transpose_residual < 1e-8


def test_maxent_decomposes_rho_once(monkeypatch, reference_d2):
    ref, _ = reference_d2
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def counted(H, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(H))
            return _original(H, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    algebra.maxent_decompose(ref.rho, np.stack([B.T for B in ref.bob]), ref.bob, ref.dims)
    assert shapes.count(ref.rho.shape) == 1


def test_maxent_refuses_a_bob_block_without_partner(monkeypatch, reference_d2):
    # Bob's side gains a one-dimensional block on a zero column: the state
    # links it to no Alice block, so the partner table is no perfect matching
    ref, _ = reference_d2
    decompose = algebra.irrep_decompose

    def with_orphan(X, seed=0):
        dec = decompose(X, seed=seed)
        if seed == 0:  # Alice's side
            return dec
        Q = np.hstack([dec.basis_change, np.zeros((len(dec.basis_change), 1))])
        orphan = algebra.IrrepBlock(1, 1, np.zeros((len(X), 1, 1), dtype=complex))
        return algebra.IrrepDecomposition(Q, dec.blocks + (orphan,), dec.off_block_residual)

    monkeypatch.setattr(algebra, "irrep_decompose", with_orphan)
    with pytest.raises(ValueError, match="block matching failure"):
        algebra.maxent_decompose(ref.rho, np.stack([B.T for B in ref.bob]), ref.bob, ref.dims)


def test_maxent_sync_precondition():
    rho = np.eye(4, dtype=complex) / 4
    E = [np.diag([1.0, 0.0]).astype(complex)]
    F = [np.diag([0.0, 1.0]).astype(complex)]
    with pytest.raises(ValueError, match="sync"):
        algebra.maxent_decompose(rho, E, F, BipartiteDims(2, 2))


# ---------------------------------------------------------------------------
# full certification audit
# ---------------------------------------------------------------------------

def _certify(strat, S, tol=1e-9):
    """verify_certification given the Bell value, pair fold and audit of one walk."""
    value, fold, audit = bell.walk(strat, bell.bell_value_reader(strat, S),
                                   bell.pair_fold_reader(strat, S),
                                   algebra.certification_reader(strat, S))
    return algebra.verify_certification(strat, S, value, fold[0], audit, tol=tol)


def test_certify_refuses_a_povm_that_fails_validation(lattice_povm_d2):
    run = algebra.certify(lattice_povm_d2)
    validation = bic.validate_bic(lattice_povm_d2, tol=1e-9)
    assert validation.failures() == ["gram_invertible"]
    assert run.to_json() == {"inputValidation": validation.to_json(), "passed": False}
    assert run.checks is None and not run.optimal and run.seconds is None


def test_certify_forms_one_gram_matrix(monkeypatch, weyl_povm_d3):
    grams = []
    gram = bic.gram

    def counted(povm):
        grams.append(povm)
        return gram(povm)

    for module in (bic, bell):  # bell calls its own imported name
        monkeypatch.setattr(module, "gram", counted)
    assert algebra.certify(weyl_povm_d3).checks.passed
    assert grams == [weyl_povm_d3]


@pytest.mark.parametrize("fixture", ["reference_d2", "reference_d3", "reference_d4"])
def test_certification_reference(fixture, request):
    ref, S = request.getfixturevalue(fixture)
    cert = _certify(ref, S, tol=1e-9)
    assert cert.optimal
    assert cert.passed
    assert cert.max_residual <= 1e-9
    assert cert.checks["povm c"].measured <= 1e-9
    assert cert.checks["c relations"].passed


def test_certification_depolarized_is_advisory(reference_d2):
    ref, S = reference_d2
    cert = _certify(oracles.depolarize(ref, 0.9), S)
    assert not cert.optimal and not cert.passed
    assert cert.bell_value < 4.0


def test_dual_operators_reduce_to_bob_transpose(reference_d3):
    ref, S = reference_d3
    ((F, _),) = bell.walk(ref, bell.pair_fold_reader(ref, S))
    C = algebra.dual_alice_operators(ref, S, F)
    for j in range(9):
        assert frobenius(C[j] - ref.bob[j].T) < 1e-10


def _full_rho_state_residuals(strat, S):
    """sync_pair, sync_povm and c_sync maxima with every relation applied to
    the full rho, one pair and one outcome at a time."""
    dims, rho = strat.dims, strat.rho
    weights, _ = bell._coefficients(S)
    sync_pair = [
        frobenius(apply_local(w / 2 * (A1 - A2), rho, dims, "A")
                  - apply_local(strat.bob[j] - strat.bob[k], rho, dims, "B"))
        for (j, k), (A1, A2), (w, _) in zip(strat.pairs, dense_pair_effects(strat), weights)
    ]
    sync_povm = []
    for Ej, Bj in zip(strat.alice_povm, strat.bob):
        E_rho = apply_local(Ej, rho, dims, "A")
        sync_povm.append(frobenius(E_rho - apply_local(Bj, E_rho, dims, "B")))
    ((F, _),) = bell.walk(strat, bell.pair_fold_reader(strat, S))
    C = algebra.dual_alice_operators(strat, S, F)
    c_sync = [
        frobenius(apply_local(Cj, rho, dims, "A") - apply_local(Bj, rho, dims, "B"))
        for Cj, Bj in zip(C, strat.bob)
    ]
    return np.array(sync_pair), max(sync_povm), max(c_sync)


def _reported_state_residuals(cert):
    return tuple(cert.checks[name].measured for name in ("sync pair", "sync povm", "c sync"))


@pytest.mark.parametrize(
    "case", ["reference_d2", "reference_d3", "reference_d4", "depolarized_d2", "random_d2"]
)
def test_rank_factor_residuals_match_full_rho(case, request):
    ref, S = request.getfixturevalue("reference_d2" if case.endswith("_d2") else case)
    strat = {
        "depolarized_d2": lambda: oracles.depolarize(ref, 0.9),
        "random_d2": lambda: bell.random_strategy(BipartiteDims(2, 2), 2, 3),
    }.get(case, lambda: ref)()
    sync_pair, sync_povm, c_sync = _full_rho_state_residuals(strat, S)
    cert = _certify(strat, S)
    for got, full in zip(_reported_state_residuals(cert), (sync_pair.max(), sync_povm, c_sync)):
        # never below the full-rho value, up to the rounding of the two products
        assert full - 1e-15 * max(1.0, full) <= got <= full + 1e-13


def test_dropped_eigenvalues_never_lower_a_residual(reference_d2):
    ref, S = reference_d2
    # eigenvalues 2.5e-13 of the noise fall below RANK_CUTOFF and leave the factor
    strat = oracles.depolarize(ref, 1.0 - 1e-12)
    sync_pair, sync_povm, c_sync = _full_rho_state_residuals(strat, S)
    cert = _certify(strat, S)
    for got, full in zip(_reported_state_residuals(cert), (sync_pair.max(), sync_povm, c_sync)):
        assert got >= full > 1e-14


def test_certification_names_worst_pair(reference_d2):
    ref, S = reference_d2
    effects = ref.alice_pair_effects.copy()
    effects[3] = effects[3, ::-1]  # swap the outcomes of pair (1, 2), 0-based
    broken = dataclasses.replace(ref, alice_pair_effects=effects)
    cert = _certify(broken, S)
    sync_pair, _, _ = _full_rho_state_residuals(broken, S)
    assert int(np.argmax(sync_pair)) == 3
    assert cert.checks["sync pair"].worst == (2, 3)
    payload = cert.to_json()
    assert payload["checks"]["sync pair"]["worst"] == [2, 3]
    assert payload["maxResidual"] == cert.max_residual and payload["passed"] is False
    assert _certify(ref, S).to_json()["checks"]["sync pair"]["worst"] is not None


def test_certification_relations_check_agrees_with_a_nan_family(reference_d2):
    ref, S = reference_d2
    cert = _certify(ref, S)
    nan = dataclasses.replace(cert.checks["c sync"], measured=float("nan"), passed=False)
    broken = dataclasses.replace(cert, checks=Checks([*cert.checks.values(), nan]))
    assert cert.relations.passed and cert.passed
    assert not broken.relations.passed and not broken.passed
    assert np.isnan(broken.max_residual) and broken.relations.worst.startswith("c sync")


def _compressed_alice_oracle(strat):
    """a projectivity and a orthogonality per pair, with each effect compressed
    to Alice's local support, one pair at a time."""
    UA = algebra.local_support(strat.rho, strat.dims, "A")
    proj, ortho = [], []
    for A1, A2 in dense_pair_effects(strat):
        A1h, A2h = algebra.compress(A1, UA), algebra.compress(A2, UA)
        proj.append(max(frobenius(A1h @ A1h - A1h), frobenius(A2h @ A2h - A2h)))
        ortho.append(frobenius(A1h @ A2h))
    return UA, np.array(proj), np.array(ortho)


def _assert_alice_checks_match_oracle(strat, S):
    UA, proj, ortho = _compressed_alice_oracle(strat)
    cert = _certify(strat, S)
    for name, oracle in (("a projectivity", proj), ("a orthogonality", ortho)):
        got = cert.checks[name]
        assert np.isclose(got.measured, oracle.max(), rtol=0, atol=1e-13, equal_nan=True)
        if not oracle.max() <= 1e-12:  # an argmax of rounding noise names no pair
            j, k = strat.pairs[int(np.argmax(oracle))]
            assert got.worst == (j + 1, k + 1)
    return UA, proj, cert


def test_alice_checks_with_full_support_match_compressed_oracle(reference_d2):
    # a full-rank state: the support is the whole space, reached by a unitary
    # that is not the identity, so the checks read the uncompressed effects
    strat = bell.random_strategy(BipartiteDims(3, 2), 2, 11)
    UA, _, _ = _assert_alice_checks_match_oracle(strat, reference_d2[1])
    assert UA.shape == (3, 3) and not np.allclose(np.abs(UA), np.eye(3), atol=1e-3)


def test_alice_checks_with_partial_support_still_compress(reference_d2):
    # the state lives on a random 2-dimensional subspace of Alice's C^3
    strat = bell.random_strategy(BipartiteDims(3, 2), 2, 11)
    Q = random_unitary(3, np.random.default_rng(12))[:, :2]
    P = kron(Q @ Q.conj().T, np.eye(2))
    rho = P @ strat.rho @ P
    strat = dataclasses.replace(strat, rho=rho / np.trace(rho).real)
    UA, proj, _ = _assert_alice_checks_match_oracle(strat, reference_d2[1])
    assert UA.shape == (3, 2)
    uncompressed = [max(frobenius(A @ A - A) for A in pair) for pair in dense_pair_effects(strat)]
    assert abs(max(uncompressed) - proj.max()) > 1e-3  # the compression changes the check


def test_alice_checks_of_stored_vectors_with_partial_support_compress(reference_d3):
    # the reference state restricted to a random 2-dimensional subspace of Alice's C^3
    ref, S = reference_d3
    assert ref.stores_vectors
    Q = random_unitary(3, np.random.default_rng(12))[:, :2]
    P = kron(Q @ Q.conj().T, np.eye(3))
    rho = P @ ref.rho @ P
    strat = dataclasses.replace(ref, rho=rho / np.trace(rho).real)
    UA, proj, _ = _assert_alice_checks_match_oracle(strat, S)
    assert UA.shape == (3, 2) and proj.max() > 0.1


def test_alice_checks_of_stored_vectors_name_a_tilted_pair(reference_d3):
    ref, S = reference_d3
    vectors = ref.alice_pair_effects.copy()
    vectors[17, 1] += 1e-6 * vectors[17, 0]
    tilted = dataclasses.replace(ref, alice_pair_effects=vectors)
    _, _, cert = _assert_alice_checks_match_oracle(tilted, S)
    j, k = ref.pairs[17]
    ortho = cert.checks["a orthogonality"]
    assert not ortho.passed and ortho.measured > 1e-7 and ortho.worst == (j + 1, k + 1) == (3, 6)
    assert cert.checks["a projectivity"].passed


def test_alice_checks_of_stored_vectors_read_a_nan(reference_d3):
    ref, S = reference_d3
    vectors = ref.alice_pair_effects.copy()
    vectors[17, 0, 1] = np.nan
    spoilt = dataclasses.replace(ref, alice_pair_effects=vectors)
    _, _, cert = _assert_alice_checks_match_oracle(spoilt, S)
    j, k = ref.pairs[17]
    proj = cert.checks["a projectivity"]
    assert np.isnan(proj.measured) and not proj.passed and proj.worst == (j + 1, k + 1)
