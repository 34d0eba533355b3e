import dataclasses

import numpy as np
import pytest
from conftest import dense_pair_effects
import oracles

from biccert import algebra, bell, bic, linalg, randomness
from biccert.linalg import (
    BipartiteDims,
    frobenius,
    kron,
    maximally_entangled,
    random_hermitian,
)


BELL_TERMS = {
    "pair_correlation",
    "pair_marginal_penalty",
    "bob_marginal_penalty",
    "povm_mismatch_penalty",
}


def test_scenario_shape_counts(reference_d2, reference_d3):
    (ref2, _), (ref3, _) = reference_d2, reference_d3
    assert len(bell.pair_list(4)) == 6 and len(bell.pair_list(9)) == 36
    # Alice: one setting per pair plus the povm setting; Bob: one per outcome.
    assert ref2.alice_pair_effects.shape[0] + 1 == 7
    assert ref2.bob.shape[0] == 4
    assert ref3.alice_pair_effects.shape[0] == 36
    assert ref3.bob.shape[0] == 9


def test_scenario_shape_lexicographic(reference_d2):
    ref2, _ = reference_d2
    assert bell.pair_list(4)[:3] == ((0, 1), (0, 2), (0, 3))
    for n in (4, 9):
        j, k = bell.pair_indices(n)
        assert list(zip(j.tolist(), k.tolist())) == list(bell.pair_list(n))
    assert ref2.pairs == bell.pair_list(4)
    # Outcomes 1 and 2 are stored; perp is I - A1 - A2.
    assert ref2.alice_pair_effects.shape[1] == 2
    assert ref2.alice_povm.shape[0] == 4


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reference_strategy_reaches_quantum_value(d):
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    S = bic.gram(povm)
    ref = bell.reference_strategy(povm)
    report = bell.bell_value(ref, S)
    assert abs(report.value - d * d) < 1e-9
    assert abs(report.gap) < 1e-9
    assert set(report.term_breakdown) == BELL_TERMS


def test_reference_strategy_generic_povm():
    povm = bic.construct_generic_bic(3, 9)
    ref = bell.reference_strategy(povm)
    assert abs(bell.bell_value(ref, bic.gram(povm)).value - 9.0) < 1e-9


def test_reference_pair_eigenvalues(reference_d3):
    ref, S = reference_d3
    B = ref.bob
    for j, k in ref.pairs[:10]:
        w = np.linalg.eigvalsh(B[j] - B[k])
        gamma = np.sqrt(1.0 - S.s[j, k])
        assert abs(w[-1] - gamma) < 1e-10
        assert abs(w[0] + gamma) < 1e-10


def test_reference_strategy_valid(reference_d3):
    ref, _ = reference_d3
    assert oracles.validate_strategy(ref).passed


def test_reference_rejects_degenerate_pair():
    vectors = np.tile(np.array([1.0, 0.0]), (4, 1)).astype(complex)
    povm = bic.BicPovm(d=2, vectors=vectors)
    with pytest.raises(ValueError, match="degenerate pair"):
        bell.reference_strategy(povm)


def test_bell_operator_hermitian(reference_d2):
    _, S = reference_d2
    for seed in range(5):
        strat = bell.random_strategy(BipartiteDims(2, 2), 2, seed)
        W = bell.bell_operator(strat, S, bell.walk(strat, bell.pair_fold_reader(strat, S))[0])
        assert frobenius(W - W.conj().T) < 1e-12 * max(1.0, frobenius(W))


def test_bell_operator_expectation_matches_phi(reference_d3):
    ref, S = reference_d3
    W = bell.bell_operator(ref, S, bell.walk(ref, bell.pair_fold_reader(ref, S))[0])
    phi = maximally_entangled(3)
    assert abs(np.real(phi.conj() @ W @ phi) - 9.0) < 1e-9


def test_quantum_bound_random_strategies(reference_d2):
    _, S = reference_d2
    for seed in range(50):
        strat = bell.random_strategy(BipartiteDims(2, 2), 2, seed)
        value = bell.bell_value(strat, S).value
        assert value <= 4.0 + 1e-8
        W = bell.bell_operator(strat, S, bell.walk(strat, bell.pair_fold_reader(strat, S))[0])
        assert np.linalg.eigvalsh(W)[-1] <= 4.0 + 1e-8


def test_maximally_mixed_state_obeys_bound(reference_d2):
    ref, S = reference_d2
    mixed = oracles.depolarize(ref, 0.0)
    assert bell.bell_value(mixed, S).value <= 4.0 + 1e-8


def _arbitrary_tuple_strategy(d, dims, rng):
    """Arbitrary hermitian operators for the d^2-outcome scenario on dims."""
    n = d * d
    dA, dB = dims.dA, dims.dB
    pairs = bell.pair_list(n)
    return bell.Strategy(
        dims=dims,
        rho=np.eye(dims.total, dtype=complex) / dims.total,
        alice_pair_effects=random_hermitian(dA, rng, (len(pairs), 2)),
        alice_povm=random_hermitian(dA, rng, (n,)),
        bob=random_hermitian(dB, rng, (n,)),
    )


# (d of the Gram matrix, Alice's and Bob's local dimensions)
TUPLE_CASES = [
    pytest.param(2, 2, 2, id="2"),
    pytest.param(3, 3, 3, id="3"),
    pytest.param(2, 2, 3, id="d2-dA2-dB3"),
    pytest.param(2, 3, 2, id="d2-dA3-dB2"),
]


def _assert_value_is_operator_trace(strat, S):
    report = bell.bell_value(strat, S)
    W = bell.bell_operator(strat, S, bell.walk(strat, bell.pair_fold_reader(strat, S))[0])
    expected = np.trace(W @ strat.rho).real
    assert abs(report.value - expected) < 1e-10
    assert set(report.term_breakdown) == BELL_TERMS


@pytest.mark.parametrize("d, dA, dB", TUPLE_CASES)
def test_bell_value_is_operator_trace_arbitrary_tuples(d, dA, dB):
    rng = np.random.default_rng(23)
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    S = bic.gram(povm)
    dims = BipartiteDims(dA, dB)
    n = dims.total
    for _ in range(10):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = G @ G.conj().T  # full rank almost surely
        strat = dataclasses.replace(
            _arbitrary_tuple_strategy(d, dims, rng), rho=rho / np.trace(rho).real
        )
        _assert_value_is_operator_trace(strat, S)


def test_bell_value_is_operator_trace_reference(reference_d4):
    _assert_value_is_operator_trace(*reference_d4)


@pytest.mark.parametrize("d, dA, dB", TUPLE_CASES)
def test_sos_identity_arbitrary_hermitian_tuples(d, dA, dB):
    rng = np.random.default_rng(17)
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    S = bic.gram(povm)
    dims = BipartiteDims(dA, dB)
    d2 = d * d
    for _ in range(20):
        strat = _arbitrary_tuple_strategy(d, dims, rng)
        W = bell.bell_operator(strat, S, bell.walk(strat, bell.pair_fold_reader(strat, S))[0])
        theta = bell.walk(strat, bell.sos_theta_reader(strat, S))[0]
        assert frobenius(W + theta - d2 * np.eye(dims.total)) <= 1e-9 * d2


def _sos_theta_oracle(strat, S):
    """Theta_d term by term: one dense hybrid @ hybrid product per pair."""
    dA, dB = strat.dims.dA, strat.dims.dB
    IA, IB = np.eye(dA), np.eye(dB)
    theta = np.zeros((dA * dB, dA * dB), dtype=complex)
    for (j, k), (A1, A2) in zip(strat.pairs, dense_pair_effects(strat)):
        c = np.sqrt(1.0 - S.s[j, k])
        hybrid = c * kron(A1 - A2, IB) - kron(IA, strat.bob[j] - strat.bob[k])
        theta += hybrid @ hybrid
        theta += (1.0 - S.s[j, k]) * kron(A1 + A2 - (A1 - A2) @ (A1 - A2), IB)
    completeness = S.d * kron(IA, IB) - kron(IA, strat.bob.sum(axis=0))
    theta += completeness @ completeness
    for Ej, Bj in zip(strat.alice_povm, strat.bob):
        theta += kron(Ej, IB - Bj) + S.d**2 * kron(IA, Bj - Bj @ Bj)
    return theta


@pytest.mark.parametrize("d, dA, dB", TUPLE_CASES)
def test_sos_theta_matches_per_pair_oracle(d, dA, dB):
    rng = np.random.default_rng(29)
    S = bic.gram(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))
    for _ in range(5):
        strat = _arbitrary_tuple_strategy(d, BipartiteDims(dA, dB), rng)
        theta = bell.walk(strat, bell.sos_theta_reader(strat, S))[0]
        assert frobenius(theta - _sos_theta_oracle(strat, S)) <= 1e-12 * d * d


def test_sos_theta_matches_per_pair_oracle_reference(reference_d4):
    ref, S = reference_d4
    theta = bell.walk(ref, bell.sos_theta_reader(ref, S))[0]
    assert frobenius(theta - _sos_theta_oracle(ref, S)) <= 1e-12 * 16


def _stacked(strategies):
    """One stack of the given single strategies."""
    fields = ("rho", "alice_pair_effects", "alice_povm", "bob")
    return dataclasses.replace(
        strategies[0], **{f: np.stack([getattr(s, f) for s in strategies]) for f in fields})


def test_sos_theta_never_uses_the_bell_operator(monkeypatch):
    _assert_sos_theta_never_uses_the_bell_operator(monkeypatch, stack=0)


def test_sos_theta_never_uses_the_bell_operator_for_stacks(monkeypatch):
    _assert_sos_theta_never_uses_the_bell_operator(monkeypatch, stack=3)


def _assert_sos_theta_never_uses_the_bell_operator(monkeypatch, stack):
    rng = np.random.default_rng(31)
    S = bic.gram(bic.construct_weyl_bic(2, bic.geometric_fiducial(2, 0.3, 0.137)))
    strat = _arbitrary_tuple_strategy(2, BipartiteDims(2, 3), rng)
    if stack:
        strat = _stacked([strat] + [_arbitrary_tuple_strategy(2, BipartiteDims(2, 3), rng)
                                    for _ in range(stack - 1)])
    W = bell.bell_operator(strat, S, bell.walk(strat, bell.pair_fold_reader(strat, S))[0])

    def forbidden(*args, **kwargs):
        raise AssertionError("Theta_d must be built without W_d or its pair fold")

    monkeypatch.setattr(bell, "pair_fold_reader", forbidden)
    monkeypatch.setattr(bell, "bell_operator", forbidden)
    theta = bell.walk(strat, bell.sos_theta_reader(strat, S))[0]
    assert theta.shape == strat.stack + (6, 6)
    for R in (W + theta - 4 * np.eye(6)).reshape(-1, 6, 6):
        assert frobenius(R) <= 1e-9 * 4


def _assert_pair_fold_matches_signed_loop(strat, S):
    dA = strat.dims.dA
    F = np.zeros((S.n, dA, dA), dtype=complex)
    M = np.zeros((dA, dA), dtype=complex)
    for (j, k), (A1, A2) in zip(strat.pairs, dense_pair_effects(strat)):
        F[j] += 2 * np.sqrt(1 - S.s[j, k]) * (A1 - A2)
        F[k] -= 2 * np.sqrt(1 - S.s[j, k]) * (A1 - A2)
        M += (1 - S.s[j, k]) * (A1 + A2)
    ((F_got, M_got),) = bell.walk(strat, bell.pair_fold_reader(strat, S))
    assert np.allclose(F_got, F, rtol=0, atol=1e-12) and np.allclose(M_got, M, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d, dA, dB", TUPLE_CASES)
def test_pair_fold_matches_signed_loop(d, dA, dB):
    rng = np.random.default_rng(37)
    S = bic.gram(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))
    _assert_pair_fold_matches_signed_loop(
        _arbitrary_tuple_strategy(d, BipartiteDims(dA, dB), rng), S)


@pytest.mark.parametrize("d", [4, 5])
def test_pair_fold_matches_signed_loop_reference(d):
    # at d = 4 and 5 a block boundary falls inside a run of pairs of one j
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    j_all, _ = bell.pair_indices(d * d)
    bounds = range(bell._PAIR_BLOCK, len(j_all), bell._PAIR_BLOCK)
    assert any(j_all[b - 1] == j_all[b] for b in bounds)
    _assert_pair_fold_matches_signed_loop(bell.reference_strategy(povm), bic.gram(povm))


def _povm(povm_id):
    d = int(povm_id.lstrip("abcdefghijklmnopqrstuvwxyz"))
    if povm_id.startswith("generic"):
        return bic.construct_generic_bic(d, 9)
    return bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))


STORAGE_CASES = ["weyl2", "weyl3", "weyl4", "generic3"]


@pytest.mark.parametrize("povm_id", STORAGE_CASES)
def test_reference_pair_effects_match_per_pair_eigh(povm_id):
    povm = _povm(povm_id)
    ref = bell.reference_strategy(povm)
    B = povm.projections()
    for (j, k), effects in zip(ref.pairs, dense_pair_effects(ref)):
        _, V = np.linalg.eigh(B[j] - B[k])
        for a, effect in zip((V[:, -1], V[:, 0]), effects):
            assert np.abs(effect - np.outer(a, a.conj()).T).max() <= 1e-12


def _closed_form_pair_effects(povm):
    """The dense reference pair effects as the closed form built them when it
    stored every (|a><a|)^t / tr as a d x d matrix, kept bit for bit."""
    d, n = povm.d, povm.d * povm.d
    pair_effects = np.zeros((len(bell.pair_list(n)), 2, d, d), dtype=complex)
    for block, j, k in bell.pair_blocks(n):
        e_j, e_k = povm.vectors[j], povm.vectors[k]
        norm_j = np.linalg.norm(e_j, axis=1)
        q1 = e_j / norm_j[:, None]
        alpha = np.einsum("pa,pa->p", q1.conj(), e_k)
        rest = e_k - alpha[:, None] * q1
        beta = np.linalg.norm(rest, axis=1)
        a, b, c = norm_j**2 - np.abs(alpha) ** 2, -alpha * beta, -beta**2
        h = (a - c) / 2
        r = np.hypot(h, np.abs(b))
        x, y = np.where(h >= 0, h + r, b), np.where(h >= 0, b.conj(), r - h)
        x, y = (v / np.hypot(np.abs(x), np.abs(y)) for v in (x, y))
        q2 = rest / beta[:, None]
        a1 = x[:, None] * q1 + y[:, None] * q2
        a2 = -y.conj()[:, None] * q1 + x.conj()[:, None] * q2
        a_pair = np.stack([a1, a2], axis=1)
        effects = a_pair[:, :, None, :] * a_pair.conj()[:, :, :, None]
        pair_effects[block] = effects / np.einsum("piaa->pi", effects).real[:, :, None, None]
    return pair_effects


# weyl6: 630 pairs, two reference blocks of 64 * 6 = 384, checked against blocks of 64
@pytest.mark.parametrize("povm_id", STORAGE_CASES + ["weyl6"])
def test_expanded_pair_effects_equal_the_closed_form(povm_id):
    povm = _povm(povm_id)
    ref = bell.reference_strategy(povm)
    assert np.array_equal(dense_pair_effects(ref), _closed_form_pair_effects(povm))


@pytest.mark.parametrize("povm_id", STORAGE_CASES + ["weyl10"])
def test_vector_and_dense_storage_agree_bitwise(povm_id):
    # bitwise but for "a projectivity" and "a orthogonality", which the audit
    # reads from the vectors in closed form and from dense effects by products
    povm = _povm(povm_id)
    S = bic.gram(povm)
    vectors = bell.reference_strategy(povm)
    dense = dataclasses.replace(vectors, alice_pair_effects=dense_pair_effects(vectors))
    assert vectors.alice_pair_effects.ndim == 3 and dense.alice_pair_effects.ndim == 4
    strats = (vectors, dense)
    walks = [bell.walk(strat, bell.bell_value_reader(strat, S), bell.pair_fold_reader(strat, S),
                       bell.sos_theta_reader(strat, S), algebra.certification_reader(strat, S))
             for strat in strats]
    values, folds = [w[0] for w in walks], [w[1] for w in walks]
    for got, expected in zip(*folds):
        assert np.array_equal(got, expected)
    assert values[0] == values[1]
    sos = [bell.sos_certificate(strat, S, fold, theta)
           for strat, (_, fold, theta, _) in zip(strats, walks)]
    assert sos[0] == sos[1]
    audits = [w[3] for w in walks]
    _assert_bitwise(*(audit._replace(a_proj=None, a_ortho=None) for audit in audits))
    certs = [algebra.verify_certification(strat, S, value, fold[0], audit).to_json()
             for strat, (value, fold, _, audit) in zip(strats, walks)]
    # both read rounding noise: held to a bracket, and their worst labels, argmaxes
    # of that noise (none for an exact 0), left out
    bracket = 16 * povm.d * np.finfo(float).eps
    for name in ("a projectivity", "a orthogonality"):
        vector_check, dense_check = (cert["checks"].pop(name) for cert in certs)
        for record in (vector_check, dense_check):
            measured, worst = record.pop("measured"), record.pop("worst")
            assert 0.0 <= measured <= bracket and (worst is None) == (measured == 0.0)
        assert vector_check == dense_check
    assert certs[0] == certs[1]


def _walk_case(case):
    """(strategy, S): a vector-stored reference, a dense random strategy, a
    stack of three, or a random strategy on dims (2, 3)."""
    if case in ("weyl3", "generic4"):
        povm = _povm(case)
        return bell.reference_strategy(povm), bic.gram(povm)
    dims = BipartiteDims(2, 3) if case == "dims23" else BipartiteDims(2, 2)
    seed = [41, 42, 43] if case == "stack3" else 41
    return bell.random_strategy(dims, 2, seed), bic.gram(_povm("weyl2"))


def _assert_bitwise(got, expected):
    """Equal bit for bit, through dataclasses, dicts, tuples and arrays."""
    if dataclasses.is_dataclass(got):
        got, expected = vars(got), vars(expected)
    if isinstance(got, dict):
        assert got.keys() == expected.keys()
        for key in got:
            _assert_bitwise(got[key], expected[key])
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            _assert_bitwise(a, b)
    else:
        assert np.shape(got) == np.shape(expected) and np.array_equal(got, expected)


@pytest.mark.parametrize("case", ["weyl3", "generic4", "random", "stack3", "dims23"])
def test_one_walk_equals_the_standalone_readers_bitwise(case):
    strat, S = _walk_case(case)
    readers = [bell.bell_value_reader, bell.pair_fold_reader, bell.sos_theta_reader]
    if not strat.stack:  # the certification audit takes one strategy at a time
        readers.append(algebra.certification_reader)
    alone = [bell.walk(strat, reader(strat, S))[0] for reader in readers]
    _assert_bitwise(bell.walk(strat, *(reader(strat, S) for reader in readers)), alone)
    if strat.stack:
        return
    value, fold, theta, audit = alone
    _assert_bitwise(audit.spectrum, linalg.eigh(strat.rho, tol=1e-8))
    if case not in ("weyl3", "generic4"):
        return
    # every stage of ``certify`` equals its inputs taken from one-reader walks
    run = algebra.certify(_povm(case))
    _assert_bitwise(run.bell, value)
    _assert_bitwise(run.sos, bell.sos_certificate(strat, S, fold, theta))
    _assert_bitwise(run.certification,
                    algebra.verify_certification(strat, S, value, fold[0], audit))
    _assert_bitwise(run.randomness,
                    randomness.randomness_report(strat, S, value, audit.spectrum))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reference_pair_effects_are_stored_as_vectors(d):
    ref = bell.reference_strategy(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))
    P = len(ref.pairs)
    assert ref.alice_pair_effects.shape == (P, 2, d)
    assert ref.alice_pair_effects.nbytes == P * 2 * d * 16
    # no dense copy hides behind the vectors or another field
    for field in dataclasses.fields(ref):
        owner = getattr(ref, field.name)
        while isinstance(owner, np.ndarray):
            assert owner.size != P * 2 * d * d
            owner = owner.base


def test_reference_errors_name_the_first_pair():
    vectors = np.tile(np.array([1.0, 0.0]), (4, 1)).astype(complex)
    with pytest.raises(ValueError, match=r"degenerate pair \(0, 1\): overlap s_jk=1"):
        bell.reference_strategy(bic.BicPovm(d=2, vectors=vectors))
    # a vector of norm 1e-7 leaves B_0 - B_1 without a negative eigenvalue above 1e-12
    vectors = bic.construct_weyl_bic(2, bic.geometric_fiducial(2, 0.3, 0.137)).vectors.copy()
    vectors[1] *= 1e-7
    with pytest.raises(ValueError, match=r"pair \(0, 1\) difference lacks a \+/- eigenvalue pair"):
        bell.reference_strategy(bic.BicPovm(d=2, vectors=vectors))


def test_reference_refuses_a_degenerate_pair_in_its_last_block():
    # d=6: 630 pairs in reference blocks of 384; (34, 35) is the last pair
    assert len(bell.pair_list(36)) > bell._PAIR_BLOCK * 6
    vectors = _povm("weyl6").vectors.copy()
    vectors[35] = vectors[34]
    with pytest.raises(ValueError, match=r"degenerate pair \(34, 35\): overlap s_jk="):
        bell.reference_strategy(bic.BicPovm(d=6, vectors=vectors))


def test_bell_value_never_folds_the_pairs(reference_d3, monkeypatch):
    ref, S = reference_d3
    expected = bell.bell_value(ref, S)

    def forbidden(*args, **kwargs):
        raise AssertionError("bell_value evaluates the pairs without pair_fold")

    monkeypatch.setattr(bell, "pair_fold_reader", forbidden)
    assert bell.bell_value(ref, S) == expected


def _long_double_reference_value(povm, S):
    """The Bell value of the reference strategy in extended precision, from the
    POVM vectors: each pair's eigenvectors a1, a2 of B_j - B_k by the 2x2
    closed form, and every trace against the maximally entangled state
    (R_Y = Y^t / d) written out in the vectors."""
    d = povm.d
    e = povm.vectors.astype(np.clongdouble)
    s = S.s.astype(np.longdouble)
    j, k = np.array(bell.pair_list(d * d)).T
    e_j, e_k = e[j], e[k]
    norm_j = np.sqrt(np.sum(np.abs(e_j) ** 2, axis=1))
    q1 = e_j / norm_j[:, None]
    alpha = np.sum(q1.conj() * e_k, axis=1)
    rest = e_k - alpha[:, None] * q1
    beta = np.sqrt(np.sum(np.abs(rest) ** 2, axis=1))
    q2 = rest / beta[:, None]
    a, b, c = norm_j**2 - np.abs(alpha) ** 2, -alpha * beta, -beta**2
    h = (a - c) / 2
    assert (h > 0).all()
    r = np.sqrt(h**2 + np.abs(b) ** 2)
    x, y = h + r, b.conj()
    norm = np.sqrt(np.abs(x) ** 2 + np.abs(y) ** 2)
    x, y = x / norm, y / norm
    a1 = x[:, None] * q1 + y[:, None] * q2
    a2 = -y.conj()[:, None] * q1 + x.conj()[:, None] * q2

    def weight(u, v):  # |<u|v>|^2 per pair
        return np.abs(np.sum(u.conj() * v, axis=1)) ** 2

    corr = weight(a1, e_j) - weight(a1, e_k) - weight(a2, e_j) + weight(a2, e_k)
    marg = np.sum(np.abs(a1) ** 2 + np.abs(a2) ** 2, axis=1)
    norms2 = np.sum(np.abs(e) ** 2, axis=1)
    value = np.sum(2 * np.sqrt(1 - s[j, k]) * corr - (1 - s[j, k]) * marg) / d
    value -= (d - 2) * np.sum(norms2)
    value -= np.sum(norms2 - norms2**2) / d**2
    return value


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("povm_id", ["weyl6", "weyl8", "weyl10", "generic8"])
def test_bell_value_matches_long_double_oracle(povm_id):
    d = int(povm_id.lstrip("weylgeneric"))
    povm = (bic.construct_generic_bic(d, 1) if povm_id.startswith("generic")
            else bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))
    S = bic.gram(povm)
    value = bell.bell_value(bell.reference_strategy(povm), S).value
    assert abs(np.longdouble(value) - _long_double_reference_value(povm, S)) <= 1e-13


def test_overlap_above_one_is_refused(reference_d2):
    ref, S = reference_d2
    s = S.s.copy()
    s[1, 3] = s[3, 1] = 1.5
    with pytest.raises(ValueError, match=r"pair \(1, 3\) has overlap s_jk=1.5 above 1"):
        bell.bell_value(ref, bic.GramMatrix(d=2, s=s))


def test_sos_identity_independent_of_povm_validity(reference_d2):
    ref, S = reference_d2
    rng = np.random.default_rng(3)
    valid = bell.random_strategy(BipartiteDims(2, 2), 2, 0)
    invalid = _arbitrary_tuple_strategy(2, BipartiteDims(2, 2), rng)
    for strat in (ref, valid, invalid):
        cert = bell.sos_certificate(strat, S, *bell.walk(strat, bell.pair_fold_reader(strat, S),
                                                  bell.sos_theta_reader(strat, S)))
        assert cert.identity_residual <= 1e-9 * 4


def test_sos_theta_psd_and_annihilates_reference(reference_d3):
    ref, S = reference_d3
    cert = bell.sos_certificate(ref, S, *bell.walk(ref, bell.pair_fold_reader(ref, S),
                                              bell.sos_theta_reader(ref, S)))
    assert cert.theta_min_eigenvalue >= -1e-9
    assert cert.theta_rho_residual <= 1e-9


def test_sos_theta_psd_random_valid(reference_d2):
    _, S = reference_d2
    for seed in range(20):
        strat = bell.random_strategy(BipartiteDims(2, 2), 2, seed)
        cert = bell.sos_certificate(strat, S, *bell.walk(strat, bell.pair_fold_reader(strat, S),
                                                  bell.sos_theta_reader(strat, S)))
        assert cert.theta_min_eigenvalue >= -1e-8


def test_correlation_reference_structure(reference_d2):
    ref, _ = reference_d2
    corr = oracles.correlation(ref)
    assert oracles.validate_correlation(corr).passed
    # povm outcomes are uniform and never disagree with Bob's matching setting
    dist = corr.povm_probs.sum(axis=2)[:, 0]
    assert np.abs(dist - 0.25).max() < 1e-10
    for j in range(4):
        assert corr.povm_probs[j, j, 1] < 1e-12


def test_correlation_product_state_factorizes():
    rng = np.random.default_rng(11)
    strat = bell.random_strategy(BipartiteDims(2, 2), 2, 4)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    tau = np.diag([0.4, 0.6]).astype(complex)
    product = bell.Strategy(
        dims=strat.dims,
        rho=kron(sigma, tau),
        alice_pair_effects=strat.alice_pair_effects,
        alice_povm=strat.alice_povm,
        bob=strat.bob,
    )
    corr = oracles.correlation(product)
    for p in range(len(corr.pairs)):
        for y in range(4):
            for a in range(3):
                for b in range(2):
                    pa = corr.pair_probs[p, y, a, :].sum()
                    pb = corr.pair_probs[p, y, :, b].sum()
                    assert abs(corr.pair_probs[p, y, a, b] - pa * pb) < 1e-10


def test_correlation_normalization_random():
    for seed in (0, 1):
        strat = bell.random_strategy(BipartiteDims(2, 3), 2, seed)
        corr = oracles.correlation(strat)
        report = oracles.validate_correlation(corr)
        assert report.passed, report.failures()


@pytest.mark.parametrize("d", [2, 3])
def test_dual_evaluation_agreement(d):
    povm = bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137))
    S = bic.gram(povm)
    for seed in range(25):
        strat = bell.random_strategy(BipartiteDims(d, d), d, seed)
        direct = bell.bell_value(strat, S).value
        from_table = oracles.bell_value_from_correlation(oracles.correlation(strat), S)
        assert abs(direct - from_table) < 1e-9


def test_dual_evaluation_reference(reference_d2):
    ref, S = reference_d2
    corr = oracles.correlation(ref)
    assert abs(oracles.bell_value_from_correlation(corr, S) - 4.0) < 1e-9


def test_bell_value_all_perp_table(reference_d2):
    # Alice and Bob output perp deterministically on pair settings; the povm
    # marginal is uniform: only the povm penalty survives and sums to -1.
    _, S = reference_d2
    n = 4
    pairs = bell.pair_list(n)
    pair_probs = np.zeros((len(pairs), n, 3, 2))
    pair_probs[:, :, 2, 1] = 1.0
    povm_probs = np.zeros((n, n, 2))
    povm_probs[:, :, 1] = 1.0 / n
    corr = oracles.Correlation(
        n_outcomes=n, pairs=pairs, pair_probs=pair_probs, povm_probs=povm_probs
    )
    assert abs(oracles.bell_value_from_correlation(corr, S) - (-1.0)) < 1e-12


def test_bell_value_from_correlation_refuses_another_scenario(reference_d2, reference_d3):
    ref, _ = reference_d2
    _, S3 = reference_d3
    with pytest.raises(ValueError, match="4 outcomes, S expects 9"):
        oracles.bell_value_from_correlation(oracles.correlation(ref), S3)


def test_random_strategy_validity_and_determinism():
    for seed in range(100):
        strat = bell.random_strategy(BipartiteDims(2, 2), 2, seed)
        assert oracles.validate_strategy(strat).passed
    a = bell.random_strategy(BipartiteDims(2, 2), 2, 7)
    b = bell.random_strategy(BipartiteDims(2, 2), 2, 7)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.alice_pair_effects, b.alice_pair_effects)
    assert np.array_equal(a.alice_povm, b.alice_povm)
    assert np.array_equal(a.bob, b.bob)


def _random_strategy_one_povm_at_a_time(dims, d, seed):
    """Oracle for ``random_strategy``: every POVM drawn and normalized on its
    own, one Ginibre matrix per call, in the order state, pair POVMs, the
    povm setting, Bob's binary POVMs."""
    rng = np.random.default_rng(seed)

    def ginibre(m):
        return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

    def povm(dim, outcomes):
        raw = np.empty((outcomes, dim, dim), dtype=complex)
        for a in range(outcomes):
            G = ginibre(dim)
            raw[a] = G @ G.conj().T
        w, U = np.linalg.eigh(raw.sum(axis=0))
        inv_sqrt = (U / np.sqrt(w)) @ U.conj().T
        return np.einsum("ab,xbc,cd->xad", inv_sqrt, raw, inv_sqrt)

    G = ginibre(dims.total)
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    n = d * d
    pair_effects = np.stack([povm(dims.dA, 3)[:2] for _ in bell.pair_list(n)])
    alice_povm = povm(dims.dA, n)
    bob = np.stack([povm(dims.dB, 2)[0] for _ in range(n)])
    return rho, pair_effects, alice_povm, bob


@pytest.mark.parametrize("dA, dB", [(2, 2), (3, 3), (2, 3)])
def test_random_strategy_matches_one_povm_at_a_time_bitwise(dA, dB):
    for seed in (0, 1, 7, 42):
        strat = bell.random_strategy(BipartiteDims(dA, dB), dA, seed)
        expected = _random_strategy_one_povm_at_a_time(BipartiteDims(dA, dB), dA, seed)
        got = (strat.rho, strat.alice_pair_effects, strat.alice_povm, strat.bob)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("dA, dB", [(2, 2), (3, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("seed", [5, [0, 1, 7, 42, 3]])
def test_random_strategy_matches_the_four_draw_stream_bitwise(dA, dB, seed):
    dims = BipartiteDims(dA, dB)
    strat = bell.random_strategy(dims, dA, seed)
    expected = oracles.random_strategy_four_draws(dims, dA, seed)
    for field, want in zip(("rho", "alice_pair_effects", "alice_povm", "bob"), expected):
        assert np.array_equal(getattr(strat, field), want), field
    # without pair effects the draws still advance each seed's stream
    skipped = bell._random_strategy(dims, dA, seed, pair_effects=False)
    for field, want in zip(("rho", "alice_povm", "bob"), expected[:1] + expected[2:]):
        assert np.array_equal(getattr(skipped, field), want), field
    assert not skipped.alice_pair_effects.any()
    assert skipped.alice_pair_effects.shape == strat.alice_pair_effects.shape


def test_correlation_requires_all_pairs_in_order():
    n = 4
    pairs = bell.pair_list(n)
    probs = dict(pair_probs=np.zeros((len(pairs), n, 3, 2)), povm_probs=np.zeros((n, n, 2)))
    for bad in (pairs[::-1], pairs[:-1], ((0, 1),) * len(pairs)):
        with pytest.raises(ValueError, match="outcome pairs in order"):
            oracles.Correlation(n_outcomes=n, pairs=bad, **probs)


def test_depolarize_endpoints_and_affinity(reference_d2):
    ref, S = reference_d2
    unchanged = oracles.depolarize(ref, 1.0)
    assert np.allclose(unchanged.rho, ref.rho)
    mixed = oracles.depolarize(ref, 0.0)
    assert np.allclose(mixed.rho, np.eye(4) / 4)
    v1 = bell.bell_value(ref, S).value
    v0 = bell.bell_value(mixed, S).value
    for v in (0.25, 0.5, 0.9):
        value = bell.bell_value(oracles.depolarize(ref, v), S).value
        assert abs(value - (v * v1 + (1 - v) * v0)) < 1e-10
    with pytest.raises(ValueError):
        oracles.depolarize(ref, 1.5)


def test_bell_operator_dimension_mismatch(reference_d2):
    _, S2 = reference_d2
    strat3 = bell.random_strategy(BipartiteDims(3, 3), 3, 0)
    with pytest.raises(ValueError):
        bell.bell_operator(strat3, S2, bell.walk(strat3, bell.pair_fold_reader(strat3, S2))[0])
    with pytest.raises(ValueError):
        bell.bell_value(strat3, S2)


def test_strategy_requires_every_pair_in_order(reference_d2):
    ref, _ = reference_d2
    # three of the six d=2 pairs used to give a Bell value of 2.0 silently;
    # the pairs themselves are always all of them, in order
    assert ref.pairs == bell.pair_list(4)
    for count in (3, 5):
        with pytest.raises(ValueError, match="one \\(A1, A2\\) per pair"):
            dataclasses.replace(ref, alice_pair_effects=ref.alice_pair_effects[:count])
    for shape in ((6, 2, 3), (6, 3, 2), (6, 2, 2, 3), (6, 2, 2, 2, 2)):
        with pytest.raises(ValueError, match="one \\(A1, A2\\) per pair"):
            dataclasses.replace(ref, alice_pair_effects=np.zeros(shape, dtype=complex))
    # a stack shares its leading axes across all four arrays
    with pytest.raises(ValueError, match="one \\(A1, A2\\) per pair"):
        dataclasses.replace(ref, rho=ref.rho[None])
    with pytest.raises(ValueError, match="one stack shape"):
        dataclasses.replace(ref, bob=ref.bob[None])


@pytest.mark.parametrize("dA, dB", [(2, 2), (3, 3), (2, 3)])
def test_random_strategy_stack_equals_the_per_seed_draws_bitwise(dA, dB):
    dims, seeds = BipartiteDims(dA, dB), [0, 1, 7, 42, 3]
    stack = bell.random_strategy(dims, dA, seeds)
    assert stack.stack == (5,)
    for i, seed in enumerate(seeds):
        one, member = bell.random_strategy(dims, dA, seed), stack.member(i)
        for field in ("rho", "alice_pair_effects", "alice_povm", "bob"):
            assert np.array_equal(getattr(member, field), getattr(one, field))
    assert bell.random_strategy(dims, dA, range(2, 4)).stack == (2,)


def _all_layers(strat, S):
    """What pair_fold_reader, bell_operator, sos_theta_reader, sos_certificate
    and bell_value return at one strategy or a stack."""
    fold, theta = bell.walk(strat, bell.pair_fold_reader(strat, S), bell.sos_theta_reader(strat, S))
    sos = bell.sos_certificate(strat, S, fold, theta)
    value = bell.bell_value(strat, S)
    return {
        "F": fold[0], "M": fold[1],
        "W": bell.bell_operator(strat, S, fold), "theta": theta,
        "identity": sos.identity_residual, "eig": sos.theta_min_eigenvalue,
        "theta rho": sos.theta_rho_residual,
        "value": value.value, "gap": value.gap,
        **{f"term {name}": t for name, t in value.term_breakdown.items()},
    }


@pytest.mark.parametrize("case", ["random d2", "random d3", "reference d3", "tuple d2-dA3-dB2"])
def test_stack_of_one_equals_the_single_call_bitwise(case, reference_d3):
    kind, d = case.split()[0], int(case.split()[1][1])
    if kind == "reference":  # its pair effects are stored as vectors
        one, S = reference_d3
    else:
        S = bic.gram(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))
        one = (bell.random_strategy(BipartiteDims(d, d), d, 5) if kind == "random" else
               _arbitrary_tuple_strategy(d, BipartiteDims(3, 2), np.random.default_rng(5)))
    single, stacked = _all_layers(one, S), _all_layers(_stacked([one]), S)
    for name, value in single.items():
        assert np.shape(stacked[name]) == (1,) + np.shape(value), name
        assert np.array_equal(stacked[name][0], value), name
        if np.ndim(value) == 0:
            assert type(value) is float, name


@pytest.mark.parametrize("d, dA, dB", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 2, 3)])
def test_stack_members_equal_their_single_calls(d, dA, dB):
    S = bic.gram(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, 0.3, 0.137)))
    dims, seeds = BipartiteDims(dA, dB), [11, 12, 13, 14, 15]
    stacked = _all_layers(bell.random_strategy(dims, d, seeds), S)
    for i, seed in enumerate(seeds):
        single = _all_layers(bell.random_strategy(dims, d, seed), S)
        for name, value in single.items():
            # residuals that are rounding noise are held to 1e-13 absolute
            scale = max(np.abs(value).max(), 1.0 if name in ("identity", "eig", "theta rho")
                        else 0.0)
            assert np.abs(stacked[name][i] - value).max() <= 1e-13 * scale, name
