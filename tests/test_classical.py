import gc
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import oracles

from biccert import bic, classical
from biccert.classical import bic_gram_d2

SIC_VALUE = (8.0 / 3.0) * (math.sqrt(6.0) - 1.0)


def test_subset_value_empty_set():
    S = bic_gram_d2(1 / 3, 1 / 3)
    assert classical.subset_value([], S) == -1.0


def test_subset_value_singletons_exceed_d():
    for t1, t2 in ((1 / 3, 1 / 3), (0.2, 0.5), (0.45, 0.1)):
        S = bic_gram_d2(t1, t2)
        for j in range(4):
            assert classical.subset_value([j], S) > 2.0


def test_subset_value_full_set_has_empty_boundary():
    S = bic_gram_d2(1 / 3, 1 / 3)
    # d = 2: -d(d-2) |J| vanishes and the cross-boundary sum is empty
    assert abs(classical.subset_value(range(4), S)) < 1e-12
    povm = bic.construct_weyl_bic(3, bic.geometric_fiducial(3, 0.3, 0.137))
    S3 = bic.gram(povm)
    assert abs(classical.subset_value(range(9), S3) - (-3 * 9)) < 1e-9


def test_subset_value_index_range():
    S = bic_gram_d2(1 / 3, 1 / 3)
    with pytest.raises(ValueError):
        classical.subset_value([5], S)
    with pytest.raises(ValueError, match="not a stack"):
        classical.subset_value([0], bic.GramMatrix.stack([S, S]))


def test_classical_value_sic_case():
    result = classical.classical_value(bic_gram_d2(1 / 3, 1 / 3))
    assert abs(result.best_value - SIC_VALUE) < 1e-9
    assert result.best_value < 4.0
    assert result.best_value <= result.upper_bound < 4.0
    assert abs(result.quantum_gap - (4.0 - SIC_VALUE)) < 1e-12
    # the brute-force oracle reproduces the same number independently
    assert abs(classical.brute_force_classical(bic_gram_d2(1 / 3, 1 / 3)) - SIC_VALUE) < 1e-9


def test_classical_value_tie_break_lexicographic():
    # the SIC point is fully symmetric: every 2-subset ties, so the winner
    # must be the lexicographically first one
    result = classical.classical_value(bic_gram_d2(1 / 3, 1 / 3))
    assert result.best_subset == (0, 1)
    assert 0 < len(result.best_subset) < 4


def test_brute_force_matches_formula_on_random_instances():
    for seed in range(20):
        S = bic.gram(bic.construct_generic_bic(2, 100 + seed))
        enum = classical.classical_value(S).best_value
        oracle = classical.brute_force_classical(S)
        assert abs(enum - oracle) < 1e-9


def test_brute_force_rejects_large_d():
    povm = bic.construct_weyl_bic(3, bic.geometric_fiducial(3, 0.3, 0.137))
    with pytest.raises(ValueError):
        classical.brute_force_classical(bic.gram(povm))


def test_deterministic_score_all_bob_zero_stratum():
    # with every b_j = 0 only the povm penalty and nonpositive pair penalties
    # survive, so no assignment in the stratum beats -1
    S = bic_gram_d2(0.3, 0.25)
    n_pairs = 6
    best = -np.inf
    for povm_index in range(4):
        for code in range(3**n_pairs):
            choices = [(code // 3**p) % 3 for p in range(n_pairs)]
            best = max(
                best,
                oracles.deterministic_score(S, choices, [0, 0, 0, 0], povm_index),
            )
    assert best <= -1.0 + 1e-12


def test_deterministic_score_matches_brute_force_maximum():
    S = bic_gram_d2(0.3, 0.25)
    target = classical.brute_force_classical(S)
    best = -np.inf
    for povm_index in range(4):
        for b_code in range(16):
            bits = [(b_code >> j) & 1 for j in range(4)]
            for code in range(3**6):
                choices = [(code // 3**p) % 3 for p in range(6)]
                best = max(
                    best, oracles.deterministic_score(S, choices, bits, povm_index)
                )
    assert abs(best - target) < 1e-12


def test_classical_upper_bound_dominates_value():
    for seed in range(5):
        S = bic.gram(bic.construct_generic_bic(2, 300 + seed))
        result = classical.classical_value(S)
        assert result.upper_bound >= result.best_value - 1e-9
        assert result.upper_bound < 4.0


def test_classical_upper_bound_matches_plain_enumeration():
    grams = [bic.gram(bic.construct_generic_bic(2, 300 + seed)) for seed in range(5)]
    povm = bic.construct_weyl_bic(3, bic.geometric_fiducial(3, 0.3, 0.137))
    grams.append(bic.gram(povm))
    for S in grams:
        d, n = S.d, S.n
        min_boundary = min(
            sum(S.s[j, k] ** 2 for j in J for k in range(n) if k not in J)
            for m in range(1, 2 * d)
            for J in combinations(range(n), m)
        )
        expected = d * d - 0.25 * min_boundary
        assert abs(classical.classical_value(S).upper_bound - expected) < 1e-12


def _plain_classical(S):
    """Plain itertools oracle: subset_value on every J, the same tie rule."""
    d, n = S.d, S.n
    Q = S.s**2
    scored, min_boundary = [], math.inf
    for m in range(1, 2 * d):
        for J in combinations(range(n), m):  # cardinality, then lexicographic
            inside = np.isin(np.arange(n), J)
            scored.append((classical.subset_value(J, S), J))
            min_boundary = min(min_boundary, Q[np.ix_(inside, ~inside)].sum())
    floor = max(v for v, _ in scored) - classical._TIE_TOL * d * d
    value, J = next((v, J) for v, J in scored if v >= floor)
    return value, J, d * d - 0.25 * min_boundary


def _weyl_gram(d, r=0.3, t=0.137):
    return bic.gram(bic.construct_weyl_bic(d, bic.geometric_fiducial(d, r, t)))


ORACLE_GRAMS = (
    [pytest.param(lambda: bic_gram_d2(1 / 3, 1 / 3), id="sic")]
    + [
        pytest.param(lambda s=s: bic.gram(bic.construct_generic_bic(2, s)), id=f"d2-{s}")
        for s in range(100, 120)
    ]
    + [
        pytest.param(lambda s=s: bic.gram(bic.construct_generic_bic(3, s)), id=f"d3-{s}")
        for s in range(6)
    ]
    + [pytest.param(lambda d=d: _weyl_gram(d), id=f"weyl-d{d}") for d in (3, 4)]
)


@pytest.mark.parametrize("make_gram", ORACLE_GRAMS)
def test_classical_value_matches_plain_oracle(make_gram):
    S = make_gram()
    value, subset, upper = _plain_classical(S)
    result = classical.classical_value(S)
    assert abs(result.best_value - value) <= 1e-12
    assert abs(result.upper_bound - upper) <= 1e-12
    assert result.best_subset == subset


def _prefix_expansion_payoff(S):
    gap = np.clip(1.0 - S.s, 0.0, None)  # the diagonal carries float noise around 0
    W = 2.0 * np.sqrt(gap) - gap
    np.fill_diagonal(W, 0.0)
    return W


def _prefix_expansion_classical(S, *, allow_d5=False,
                                max_subsets=classical.MAX_SUBSETS_DEFAULT):
    """Bitwise regression oracle: the prefix expansion as it stood before the
    cardinality bounds, every subset scored, kept verbatim with its payoff
    matrix."""
    d, n = S.d, S.n
    max_card = classical._check_budget(S, allow_d5, max_subsets)
    band = classical._TIE_TOL * d * d
    Q = S.s**2
    np.fill_diagonal(Q, 0.0)
    # every step of a parent drops by rows[k] = 2 (W[k], Q[k]) when k joins it
    rows = 2.0 * np.stack([_prefix_expansion_payoff(S), Q], axis=1)
    outcomes, top, min_boundary, scored = np.arange(n), -math.inf, math.inf, 0
    records = [[] for _ in range(max_card + 1)]  # per |J|: (value, bitmask) prefix maxima

    def expand(m, score, step, last, mask):
        nonlocal top, min_boundary, scored
        for b in range(0, len(last), classical._PARENTS):
            s = slice(b, b + classical._PARENTS)
            pi, k = (outcomes > last[s, None]).nonzero()
            if not len(k):
                continue
            scored += len(k)
            child, child_mask = score[s][pi] + step[s][pi, :, k], mask[s][pi] | (1 << k)
            values = child[:, 0]
            top = max(top, float(values.max()))
            min_boundary = min(min_boundary, float(child[:, 1].min()))
            run = records[m]
            for i in (values >= top - band).nonzero()[0]:
                if not run or values[i] > run[-1][0]:
                    run.append((float(values[i]), int(child_mask[i])))
            if m < max_card:
                expand(m + 1, child, step[s][pi] - rows[k], k, child_mask)

    root_step = 0.5 * rows.sum(axis=2).T - np.array([[d * (d - 2)], [0.0]])
    expand(1, np.zeros((1, 2)), root_step[None], np.array([-1]), np.zeros(1, np.int64))
    best_value, best_mask = next(r for run in records for r in run if r[0] >= top - band)

    return classical.ClassicalResult(
        best_value=best_value,
        best_subset=tuple(j for j in range(n) if best_mask >> j & 1),
        upper_bound=float(d * d - 0.25 * min_boundary),
        quantum_gap=d * d - best_value,
        subsets_scored=scored,
        search_space=scored,
    )


def _generic_gram(d, seed):
    return bic.gram(bic.construct_generic_bic(d, seed))


def _criterion_4_grams():
    grid = [(i / 21.5, j / 21.5) for i in range(1, 21) for j in range(1, 21)]
    return [bic_gram_d2(1 / 3, 1 / 3)] + [
        bic_gram_d2(t1, t2) for t1, t2 in grid if t1 + t2 < 1.0
    ]


def _mixed_pruning_d4_grams():
    # generic d=4 and Weyl (0.45, 0.0733) score the 2,516 subsets up to |J| = 4,
    # Weyl (0.4, 0.02) those up to 5 and Weyl (0.3, 0.2) up to 6; Weyl (0.25,
    # 0.21) scores all 26,332, so the blocks of a stack mix members that leave
    # the recursion at different levels with one that never does
    return [_generic_gram(4, s) for s in (1, 3, 4)] + [
        _weyl_gram(4, 0.25, 0.21), _weyl_gram(4, 0.45, 0.0733), _weyl_gram(4, 0.4, 0.02),
        _weyl_gram(4, 0.3, 0.2)]


BITWISE_GRAMS = [
    pytest.param(_criterion_4_grams, None, id="sic-and-d2-grid"),
    pytest.param(lambda: [_generic_gram(2, s) for s in range(100, 120)], None, id="d2-generic"),
    pytest.param(lambda: [_generic_gram(3, s) for s in range(6)], None, id="d3-generic"),
    pytest.param(lambda: [_weyl_gram(3), _weyl_gram(4)], None, id="weyl-d3-d4"),
    pytest.param(lambda: [_generic_gram(4, s) for s in (1, 3, 4)], None, id="d4-generic"),
    pytest.param(lambda: [_generic_gram(5, s) for s in (1, 2, 3)], None, id="d5-generic"),
    pytest.param(lambda: [_weyl_gram(5)], None, id="weyl-d5-unpruned"),
    pytest.param(lambda: [_weyl_gram(4, 0.25, 0.21), _weyl_gram(4, 0.45, 0.0733)], None,
                 id="weyl-d4-unpruned-and-pruned"),
    pytest.param(_mixed_pruning_d4_grams, None, id="d4-mixed-pruning"),
] + [
    # below d = 4 no level spans two blocks of the default 512 parents; with
    # blocks of 1 and 7 every level does, so parents past the first block
    # read their offsets and the steps built by another block
    pytest.param(make_grams, parents, id=f"{name}-parents-{parents}")
    for name, make_grams in (("sic-and-d2-grid", _criterion_4_grams),
                             ("d3-generic", lambda: [_generic_gram(3, s) for s in range(6)]),
                             ("weyl-d3-d4", lambda: [_weyl_gram(3), _weyl_gram(4)]))
    for parents in (1, 7)
] + [pytest.param(_mixed_pruning_d4_grams, 7, id="d4-mixed-pruning-parents-7")]


@pytest.mark.parametrize("make_grams, parents", BITWISE_GRAMS)
def test_classical_value_bitwise_equals_prefix_expansion(make_grams, parents, monkeypatch):
    grams = make_grams()
    # the reference scores every subset: its outputs do not depend on its blocking
    references = [_prefix_expansion_classical(S, allow_d5=S.d == 5) for S in grams]
    if parents is not None:
        monkeypatch.setattr(classical, "_PARENTS", parents)
    singles = [classical.classical_value(S, allow_d5=S.d == 5) for S in grams]
    for result, reference in zip(singles, references):
        assert result == reference
        assert result.search_space == reference.search_space
    if len(grams) == 1 or len({S.d for S in grams}) > 1:
        return  # a stack of one runs the single scan; a stack holds one d
    # the family as one stack: each member as its own call, subsets scored included
    stacked = classical.classical_value(bic.GramMatrix.stack(grams), allow_d5=grams[0].d == 5)
    assert len(stacked) == len(grams)
    for result, single, reference in zip(stacked, singles, references):
        assert result == single == reference
        assert (result.subsets_scored, result.search_space) == (
            single.subsets_scored, single.search_space)


def test_classical_value_bitwise_equals_prefix_expansion_on_asymmetric_rows():
    # the scan reads rows of W and Q only; the bounds' margin widens by the
    # asymmetry, so pruning stays exact on an input that validation refuses
    S = _generic_gram(4, 1)
    rng = np.random.default_rng(7)
    for scale in (1e-9, 1e-4, 1e-2):
        P = bic.GramMatrix(d=4, s=S.s + scale * rng.uniform(-1, 1, S.s.shape))
        assert (classical.classical_value(P) == _prefix_expansion_classical(P))


def test_mixed_pruning_stack_scores_what_each_member_scores_alone():
    results = classical.classical_value(bic.GramMatrix.stack(_mixed_pruning_d4_grams()))
    assert [r.subsets_scored for r in results] == [
        2_516, 2_516, 2_516, 26_332, 2_516, 6_884, 14_892]
    assert {r.search_space for r in results} == {26_332}


def test_stack_of_one_returns_one_result():
    S = bic_gram_d2(0.3, 0.25)
    (result,) = classical.classical_value(bic.GramMatrix.stack([S]))
    assert result == classical.classical_value(S)


@pytest.mark.parametrize("d", [2, 4])
def test_empty_stack_returns_no_results(d):
    # GramMatrix.stack refuses no members, but a (0, n, n) array is a stack;
    # below d = 4 the scan cuts a stack's blocks per member
    assert classical.classical_value(bic.GramMatrix(d=d, s=np.empty((0, d * d, d * d)))) == ()


def test_stack_refuses_mixed_d():
    with pytest.raises(ValueError, match=r"stack member 2 .*\(d=3"):
        bic.GramMatrix.stack([bic_gram_d2(0.3, 0.25), bic_gram_d2(0.2, 0.5),
                              _generic_gram(3, 1)])
    with pytest.raises(ValueError, match="at least one"):
        bic.GramMatrix.stack([])


def test_stack_refuses_a_non_finite_member():
    s = np.stack([bic_gram_d2(0.3, 0.25).s] * 3)
    s[1, 0, 1] = s[1, 1, 0] = math.nan
    with pytest.raises(ValueError, match=r"finite \(stack member 1\)"):
        classical.classical_value(bic.GramMatrix(d=2, s=s))


@pytest.mark.parametrize("make_gram", [
    pytest.param(lambda: _generic_gram(5, 1), id="single-d5"),
    pytest.param(lambda: bic.GramMatrix.stack(_mixed_pruning_d4_grams()), id="stack-d4"),
])
def test_scan_leaves_no_garbage_cycle(make_gram):
    # the scan state goes with the call: no cycle waits for the collector
    S = make_gram()
    gc.collect()
    gc.disable()
    try:
        classical.classical_value(S, allow_d5=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _all_subsets(n, max_card):
    """Indicator rows of every J with 0 < |J| <= max_card."""
    rows = [np.isin(np.arange(n), J) for m in range(1, max_card + 1)
            for J in combinations(range(n), m)]
    return np.array(rows)


CRITERION_1_GRAMS = [
    pytest.param(lambda d=d, s=s: _generic_gram(d, s), id=f"d{d}-generic-{s}")
    for d in (3, 4) for s in (1, 2, 3)
] + [
    pytest.param(lambda d=d, r=r, t=t: bic.gram(
        bic.construct_weyl_bic(d, bic.geometric_fiducial(d, r, t))), id=f"d{d}-weyl-{r}-{t}")
    for d in (3, 4) for r, t in ((0.3, 0.137), (0.25, 0.21), (0.45, 0.0733))
]


@pytest.mark.parametrize("make_gram", CRITERION_1_GRAMS)
def test_cardinality_bounds_hold_on_every_subset(make_gram):
    S = make_gram()
    d, n = S.d, S.n
    max_card = 2 * d - 1
    W = classical._payoff_matrix(S)
    Q = S.s**2
    np.fill_diagonal(Q, 0.0)
    ub, lb = classical._cardinality_bounds(W, Q, d, max_card)
    X = _all_subsets(n, max_card).astype(float)
    card = X.sum(axis=1).astype(int)
    assert len(X) == classical._subset_budget(n, max_card)  # 26,332 at d = 4
    values = -d * (d - 2) * card + ((X @ W) * (1 - X)).sum(axis=1)
    boundary = ((X @ Q) * (1 - X)).sum(axis=1)
    for m in range(1, max_card + 1):
        at = card == m
        if m <= d:
            assert ub[m] == math.inf and lb[m] == -math.inf
            continue
        assert values[at].max() <= ub[m] and boundary[at].min() >= lb[m]
        # the tightest J of the cardinality, rescored by subset_value
        tight = X[at][np.argmax(values[at])].nonzero()[0]
        assert classical.subset_value(tight, S) <= ub[m]
    # suffix maxima and minima: each bound covers every deeper cardinality
    assert ub[d + 1:] == sorted(ub[d + 1:], reverse=True)
    assert lb[d + 1:] == sorted(lb[d + 1:])


def test_pruned_scan_scores_few_subsets_on_generic_d5():
    for seed in (1, 2):
        result = classical.classical_value(_generic_gram(5, seed), allow_d5=True)
        assert result.search_space == 3_850_755
        # every J with |J| <= d, and no deeper level
        assert result.subsets_scored == classical._subset_budget(25, 5) == 68_405


@pytest.mark.parametrize("make_gram", [
    pytest.param(lambda s=s: _generic_gram(4, s), id=f"generic-{s}") for s in (1, 2, 3)
] + [pytest.param(lambda: _weyl_gram(4), id="weyl-0.3-0.137")])
def test_pruned_scan_scores_the_levels_up_to_d_on_d4(make_gram):
    result = classical.classical_value(make_gram())
    assert result.search_space == 26_332
    assert result.subsets_scored == classical._subset_budget(16, 4) == 2_516


@pytest.mark.parametrize("make_gram, allow_d5, bound_mb", [
    pytest.param(lambda: _generic_gram(5, 1), True, 2.0, id="generic-d5"),
    pytest.param(lambda: _weyl_gram(4, 0.25, 0.21), False, 1.5, id="weyl-d4-unpruned"),
    pytest.param(lambda: bic.GramMatrix.stack([_generic_gram(5, s) for s in (1, 2)]), True, 4.0,
                 id="stack-generic-d5"),
])
def test_scan_builds_steps_per_recursing_parent_block(make_gram, allow_d5, bound_mb):
    # one step vector per child whose block recurses peaked at 4.4 and 2.1 MB
    # here; the scan builds the steps of a block of parents only when its
    # children recurse, and a leaf reads one entry of its grandparent's step.
    # A d=5 stack scans its members one at a time (1.1 MB for two members;
    # 2.8 MB in one pass with _PARENTS parents per member and block)
    S = make_gram()
    tracemalloc.start()
    try:
        classical.classical_value(S, allow_d5=allow_d5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_scan_scores_everything_when_the_bounds_prove_nothing():
    # Weyl d=5 at (0.3, 0.137): the Q bound lies below the minimum boundary sum
    result = classical.classical_value(_weyl_gram(5), allow_d5=True)
    assert result.subsets_scored == result.search_space == 3_850_755
    result = classical.classical_value(_weyl_gram(4, 0.25, 0.21))
    assert result.subsets_scored == result.search_space == 26_332


def test_scan_keeps_the_lexicographic_tie_across_parents():
    # Weyl d=3 ties exactly at (0,1,2), (3,4,5) and (6,7,8); their size-2
    # parents end in 1, 4 and 7, three different last elements
    S = _weyl_gram(3)
    result = classical.classical_value(S)
    assert result.best_subset == (0, 1, 2) == _plain_classical(S)[1]
    # relabelled, the first tie (0,5,8) has the parent (0,5) with the largest
    # last element of the three, and must still win over (1,2,3) and (4,6,7)
    relabel = np.array([0, 5, 8, 1, 2, 3, 4, 6, 7])  # old outcome -> new outcome
    old = np.argsort(relabel)
    P = bic.GramMatrix(d=3, s=S.s[np.ix_(old, old)])
    result = classical.classical_value(P)
    assert result.best_subset == (0, 5, 8) == _plain_classical(P)[1]


def test_classical_upper_bound_quarter_matrix():
    # uniform quarter overlaps: the minimal |J| = 1 boundary sum is 3/16
    S = np.full((4, 4), 0.25)
    np.fill_diagonal(S, 1.0)
    bound = classical.classical_value(bic.GramMatrix(d=2, s=S)).upper_bound
    assert abs(bound - (4.0 - 3.0 / 64.0)) < 1e-12


def test_closed_form_sic_point():
    assert abs(classical.closed_form_d2(1 / 3, 1 / 3) - SIC_VALUE) < 1e-12


def test_closed_form_limits():
    assert abs(classical.closed_form_d2(1e-4, 1e-4) - 4.0) < 1e-3
    assert abs(classical.closed_form_d2(0.4999, 0.4999) - (1 + 2 * math.sqrt(2))) < 1e-3


def test_closed_form_grid_matches_enumeration():
    worst = 0.0
    for i in range(1, 21):
        for j in range(1, 21):
            t1, t2 = i / 21.5, j / 21.5
            if t1 + t2 >= 1.0:
                continue
            enum = classical.classical_value(bic_gram_d2(t1, t2)).best_value
            worst = max(worst, abs(classical.closed_form_d2(t1, t2) - enum))
    assert worst < 1e-9


def test_closed_form_branch_continuity():
    for t1 in (0.1, 0.2, 0.3):
        boundary = (1.0 - t1) / 2.0
        below = classical.closed_form_d2(t1, boundary - 1e-11)
        above = classical.closed_form_d2(t1, boundary + 1e-11)
        assert abs(below - above) < 1e-9
        # and the symmetric boundary
        below_s = classical.closed_form_d2(boundary - 1e-11, t1)
        above_s = classical.closed_form_d2(boundary + 1e-11, t1)
        assert abs(below_s - above_s) < 1e-9


def test_closed_form_domain():
    with pytest.raises(ValueError):
        classical.closed_form_d2(0.0, 0.3)
    with pytest.raises(ValueError):
        classical.closed_form_d2(0.6, 0.5)
    with pytest.raises(ValueError):
        bic_gram_d2(0.6, 0.5)


def test_gap_never_exceeds_cap():
    cap = 3.0 - 2.0 * math.sqrt(2.0) + 1e-9
    rng_points = [(i / 17.3, j / 17.3) for i in range(1, 17) for j in range(1, 17)]
    for t1, t2 in rng_points:
        if t1 + t2 >= 1.0:
            continue
        value = classical.classical_value(bic_gram_d2(t1, t2)).best_value
        assert 4.0 - value <= cap


def test_classical_value_below_quantum_d3():
    povm = bic.construct_weyl_bic(3, bic.geometric_fiducial(3, 0.3, 0.137))
    result = classical.classical_value(bic.gram(povm))
    assert result.best_value < 9.0
    assert result.quantum_gap > 0.0
    assert 0 < len(result.best_subset) < 6


def test_enumeration_budget_rules():
    S5 = bic.gram(bic.construct_generic_bic(5, 1))
    with pytest.raises(ValueError, match="d=5"):
        classical.classical_value(S5)
    with pytest.raises(ValueError, match="budget"):
        classical.classical_value(S5, allow_d5=True, max_subsets=1000)
    S6 = bic.gram(bic.construct_generic_bic(6, 1))
    with pytest.raises(ValueError):
        classical.classical_value(S6, allow_d5=True)


def test_classical_value_refuses_non_finite_entries():
    # one NaN pair used to let a bare StopIteration out of the record search
    S = bic_gram_d2(0.3, 0.25).s.copy()
    S[0, 1] = S[1, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        classical.classical_value(bic.GramMatrix(d=2, s=S))
    S[0, 1] = S[1, 0] = math.inf
    with pytest.raises(ValueError, match="finite"):
        classical.classical_value(bic.GramMatrix(d=2, s=S))


def test_d5_enumeration_behind_flag():
    S5 = bic.gram(bic.construct_generic_bic(5, 3))
    result = classical.classical_value(S5, allow_d5=True)
    assert result.best_value < 25.0
    assert result.upper_bound < 25.0
    assert 0 < len(result.best_subset) < 10
    witness = classical.subset_value(result.best_subset, S5)
    assert abs(witness - result.best_value) <= 1e-9 * 25


def test_result_json_one_based():
    result = classical.classical_value(bic_gram_d2(1 / 3, 1 / 3))
    payload = result.to_json()
    assert payload["bestSubset"] == [1, 2]
    assert payload["bestValue"] == result.best_value
