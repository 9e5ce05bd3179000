import pytest
from hypothesis import given, settings, strategies as st

from extauction import (
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    ScalarModel,
    TableModel,
    TableWeight,
    ValuationProfile,
    check_conditions,
    estimate_L,
)
from extauction.benchmark import benchmark_sweep
from extauction.sets import mask_of
from extauction.valuations import EXHAUSTIVE_MAX_N

from conftest import flat_bids_profile, size_scalar_profile, square_table_profile


def test_additive_value():
    profile = ValuationProfile([AdditiveModel(t=2.0, weight=TableWeight({0b1: 3.0}))])
    assert profile.value(0, 0b1) == 5.0


def test_value_zero_outside_winner_set():
    profile = size_scalar_profile(3)
    for s in range(8):
        for i in range(3):
            if not (s >> i) & 1:
                assert profile.value(i, s) == 0.0


def test_graph_concave_sqrt_value():
    profile = ValuationProfile([GraphConcaveModel(t=1.0, beta=1.0) for _ in range(5)])
    assert profile.value(0, mask_of(range(5))) == pytest.approx(3.0)  # 1 * (1 + sqrt(4))


def test_graph_concave_respects_graph():
    # agent 0 has a single neighbor: a full house adds only sqrt(1)
    graph = [[1], [0], []]
    profile = ValuationProfile([GraphConcaveModel(t=2.0, beta=0.5) for _ in range(3)], graph=graph)
    assert profile.value(0, 0b111) == pytest.approx(2.0 * 1.5)
    assert profile.value(2, 0b111) == pytest.approx(2.0)


def test_check_conditions_additive_ok():
    profile = ValuationProfile(
        [AdditiveModel(t=float(i + 1), weight=DegreeWeight(0.5, 1.0, "sqrt")) for i in range(4)]
    )
    assert check_conditions(profile) == []


def test_check_conditions_square_profile_flags_subadditivity():
    profile = square_table_profile(3)
    violations = check_conditions(profile)
    sub = [v for v in violations if v.kind == "subadditivity"]
    assert sub, "t*|S|^2 must fail subadditivity"
    # witness pair for agent 0: {0,1} with {0,2} gives 9 > 4 + 4
    v = next(v for v in sub if v.agent == 0)
    assert v.lhs == pytest.approx(9.0)
    assert v.rhs == pytest.approx(8.0)


def test_check_conditions_size_scalar_ok():
    # v_i(S) = t * |S| is monotone and subadditive
    assert check_conditions(size_scalar_profile(3)) == []


def test_check_conditions_rejects_large_exhaustive():
    profile = size_scalar_profile(3)
    with pytest.raises(ValueError):
        check_conditions(flat_bids_profile([1.0] * (EXHAUSTIVE_MAX_N + 1)), mode="exhaustive")
    assert check_conditions(profile, mode="sampled", samples=500) == []


def test_estimate_L_subadditive_is_one():
    assert estimate_L(size_scalar_profile(4)) == 1.0


def _estimate_L_reference(profile):
    """Independent oracle: scan every (i, S, R) pair with i in both sets."""
    worst = 1.0
    n = profile.n
    for i in range(n):
        for s in range(1 << n):
            if not (s >> i) & 1:
                continue
            for r in range(1 << n):
                if not (r >> i) & 1:
                    continue
                u = profile.value(i, s | r)
                denom = profile.value(i, s) + profile.value(i, r)
                if u > denom > 0:
                    worst = max(worst, u / denom)
    return worst


def test_estimate_L_square_n3():
    profile = square_table_profile(3)
    assert _estimate_L_reference(profile) == pytest.approx(9 / 8)
    assert estimate_L(profile) == pytest.approx(9 / 8)


def test_estimate_L_square_n4():
    # worst pair is |A| = 2, |B| = 3 overlapping in i: 16 / (4 + 9)
    profile = square_table_profile(4)
    assert _estimate_L_reference(profile) == pytest.approx(16 / 13)
    assert estimate_L(profile) == pytest.approx(16 / 13)


def test_estimate_L_sampled():
    # on a monotone profile no drawn pair is tighter than the exhaustive
    # witness pairs, so the sampled L cannot exceed 16/13; a subadditive
    # profile has no witness at all
    L = estimate_L(square_table_profile(4), mode="sampled", samples=2_000, seed=1)
    assert 1.0 < L <= 16 / 13 + 1e-12
    assert estimate_L(size_scalar_profile(4), mode="sampled", samples=2_000, seed=1) == 1.0


def test_check_conditions_caps_violations():
    profile = square_table_profile(4)
    everything = check_conditions(profile, max_violations=10**6)
    assert len(everything) > 5
    assert check_conditions(profile, max_violations=5) == everything[:5]
    assert check_conditions(profile, max_violations=0) == []
    with pytest.raises(ValueError):
        check_conditions(flat_bids_profile([1.0] * (EXHAUSTIVE_MAX_N + 1)), mode="exhaustive",
                         max_violations=0)


def test_query_counter_counts_every_query():
    profile = size_scalar_profile(4)
    oracle = profile.oracle()
    # instrumented double-count of the same calls
    seen = []
    for i in range(4):
        for s in (0b1111, 0b0110):
            seen.append(oracle.value(i, s))
    assert oracle.queries == len(seen)
    fresh = profile.oracle()
    benchmark_sweep(fresh, 1)
    assert fresh.queries <= 4 * 5 // 2
    assert profile.oracle().queries == 0  # counters never shared across runs


def test_value_query_deterministic():
    a = size_scalar_profile(5)
    b = size_scalar_profile(5)
    for i in range(5):
        for s in range(32):
            assert a.value(i, s) == b.value(i, s)


def test_replace_leaves_original_untouched():
    profile = size_scalar_profile(3)
    changed = profile.replace(1, ScalarModel(t=99.0, weight=DegreeWeight(1.0, 1.0)))
    assert profile.value(1, 0b111) == 3.0
    assert changed.value(1, 0b111) == 99.0 * 3.0


def test_empty_profile_rejected():
    with pytest.raises(ValueError):
        ValuationProfile([])


def test_table_cap():
    with pytest.raises(ValueError):
        ValuationProfile([TableModel({1 << i: 1.0}) for i in range(11)])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    t=st.floats(min_value=0.0, max_value=50.0),
    base=st.floats(min_value=0.0, max_value=5.0),
    scale=st.floats(min_value=0.0, max_value=5.0),
    shape=st.sampled_from(["linear", "sqrt"]),
)
def test_parametric_models_always_valid(n, t, base, scale, shape):
    w = DegreeWeight(base, scale, shape)
    for model in (AdditiveModel(t, w), ScalarModel(t, w), GraphConcaveModel(t, beta=scale)):
        profile = ValuationProfile([model] * n)
        assert check_conditions(profile) == []


class _CountingModel:
    """Wraps a model's bound function to double-count oracle calls."""

    def __init__(self, inner, counter):
        self.inner = inner
        self.counter = counter

    def bind(self, i, neighbor_mask):
        fn = self.inner.bind(i, neighbor_mask)

        def counted(s):
            self.counter[0] += 1
            return fn(s)

        return counted


def test_query_counter_matches_instrumented_double_count():
    from extauction.mechanisms import main_mechanism

    base = size_scalar_profile(5)
    counter = [0]
    wrapped = ValuationProfile([_CountingModel(m, counter) for m in base.models])
    out = main_mechanism(wrapped, 11)
    assert counter[0] == out.queries_used > 0


def _naive_condition_check(profile):
    """Full (i, S, R) triple scan: the unreduced ground truth."""
    n = profile.n
    for i in range(n):
        for s in range(1 << n):
            v = profile.value(i, s)
            if not (s >> i) & 1 and abs(v) > 1e-9:
                return False
            if v < -1e-9:
                return False
            for r in range(1 << n):
                if s & r == s and v > profile.value(i, r) + 1e-9:
                    return False  # S subset of R but worth more: not monotone
                if (s >> i) & 1 and (r >> i) & 1:
                    if profile.value(i, s | r) > v + profile.value(i, r) + 1e-9:
                        return False
    return True


def test_reduced_checker_agrees_with_naive_scan():
    import random as _random

    rng = _random.Random(5)
    for trial in range(20):
        n = rng.randrange(2, 5)
        # random XOS table, occasionally corrupted to violate a condition
        from extauction.experiments import gen_instance

        profile = gen_instance("table", n, seed=trial)
        if trial % 2:
            i = rng.randrange(n)
            values = dict(profile.models[i].values)
            victim = rng.choice(sorted(values))
            values[victim] = values[victim] * 3.0 + 5.0  # breaks monotonicity/subadditivity somewhere
            profile = profile.replace(i, TableModel(values))
        naive_ok = _naive_condition_check(profile)
        assert (check_conditions(profile) == []) == naive_ok
