import math

import pytest
from hypothesis import given, settings, strategies as st

from extauction import (
    DegreeWeight,
    ScalarModel,
    TableModel,
    ValuationProfile,
    benchmark_bruteforce,
    benchmark_sweep,
    classical_best_price,
    maximal_feasible_set,
)
from extauction import benchmark as bm
from extauction.experiments import gen_instance, two_agent_gap_instance
from extauction.sets import iter_members

from conftest import flat_bids_profile, size_scalar_profile, submasks


def test_bruteforce_flat_bids(three_flat):
    res = benchmark_bruteforce(three_flat, 1)
    assert res.value == pytest.approx(9.0)
    assert res.price == pytest.approx(3.0)
    assert res.winners == 0b111


def test_bruteforce_infeasible_k():
    res = benchmark_bruteforce(flat_bids_profile([7.0]), 2)
    assert res.value == 0.0
    assert res.winners == 0


def test_bruteforce_two_agent_gap_instance():
    # both agents value the pair at M*x: selling to both at that price is optimal
    res = benchmark_bruteforce(two_agent_gap_instance(10.0), 2)
    assert res.value == pytest.approx(20.0)
    assert res.winners == 0b11


def test_maximal_feasible_set_no_deletion():
    profile = ValuationProfile(
        [TableModel({0b01: 1.0, 0b11: 4.0}), TableModel({0b10: 1.0, 0b11: 4.0})]
    )
    assert maximal_feasible_set(profile, 3.0, 0b11, 0) == 0b11
    assert maximal_feasible_set(profile, 5.0, 0b11, 0) == 0
    assert maximal_feasible_set(profile, 0.0, 0b11, 0) == 0b11


def test_maximal_feasible_set_requires_disjoint_pool():
    profile = size_scalar_profile(3)
    with pytest.raises(ValueError):
        maximal_feasible_set(profile, 1.0, 0b011, 0b001)


def test_maximality_against_bruteforce():
    # every feasible subset must land inside the deletion fixpoint
    profile = gen_instance("mixed", 6, seed=3)
    oracle = profile.oracle()
    pool, free = 0b101110, 0b000001
    for c in (0.5, 1.0, 2.0, 5.0, 11.0):
        best = maximal_feasible_set(oracle, c, pool, free)
        for t in submasks(pool):
            if t and all(oracle.value(i, free | t) >= c - 1e-9 for i in iter_members(t)):
                assert t & ~best == 0, f"feasible {t:b} escapes fixpoint at price {c}"


def test_sweep_given_free_single_agent_pool():
    val, price, _ = bm._greedy_sweep(size_scalar_profile(3).oracle(), 0b100, 0b011, 1)
    assert val == pytest.approx(3.0)
    assert price == pytest.approx(3.0)


def test_sweep_given_free_empty_pool():
    val, _, winners = bm._greedy_sweep(size_scalar_profile(3).oracle(), 0, 0b111, 1)
    assert val == 0.0 and winners == 0


def test_sweep_given_free_prefers_single_high_bidder():
    val, _, winners = bm._greedy_sweep(flat_bids_profile([10.0, 1.0]).oracle(), 0b11, 0, 1)
    assert val == pytest.approx(10.0)
    assert winners == 0b01


def test_sweep_given_free_equals_f1_on_full_pool():
    for seed in range(5):
        profile = gen_instance("mixed", 5, seed=seed)
        assert bm._greedy_sweep(profile.oracle(), profile.full, 0, 1)[0] == pytest.approx(
            benchmark_bruteforce(profile, 1).value
        )


def test_sweep_flat_bids(three_flat):
    assert benchmark_sweep(three_flat, 1).value == pytest.approx(9.0)


def test_sweep_size_scalar_k3():
    res = benchmark_sweep(size_scalar_profile(3), 3)
    assert res.value == pytest.approx(9.0)
    assert res.price == pytest.approx(3.0)


def test_sweep_infeasible_k():
    assert benchmark_sweep(flat_bids_profile([1.0, 2.0]), 3).value == 0.0


def test_sweep_survives_overflowing_bids():
    # every bid overflows to inf, so no bid compares below another; the sweep
    # must still delete a member each step, and agree with the subset scan
    inf_profile = ValuationProfile([ScalarModel(1e308, DegreeWeight(10.0, 1.0))] * 3)
    assert benchmark_sweep(inf_profile, 1).value == math.inf
    assert benchmark_bruteforce(inf_profile, 1).value == math.inf
    # 0 * inf is NaN on every set of two or more agents
    nan_profile = ValuationProfile([ScalarModel(0.0, DegreeWeight(1e308, 1e308))] * 3)
    benchmark_sweep(nan_profile, 1)


def test_sweep_query_budget():
    for n in (1, 3, 6, 9):
        profile = size_scalar_profile(n)
        oracle = profile.oracle()
        benchmark_sweep(oracle, 2)
        assert oracle.queries <= n * (n + 1) // 2


def test_sweep_matches_bruteforce_on_generated_instances():
    for seed in range(12):
        profile = gen_instance("mixed", 3 + seed % 5, seed=seed)
        for k in (1, 2, 3):
            assert benchmark_sweep(profile, k).value == pytest.approx(
                benchmark_bruteforce(profile, k).value, abs=1e-9
            )


def test_benchmark_monotone_in_k():
    for seed in range(6):
        profile = gen_instance("mixed", 5, seed=100 + seed)
        f1, f2, f3 = (benchmark_bruteforce(profile, k).value for k in (1, 2, 3))
        assert f1 >= f2 - 1e-9
        assert f2 >= f3 - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    bids=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=7),
    k=st.integers(min_value=1, max_value=3),
)
def test_sweep_equals_bruteforce_flat(bids, k):
    profile = flat_bids_profile(bids)
    assert benchmark_sweep(profile, k).value == pytest.approx(
        benchmark_bruteforce(profile, k).value, abs=1e-9
    )


def test_tie_break_is_canonical():
    # two singleton optima: the smaller mask wins the tie
    profile = flat_bids_profile([4.0, 4.0, 1.0])
    res = benchmark_bruteforce(profile, 1)
    assert res.value == pytest.approx(8.0)
    assert res.winners == 0b011


def test_classical_best_price():
    assert classical_best_price([10.0, 10.0]) == (20.0, 10.0, 2)
    assert classical_best_price([10.0, 1.0]) == (10.0, 10.0, 1)
    assert classical_best_price([10.0, 1.0], min_winners=2) == (2.0, 1.0, 2)
    rev, price, count = classical_best_price([])
    assert rev == 0.0 and math.isinf(price) and count == 0


def test_bruteforce_rejects_large_n():
    with pytest.raises(ValueError):
        benchmark_bruteforce(flat_bids_profile([1.0] * 21), 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: benchmark_bruteforce(p, 0), r"^k must be >= 1$"),
        (lambda p: benchmark_sweep(p, 0), r"^k must be >= 1$"),
    ],
    ids=["bruteforce-k0", "sweep-k0"],
)
def test_benchmarks_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call(size_scalar_profile(3))
