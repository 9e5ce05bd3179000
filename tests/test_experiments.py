import hashlib
import itertools
import math
from array import array
from fractions import Fraction

import pytest

from extauction import BenchmarkResult, Partition3, benchmark_bruteforce, check_conditions
from extauction import experiments, mechanisms
from extauction.experiments import (
    GEN_MODELS,
    PartitionStats,
    binomial_low_tail,
    chernoff_tail_check,
    derive_seed,
    f2_gap_demo,
    gen_instance,
    losing_value_demo,
    mechanism2_bound_check,
    monte_carlo_expectation,
    partition_min_expectation,
    partition_stats,
    quarter_bound_check,
    quarter_bound_exhaustive,
    ratio_campaign,
    revenue_guarantee_suite,
    standard_suite,
    two_agent_gap_instance,
)
from extauction.io import instance_digest
from extauction.mechanisms import main_mechanism_exact_expectation
from extauction.valuations import (
    EPS,
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    ScalarModel,
    TableModel,
    ValuationProfile,
)

from conftest import run_python, size_scalar_profile


# --- instance generation -----------------------------------------------------

def test_gen_instance_graph_concave_valid():
    profile = gen_instance("graph_concave", 6, seed=7, graph="er", graph_p=0.5)
    assert profile.n == 6
    assert check_conditions(profile) == []


def test_gen_instance_table_valid():
    assert check_conditions(gen_instance("table", 3, seed=1)) == []


def test_gen_instance_refuses_an_instance_that_fails_the_conditions(monkeypatch):
    monkeypatch.setitem(experiments._FAMILIES, "graph_concave",
                        lambda i, n, rng: GraphConcaveModel(-1.0))
    with pytest.raises(ValueError) as info:
        gen_instance("graph_concave", 3, seed=1)
    assert str(info.value) == "generated graph_concave instance for n=3 violates the conditions"


def test_gen_instance_rejects_empty_market():
    with pytest.raises(ValueError):
        gen_instance("additive", 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gen_instance("bogus", 3), r"^unknown model 'bogus'; choose from "),
        (lambda: partition_min_expectation(-1), r"^m must be nonnegative$"),
        (lambda: chernoff_tail_check(0), r"^m must be >= 1$"),
    ],
    ids=["gen-instance-unknown-model", "partition-min-negative-m", "chernoff-m0"],
)
def test_experiment_helpers_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("trials", [0, -1])
def test_monte_carlo_expectation_over_no_trials_is_zero(trials):
    assert monte_carlo_expectation(size_scalar_profile(3), trials) == (0.0, 0.0)


def test_gen_instance_deterministic():
    a = gen_instance("mixed", 5, seed=42, graph="pa")
    b = gen_instance("mixed", 5, seed=42, graph="pa")
    for i in range(5):
        for s in range(32):
            assert a.value(i, s) == b.value(i, s)


# --- exact partition statistics ------------------------------------------------

def test_partition_min_expectation_m3():
    # 27 assignments; min >= 1 only on the six (1,1,1) permutations
    assert partition_min_expectation(3) == Fraction(2, 9)


def test_partition_min_expectation_m1():
    assert partition_min_expectation(1) == 0


def test_partition_min_expectation_brute_force_check():
    for m in (2, 3, 4, 5):
        total = 0
        for labels in itertools.product(range(3), repeat=m):
            counts = [labels.count(b) for b in range(3)]
            total += min(counts)
        assert partition_min_expectation(m) == Fraction(total, 3**m)


def test_partition_min_expectation_bound_and_minimum():
    base = Fraction(partition_min_expectation(3), 3)
    assert base == Fraction(2, 27)
    for m in range(3, 201):
        value = partition_min_expectation(m)
        assert value >= Fraction(2 * m, 27)
        if m > 3:
            assert Fraction(value, m) > base


def test_chernoff_tail_values():
    assert chernoff_tail_check(1) == Fraction(2, 3)
    # m = 17: Pr(a <= 1) = (2^17 + 17 * 2^16) / 3^17
    assert chernoff_tail_check(17) == Fraction(19 * 2**16, 3**17)
    assert chernoff_tail_check(17) < Fraction(1, 9)


def test_chernoff_tail_bound_through_200():
    for m in range(17, 201):
        assert chernoff_tail_check(m) < Fraction(1, 9)


def test_chernoff_tail_check_raises_on_a_failing_tail(monkeypatch):
    monkeypatch.setattr(experiments, "binomial_low_tail", lambda m, cutoff: Fraction(1, 2))
    assert chernoff_tail_check(16) == Fraction(1, 2)  # below m = 17 nothing is claimed
    with pytest.raises(AssertionError, match="tail bound failed at m=17: 1/2$"):
        chernoff_tail_check(17)


def test_partition_stats_raises_when_the_groups_miss_a_winner():
    optimum = BenchmarkResult(3.0, 1.0, 0b111, 3)
    assert partition_stats(optimum, Partition3(0b001, 0b010, 0b100)) == PartitionStats(3, 1, 1, 1)
    with pytest.raises(AssertionError, match="the groups hold 2 of the 3 benchmark winners$"):
        partition_stats(optimum, Partition3(0b001, 0b010, 0))


#: run under ``python -O``, which strips ``assert`` statements
OPTIMIZED_CHECKS = """
from fractions import Fraction
from extauction import Partition3, experiments
from extauction.benchmark import BenchmarkResult
experiments.binomial_low_tail = lambda m, cutoff: Fraction(1, 2)
for check in (lambda: experiments.chernoff_tail_check(17),
              lambda: experiments.partition_stats(BenchmarkResult(3.0, 1.0, 7, 3),
                                                  Partition3(1, 2, 0))):
    try:
        check()
    except AssertionError:
        continue
    raise SystemExit("a failing check returned under -O")
"""


def test_checks_raise_under_python_O():
    done = run_python(OPTIMIZED_CHECKS, "-O")
    assert (done.returncode, done.stderr) == (0, "")


def test_binomial_low_tail_sums_to_one():
    assert binomial_low_tail(9, 9) == 1


# --- quarter bound ---------------------------------------------------------------

def test_quarter_bound_all_in_c():
    profile = size_scalar_profile(3)
    res = quarter_bound_check(profile, Partition3(a=0, b=0, c=0b111))
    assert res.status == "pass"
    assert res.r_f_c == pytest.approx(9.0)
    assert res.r_c == pytest.approx(9.0)


def test_quarter_bound_trivial_when_c_misses_optimum():
    profile = size_scalar_profile(3)
    res = quarter_bound_check(profile, Partition3(a=0b111, b=0, c=0))
    assert res.status == "pass" and res.r_f_c == 0.0


def test_quarter_bound_skips_zero_benchmark():
    profile = two_agent_gap_instance(5.0)  # n = 2: no 3-winner benchmark
    res = quarter_bound_check(profile, Partition3(a=0b01, b=0b10, c=0))
    assert res.status == "skip"


def test_quarter_bound_exhaustive_on_random_instances():
    for seed, n in [(0, 4), (1, 5), (2, 6)]:
        profile = gen_instance("mixed", n, seed=seed)
        checked, skipped, failures = quarter_bound_exhaustive(profile)
        assert checked == 3**n
        assert failures == []


@pytest.mark.parametrize(
    "model, n, seed, expected", [("mixed", 6, 1, 585), ("table", 5, 2, 211), ("scalar", 7, 3, 1539)]
)
def test_quarter_bound_exhaustive_reports_failures(monkeypatch, model, n, seed, expected):
    """Negative control: with every entry of the revenue table the partition
    ledger reads (``mechanisms.revenue_table``), and so ``r(C)``, forced to 0,
    exactly the partitions whose C holds a benchmark winner fail,
    ``3^n - 2^m 3^(n-m)`` of them for ``m = |S*|``: those on which
    :func:`quarter_bound_check`, with ``r(C)`` forced to 0 too, fails, in
    ``Partition3.all_partitions`` order."""
    profile = gen_instance(model, n, seed=seed)
    assert quarter_bound_exhaustive(profile)[2] == []
    optimum = benchmark_bruteforce(profile, 3)
    m = optimum.winners.bit_count()
    assert 3**n - 2**m * 3 ** (n - m) == expected
    monkeypatch.setattr(mechanisms, "revenue_table", lambda o: array("d", bytes(8 * 3**o.n)))
    monkeypatch.setattr(experiments, "testers_revenue", lambda o, part: 0.0)
    checked, skipped, failures = quarter_bound_exhaustive(profile)
    assert (checked, skipped, len(failures)) == (3**n, 0, expected)
    assert failures == [part for part in Partition3.all_partitions(n)
                        if quarter_bound_check(profile, part, optimum).status == "fail"]


def test_quarter_bound_exhaustive_zero_benchmark_skips_every_partition():
    """A zero benchmark skips every partition; the walk still runs, and its
    ledger serves the exact expectation at no further query."""
    zero_bidder = ValuationProfile(
        [ScalarModel(0.0, DegreeWeight())] + [ScalarModel(2.0, DegreeWeight())] * 2
    )
    for profile in (two_agent_gap_instance(5.0), zero_bidder):
        assert benchmark_bruteforce(profile, 3).value == 0.0
        oracle = profile.oracle()
        n = profile.n
        assert quarter_bound_exhaustive(oracle) == (3**n, 3**n, [])
        assert oracle.ledger is not None
        queries = oracle.queries
        expected = main_mechanism_exact_expectation(oracle)
        assert oracle.queries == queries  # the expectation reads the same ledger
        assert repr(expected) == repr(main_mechanism_exact_expectation(profile.oracle()))


def test_quarter_bound_exhaustive_is_capped_with_the_exact_expectation():
    """Both ``3^n`` enumerations refuse n = 13, with the same message shape,
    before any value is read."""
    profile = size_scalar_profile(13)
    oracle = profile.oracle()
    with pytest.raises(ValueError, match=r"^quarter bound rejected for n > 12$"):
        quarter_bound_exhaustive(oracle)
    with pytest.raises(ValueError, match=r"^exact expectation rejected for n > 12$"):
        main_mechanism_exact_expectation(oracle)
    assert oracle.queries == 0


def test_both_enumerations_run_at_the_cap():
    """At n = 12, the top of the exhaustive range, both ``3^n`` enumerations run on
    one oracle: the expectation and ``F^(3)`` are pinned, the ``F^(3)/324`` bound
    holds and no partition fails the quarter bound."""
    oracle = gen_instance("graph_concave", 12, seed=1, graph="er").oracle()
    expected = main_mechanism_exact_expectation(oracle)
    assert repr(expected) == "15.686733354082499"
    f3 = benchmark_bruteforce(oracle, 3).value
    assert repr(f3) == "132.42087016109417"
    assert expected >= f3 / 324
    assert quarter_bound_exhaustive(oracle) == (3 ** 12, 0, [])


# --- revenue guarantee skeleton ----------------------------------------------------

def test_revenue_guarantee_suite_small():
    instances = [(f"i{k}", gen_instance("mixed", 3 + k % 3, seed=k)) for k in range(6)]
    report = revenue_guarantee_suite(instances)
    assert report.summary["violations"] == 0
    assert len(report.rows) == 6
    for row in report.as_dicts():
        assert row["bound_ok"]
        assert row["f1"] >= row["f2"] >= row["f3"]


def test_standard_suite_composition():
    suite = standard_suite(total=40)
    assert len(suite) == 40
    sizes = {profile.n for _, profile in suite}
    assert sizes == set(range(3, 10))


#: recorded before the generated families moved into one table: the names and
#: instance digests of ``standard_suite(total=12)``, and one n = 11 ``mixed``
#: instance (past the table cap, so its agents draw from the other four families)
SUITE_12_DIGEST = "ed6a1a0852caf78acc19e45ad173d6a0a003b82b9c09d929d041fc58822c901a"
MIXED_11_DIGEST = "e33c12bd85faf0bd"


def test_standard_suite_tops_up_to_its_total():
    """At ``total=12`` the rounded per-size counts sum to 11, so the top-up loop runs."""
    suite = standard_suite(total=12)
    assert [name for name, _ in suite] == [
        "table-n3-0", "additive-n3-1", "scalar-n3-2", "graph_concave-n4-0", "linear-n4-1",
        "mixed-n5-0", "table-n5-1", "additive-n6-0", "scalar-n6-1", "graph_concave-n7-0",
        "linear-n8-0", "mixed-n9-0",
    ]
    listing = " ".join(f"{name}:{instance_digest(p)}" for name, p in suite)
    assert hashlib.sha256(listing.encode()).hexdigest() == SUITE_12_DIGEST


def test_mixed_past_the_table_cap_draws_no_table():
    profile = gen_instance("mixed", 11, seed=3)
    assert not any(isinstance(m, TableModel) for m in profile.models)
    assert instance_digest(profile) == MIXED_11_DIGEST


def test_gen_instance_caps_table_instances():
    with pytest.raises(ValueError, match=r"^table instances are capped at n <= 10$"):
        gen_instance("table", 11)


# --- additive decomposition ---------------------------------------------------------

def _additive(ws, ts, scale=0.0):
    return ValuationProfile(
        [AdditiveModel(t=t, weight=DegreeWeight(base=w, scale=scale)) for w, t in zip(ws, ts)]
    )


def test_mechanism2_bound_no_externality():
    check = mechanism2_bound_check(_additive([0.0, 0.0, 0.0], [5.0, 3.0, 3.0]))
    assert check.decomposition_ok
    assert check.f2 == pytest.approx(check.f2_classical)
    assert check.mixture_ok


def test_mechanism2_bound_pure_externality():
    check = mechanism2_bound_check(_additive([4.0, 4.0], [0.0, 0.0]))
    assert check.decomposition_ok
    assert check.f2_classical == 0.0
    assert check.f2 == pytest.approx(8.0)
    assert check.mixture_ok


def test_mechanism2_bound_random_additive():
    for seed in range(15):
        profile = gen_instance("additive", 3 + seed % 5, seed=seed)
        check = mechanism2_bound_check(profile)
        assert check.decomposition_ok and check.mixture_ok


# --- demos ----------------------------------------------------------------------------

def test_f2_gap_demo_ratios_grow():
    report = f2_gap_demo([1.0, 10.0, 100.0, 1000.0])
    rows = report.as_dicts()
    assert rows[0]["f2"] == pytest.approx(2.0)
    ratios = [r["ratio_vs_f2"] for r in rows]
    assert ratios == sorted(ratios)
    for r in rows[1:]:
        assert r["ratio_vs_f2"] > r["m_factor"] / 10
        assert r["f3"] == 0.0  # the 3-winner guarantee is untouched


def test_losing_value_demo():
    demo = losing_value_demo()
    assert demo["invalid_rejected"]
    assert any("nonzero_outside" in v for v in demo["invalid_violations"])
    assert demo["truncated_violations"] == []


def test_revenue_guarantee_suite_with_no_three_winner_benchmark():
    instances = [(f"gap{m}", two_agent_gap_instance(m)) for m in (1.0, 10.0)]
    summary = revenue_guarantee_suite(instances).summary
    assert summary["violations"] == 0
    assert summary["instances"] == 2
    assert summary["worst_revenue_over_f3"] is None
    assert math.isnan(summary["min_ratio"]) and math.isnan(summary["mean_ratio"])


def test_exact_rows_match_one_fresh_oracle_per_call():
    """The exact experiment and the f2-gap demo read ``E[rev]`` and every ``F^(k)``
    off one oracle per instance; their rows are ``repr``-equal to rows built
    with a fresh oracle for each call."""
    instances = standard_suite()[::10] + [(kind, gen_instance(kind, 8, seed=1))
                                          for kind in GEN_MODELS]
    rows = []
    for name, profile in instances:
        f1, f2, f3 = (benchmark_bruteforce(profile, k).value for k in (1, 2, 3))
        expected = main_mechanism_exact_expectation(profile)
        ratio = experiments._ratio(f3, expected) if f3 > EPS else math.nan
        ok = expected >= f3 / experiments.REVENUE_GUARANTEE_FACTOR - EPS
        rows.append((name, profile.n, f1, f2, f3, expected, ratio, ok))
    assert repr(revenue_guarantee_suite(instances).rows) == repr(rows)
    rows = []
    for m in experiments.F2_GAP_M_VALUES:
        profile = two_agent_gap_instance(m)
        f2, f3 = (benchmark_bruteforce(profile, k).value for k in (2, 3))
        expected = main_mechanism_exact_expectation(profile)
        rows.append((m, f2, f3, expected, experiments._ratio(f2, expected)))
    assert repr(f2_gap_demo(experiments.F2_GAP_M_VALUES).rows) == repr(rows)


# --- campaigns --------------------------------------------------------------------------

def test_ratio_campaign_empty_when_no_trials():
    report = ratio_campaign([("a", size_scalar_profile(3))], trials=0)
    assert report.rows == []


@pytest.mark.parametrize("trials", [0, -3])
def test_ratio_campaign_summary_without_trials(trials):
    report = ratio_campaign([("a", size_scalar_profile(3))], trials=trials)
    assert report.rows == []
    assert report.summary == {
        "instances": 0, "trials": trials, "seed": 0, "within_query_budget": True,
    }
    assert "min_ratio" not in report.summary


def test_ratio_campaign_without_trials_runs_no_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a benchmark sweep ran for a campaign without trials")

    monkeypatch.setattr(experiments, "benchmark_sweep", no_sweep)
    assert ratio_campaign([("a", size_scalar_profile(3))], trials=0).rows == []


def test_ratio_campaign_deterministic_and_within_budget():
    instances = [(f"g{k}", gen_instance("graph_concave", 12, seed=k, graph="er")) for k in range(3)]
    a = ratio_campaign(instances, trials=40, seed=5)
    b = ratio_campaign(instances, trials=40, seed=5)
    assert a.rows == b.rows
    assert a.summary["within_query_budget"]


def test_monte_carlo_agrees_with_exact_expectation():
    profile = gen_instance("mixed", 5, seed=13)
    exact = main_mechanism_exact_expectation(profile)
    mean, err = monte_carlo_expectation(profile, trials=10_000, seed=99)
    assert abs(mean - exact) <= max(3 * err, 1e-9)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert 0 <= derive_seed("x") < 2**64


def test_partition_stats_sum_to_optimum_size():
    from extauction.experiments import partition_stats

    profile = size_scalar_profile(5)
    optimum = benchmark_bruteforce(profile, 3)
    for seed in range(5):
        import random as _r

        part = Partition3.sample(5, _r.Random(seed))
        stats = partition_stats(optimum, part)
        assert stats.k1 + stats.k2 + stats.k3 == stats.m == 5


def test_monte_carlo_tracks_exact_on_several_instances():
    for seed, n in [(21, 4), (22, 6), (23, 7)]:
        profile = gen_instance("mixed", n, seed=seed)
        exact = main_mechanism_exact_expectation(profile)
        mean, err = monte_carlo_expectation(profile, trials=10_000, seed=seed)
        assert abs(mean - exact) <= max(3 * err, 1e-9)


def test_ratio_campaign_scales_past_exact_range():
    # n = 30 monte-carlo: sweep benchmark still exact, budget still honored
    instances = [("big", gen_instance("graph_concave", 30, seed=4, graph="er", graph_p=0.2))]
    report = ratio_campaign(instances, trials=200, seed=1)
    row = report.as_dicts()[0]
    assert row["n"] == 30
    assert row["f3"] > 0
    assert row["max_queries"] <= row["budget"]
    assert report.summary["within_query_budget"]
