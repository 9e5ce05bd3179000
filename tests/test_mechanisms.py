import itertools
import json
import random
import re
import sys
import threading

import pytest

from extauction import (
    AdditiveModel,
    DegreeWeight,
    Partition3,
    TableModel,
    ValuationProfile,
    benchmark_bruteforce,
    check_conditions,
    cost_share,
    fixed_price_mechanism,
    main_mechanism,
    main_mechanism_exact_expectation,
    mechanism2,
    mechanism2_expected_revenue,
    rsop,
)
from extauction import mechanisms as mech
from extauction import benchmark as bm
from extauction.experiments import gen_instance, quarter_bound_check, two_agent_gap_instance
from extauction.sets import mask_of, members
from extauction.truthfulness import deviation_test, misreport_plan
from extauction.valuations import EPS

from conftest import flat_bids_profile, size_scalar_profile


# --- fixed price ------------------------------------------------------------

def test_fixed_price_flat(three_flat):
    out = fixed_price_mechanism(three_flat, 3.0)
    assert out.winners == 0b111
    assert out.revenue == pytest.approx(9.0)
    assert all(p == pytest.approx(3.0) for p in out.payments.values())


def test_fixed_price_zero(three_flat):
    out = fixed_price_mechanism(three_flat, 0.0)
    assert out.winners == 0b111
    assert out.revenue == 0.0


def test_fixed_price_collapse():
    profile = ValuationProfile(
        [TableModel({0b01: 1.0, 0b11: 4.0}), TableModel({0b10: 1.0, 0b11: 4.0})]
    )
    out = fixed_price_mechanism(profile, 5.0)
    assert out.winners == 0 and out.revenue == 0.0


# --- cost share -------------------------------------------------------------

def test_cost_share_evicts_low_bidder():
    profile = flat_bids_profile([10.0, 1.0])
    out = cost_share(profile, 8.0, 0b11, 0)
    assert out.winners == 0b01
    assert out.payments[0] == pytest.approx(8.0)
    assert out.revenue == pytest.approx(8.0)


def test_cost_share_zero_target_sells_to_everyone():
    profile = flat_bids_profile([10.0, 1.0])
    out = cost_share(profile, 0.0, 0b11, 0)
    assert out.winners == 0b11
    assert out.revenue == 0.0


def test_cost_share_even_split():
    profile = flat_bids_profile([3.0, 3.0])
    out = cost_share(profile, 6.0, 0b11, 0)
    assert out.winners == 0b11
    assert all(p == pytest.approx(3.0) for p in out.payments.values())
    assert out.revenue == pytest.approx(6.0)


@pytest.mark.parametrize("r", [-1.0, float("nan"), float("inf")])
def test_cost_share_rejects_targets_outside_the_domain(r):
    """Like a fixed price: a NaN target would sell to everyone at NaN, an infinite
    one to nobody."""
    with pytest.raises(ValueError, match=r"^target revenue must be nonnegative and finite$"):
        cost_share(flat_bids_profile([10.0, 1.0]), r, 0b11, 0)


def test_cost_share_rejects_a_pool_that_overlaps_the_free_set():
    with pytest.raises(ValueError, match=r"^cost-share pool and free set must be disjoint$"):
        cost_share(flat_bids_profile([10.0, 1.0]), 1.0, 0b11, 0b01)


@pytest.mark.parametrize("r", [0.0, -0.0])
def test_cost_share_accepts_both_zeros(r):
    out = cost_share(flat_bids_profile([10.0, 1.0]), r, 0b11, 0)
    assert out.winners == 0b11 and repr(out.revenue) == repr(r)


def test_cost_share_revenue_all_or_nothing():
    for seed in range(8):
        profile = gen_instance("mixed", 5, seed=seed)
        for r in (0.0, 1.0, 4.0, 9.0, 30.0):
            out = cost_share(profile, r, 0b10111, 0b01000)
            assert out.revenue == 0.0 or out.revenue == pytest.approx(r, abs=1e-9)


# --- tripartition auction ----------------------------------------------------

def test_main_mechanism_hand_trace():
    profile = size_scalar_profile(3)
    part = Partition3(a=0b001, b=0b010, c=0b100)
    out = main_mechanism(profile, partition=part)
    assert out.winners == 0b011
    assert out.payments[0] == 0.0
    assert out.payments[1] == pytest.approx(2.0)
    assert out.revenue == pytest.approx(2.0)


def test_main_mechanism_all_free():
    profile = size_scalar_profile(3)
    out = main_mechanism(profile, partition=Partition3(a=0b111, b=0, c=0))
    assert out.winners == 0b111
    assert out.revenue == 0.0


def test_main_mechanism_never_sells_to_testers():
    for seed in range(30):
        profile = gen_instance("mixed", 6, seed=seed)
        part = Partition3.sample(6, __import__("random").Random(seed))
        out = main_mechanism(profile, partition=part)
        assert out.winners & part.c == 0
        assert out.winners & part.a == part.a
        for i in members(part.a):
            assert out.payment(i) == 0.0


@pytest.mark.parametrize(
    "part",
    [Partition3(1, 2, 0), Partition3(7, 7, 0), Partition3(1, 2, 12), Partition3(-1, 0, 0)],
    ids=["agent-in-no-group", "agents-in-a-and-b", "agents-past-n", "negative-mask"],
)
def test_a_partition_that_does_not_split_the_agents_is_refused(part):
    profile = gen_instance("additive", 3, seed=1)
    message = rf"^{re.escape(repr(part))} does not partition the 3 agents$"
    with pytest.raises(ValueError, match=message):
        main_mechanism(profile, partition=part)
    with pytest.raises(ValueError, match=message):
        quarter_bound_check(profile, part)


def _cold(profile, seed):
    """``main_mechanism`` on a partition drawn afresh, bypassing the replay memo."""
    return main_mechanism(profile, partition=Partition3.sample(profile.n, random.Random(seed)))


def test_main_mechanism_seeded_is_deterministic():
    profile = gen_instance("graph_concave", 7, seed=5, graph="er")
    a = main_mechanism(profile, 123)
    b = _cold(profile, 123)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    c = main_mechanism(profile, 124)
    assert json.dumps(a.to_json(), sort_keys=True) != json.dumps(c.to_json(), sort_keys=True) or a.revenue == c.revenue


def test_seeded_replay_matches_a_cold_draw():
    small = gen_instance("graph_concave", 7, seed=5, graph="er")
    large = gen_instance("mixed", 9, seed=2)
    info = mech._seeded_partition.cache_info
    mech._seeded_partition.cache_clear()
    last = None
    # interleaved seeds, then one seed at two sizes, then the same seed again
    for profile, seed in [(small, 1), (small, 2), (small, 1), (large, 2), (small, 2),
                          (large, 2), (large, 2**63 + 5), (small, -3)]:
        before = info()
        assert repr(vars(main_mechanism(profile, seed))) == repr(vars(_cold(profile, seed)))
        drawn = (profile.n, seed) != last  # one entry: the last seed only
        after = info()
        assert (after.hits - before.hits, after.misses - before.misses, after.currsize) == (
            int(not drawn), int(drawn), 1)
        last = (profile.n, seed)


def test_a_shared_generator_draws_afresh_each_run():
    profile = gen_instance("mixed", 8, seed=3)
    mine, ref = random.Random(9), random.Random(9)
    first, second = main_mechanism(profile, mine), main_mechanism(profile, mine)
    for out in (first, second):
        part = Partition3.sample(profile.n, ref)
        assert repr(vars(out)) == repr(vars(main_mechanism(profile, partition=part)))
    assert mine.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [True, None, "seven"])
def test_seeds_that_are_not_ints_skip_the_memo(seed):
    profile = gen_instance("mixed", 6, seed=1)
    before = mech._seeded_partition.cache_info()
    out = main_mechanism(profile, seed)
    assert mech._seeded_partition.cache_info() == before
    if seed is not None:  # None seeds from the OS
        assert repr(vars(out)) == repr(vars(_cold(profile, seed)))


def test_threads_sharing_the_memo_each_get_their_own_seed():
    profiles = [gen_instance("mixed", 6, seed=1), gen_instance("mixed", 7, seed=1)]
    jobs = [(profiles[k % 2], seed) for k, seed in enumerate([3, 3, 4, 5, 5, 6, 7, 7] * 4)]
    want = [repr(vars(_cold(p, seed))) for p, seed in jobs]
    wrong = []

    def work(offset):
        for k in range(len(jobs)):
            k = (k + offset) % len(jobs)
            if repr(vars(main_mechanism(*jobs[k]))) != want[k]:
                wrong.append(jobs[k][1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(3 * t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_deviation_test_draws_one_partition_per_seed(monkeypatch):
    draws = []
    sample = Partition3.sample.__func__

    def counting(cls, n, rng):
        draws.append(n)
        return sample(cls, n, rng)

    monkeypatch.setattr(Partition3, "sample", classmethod(counting))
    mech._seeded_partition.cache_clear()
    profile = gen_instance("mixed", 8, seed=4)
    plan = misreport_plan(profile, 12, seed=2)
    seeds = [5, 6, 5]
    assert len(plan) >= 12
    deviation_test(main_mechanism, profile, plan, seeds=seeds)
    assert draws == [8] * len(seeds)


def test_main_mechanism_query_budget():
    for seed in range(10):
        n = 3 + seed % 6
        profile = gen_instance("mixed", n, seed=seed)
        out = main_mechanism(profile, seed)
        assert out.queries_used <= 10 * n * n


# --- exact expectation: double implementation oracle -------------------------

def _pool_revenue_reference(profile, pool, free):
    """Best fixed-price revenue from pool given free, by full subset scan."""
    best = 0.0
    pool, free = set(pool), set(free)
    for size in range(1, len(pool) + 1):
        for t in itertools.combinations(sorted(pool), size):
            s = mask_of(t) | mask_of(free)
            price = min(profile.value(i, s) for i in t)
            best = max(best, price * len(t))
    return best


def _expected_revenue_reference(profile):
    """Straight reimplementation: label loop, subset-scan revenues, literal cost share."""
    n = profile.n
    total = 0.0
    for labels in itertools.product("ABC", repeat=n):
        groups = {lab: {i for i, l in enumerate(labels) if l == lab} for lab in "ABC"}
        a, b, c = groups["A"], groups["B"], groups["C"]
        r = max(_pool_revenue_reference(profile, c, a), _pool_revenue_reference(profile, c, b)) if c else 0.0
        survivors = set(b)
        while survivors:
            share = r / len(survivors)
            drop = {
                i
                for i in survivors
                if profile.value(i, mask_of(survivors | a)) < share - 1e-9
            }
            if not drop:
                break
            survivors -= drop
        if survivors:
            total += r
    return total / 3**n


def test_exact_expectation_size_scalar():
    profile = size_scalar_profile(3)
    expected = main_mechanism_exact_expectation(profile)
    assert expected == pytest.approx(21 / 27)  # hand-enumerated over the 27 partitions
    assert expected == pytest.approx(_expected_revenue_reference(profile))


def test_exact_expectation_matches_reference_on_random_instances():
    for seed, n in [(0, 3), (1, 4), (2, 4), (3, 5), (4, 5)]:
        profile = gen_instance("mixed", n, seed=seed)
        assert main_mechanism_exact_expectation(profile) == pytest.approx(
            _expected_revenue_reference(profile), abs=1e-9
        )


def test_exact_expectation_matches_empirical_partition_average():
    # averaging the deterministic runs over every partition is the definition
    profile = gen_instance("scalar", 4, seed=9)
    runs = [
        main_mechanism(profile, partition=p).revenue for p in Partition3.all_partitions(4)
    ]
    assert main_mechanism_exact_expectation(profile) == pytest.approx(sum(runs) / len(runs))


def test_exact_expectation_meets_revenue_guarantee():
    for seed in range(10):
        profile = gen_instance("mixed", 3 + seed % 5, seed=seed)
        f3 = benchmark_bruteforce(profile, 3).value
        assert main_mechanism_exact_expectation(profile) >= f3 / 324 - 1e-9


def test_exact_expectation_rejects_large_n():
    with pytest.raises(ValueError):
        main_mechanism_exact_expectation(flat_bids_profile([1.0] * 13))


# --- partitions the exact expectation skips ----------------------------------------

def _skipped(profile, part):
    """The exact expectation's skip rule, restated for a partition with B non-empty:
    ``r(C)`` is zero, or ``r(C) > 0`` and ``r(B | A) < r(C) - n^2 * EPS * (1 + r(C))``."""
    r_c = mech.testers_revenue(profile.oracle(), part)
    if not r_c:
        return True
    r_b = bm._greedy_sweep(profile.oracle(), part.b, part.a, 1)[0]
    return r_c > 0 and r_b < r_c - profile.n ** 2 * EPS * (1 + r_c)


def _expectation_and_runs(profile):
    """The exact expectation, and the left-to-right sum of every partition's run over ``3^n``."""
    total = 0.0
    for part in Partition3.all_partitions(profile.n):
        total += main_mechanism(profile, partition=part).revenue
    return main_mechanism_exact_expectation(profile), total / 3 ** profile.n


R = 65244415293.32113


@pytest.mark.parametrize(
    "bids, expected",
    [
        # r(B|A) = 7 * fl(R/7) lies 7.6e-6 under r(C) = R: no margin of a few
        # EPS covers that, the relative part does
        ([R] + [R / 7] * 7, "0x1.2f79ae3c6cecap+33"),
        # each buyer bids 0.99 * EPS under r(C)/|B|, so r(B|A) lies 2.97 * EPS
        # under r(C) = 0.01: the margin's relative part, 16 * EPS * 0.01, falls
        # short, and its absolute part covers the gap
        ([0.01] + [0.01 / 3 - 0.99e-9] * 3, "0x1.a4b98dfed4341p-10"),
    ],
    ids=["relative", "absolute"],
)
def test_exact_expectation_runs_near_ties_that_pay(bids, expected):
    """Values recorded before the skip rule.  B = everyone but agent 0, C = {0}:
    B's own sweep value misses ``r(C)``, yet every buyer survives and pays.
    The skip rule keeps that partition, the expectation is the runs' sum, bit
    for bit, and the rule does skip some others."""
    profile = flat_bids_profile(bids)
    assert check_conditions(profile) == []
    part = Partition3(0, profile.full - 1, 1)
    r_c = mech.testers_revenue(profile.oracle(), part)
    assert bm._greedy_sweep(profile.oracle(), part.b, part.a, 1)[0] < r_c
    outcome = main_mechanism(profile, partition=part)
    assert outcome.winners == part.b and outcome.revenue > 0
    value, runs = _expectation_and_runs(profile)
    assert value.hex() == expected == runs.hex()
    assert not _skipped(profile, part)
    assert any(p.b and _skipped(profile, p) for p in Partition3.all_partitions(profile.n))


def test_exact_expectation_keeps_a_negative_testers_revenue():
    """A valid profile may bid in ``[-EPS, 0)``, so ``r(C)`` can be negative and B
    pays it: those partitions count, not skipped with the zeros (value recorded
    before the skip rule)."""
    profile = flat_bids_profile([-5e-10, 1.0, 2.0])
    assert check_conditions(profile) == []
    part = Partition3(0b010, 0b100, 0b001)
    assert mech.testers_revenue(profile.oracle(), part) == -5e-10
    assert main_mechanism(profile, partition=part).revenue == -5e-10
    value, runs = _expectation_and_runs(profile)
    assert value.hex() == "0x1.c71c71c34b19cp-4" == runs.hex()
    assert not _skipped(profile, part)
    assert any(p.b and _skipped(profile, p) for p in Partition3.all_partitions(profile.n))


def test_two_agent_gap_expected_revenue():
    # only the B/C split partitions can charge; they collapse once m > 1
    assert main_mechanism_exact_expectation(two_agent_gap_instance(1.0)) == pytest.approx(2 / 9)
    assert main_mechanism_exact_expectation(two_agent_gap_instance(10.0)) == 0.0


# --- RSOP ---------------------------------------------------------------------

def test_rsop_equal_bids_split():
    out = rsop([10.0, 10.0], coins=[0, 1])
    assert out.winners == 0b11
    assert out.revenue == pytest.approx(20.0)


def test_rsop_single_bidder():
    out = rsop([10.0], coins=[0])
    assert out.winners == 0 and out.revenue == 0.0


def test_rsop_unequal_bids():
    out = rsop([10.0, 1.0], coins=[0, 1])
    assert out.winners == 0b01
    assert out.payments[0] == pytest.approx(1.0)
    assert out.revenue == pytest.approx(1.0)


@pytest.mark.parametrize("coins, message", [([0], "one coin per bidder"), ([0, 2], "0 or 1"),
                                            ([0, -1], "0 or 1"), ([0.0, 1.0], "0 or 1")])
def test_rsop_rejects_bad_coins(coins, message):
    with pytest.raises(ValueError, match=message):
        rsop([10.0, 1.0], coins=coins)


def test_rsop_takes_bool_coins():
    assert rsop([10.0, 1.0], coins=[False, True]).to_json() == rsop([10.0, 1.0], coins=[0, 1]).to_json()


def test_rsop_seeded_deterministic():
    a = rsop([3.0, 7.0, 2.0, 9.0], rng=5)
    b = rsop([3.0, 7.0, 2.0, 9.0], rng=5)
    assert a.to_json() == b.to_json()


# --- additive mixture ---------------------------------------------------------

def _additive_profile(ws, ts):
    return ValuationProfile(
        [AdditiveModel(t=t, weight=DegreeWeight(base=w, scale=0.0)) for w, t in zip(ws, ts)]
    )


def test_mechanism2_branch_probabilities():
    # alpha = 1: the free-goods branch fires about half the time
    profile = _additive_profile([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
    fired = sum(
        mechanism2(profile, alpha=1.0, rng=seed).winners == profile.full
        and mechanism2(profile, alpha=1.0, rng=seed).payments[0] == pytest.approx(4.0)
        for seed in range(400)
    )
    assert 140 <= fired <= 260


def test_mechanism2_branch1_revenue():
    profile = _additive_profile([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
    for seed in range(50):
        out = mechanism2(profile, alpha=1.0, rng=seed)
        if out.winners == profile.full and out.payment(0) == pytest.approx(4.0):
            assert out.revenue == pytest.approx(12.0)
            return
    pytest.fail("branch 1 never sampled")


def test_mechanism2_branch2_adds_public_weight():
    profile = _additive_profile([2.0, 2.0], [10.0, 10.0])
    # force branch 2 by choosing a seed whose first draw is >= 1/2
    for seed in range(100):
        import random as _r

        if _r.Random(seed).random() >= 0.5:
            out = mechanism2(profile, alpha=1.0, m0=lambda bids, rng: rsop(bids, coins=[0, 1]), rng=seed)
            assert out.winners == 0b11
            # classical threshold 10 plus w_i of the allocated pair
            assert out.payments[0] == pytest.approx(12.0)
            assert out.revenue == pytest.approx(24.0)
            return
    pytest.fail("branch 2 never sampled")


def test_mechanism2_rejects_non_additive():
    with pytest.raises(ValueError):
        mechanism2(size_scalar_profile(3), alpha=1.0, rng=0)


def test_mechanism2_expected_revenue_formula():
    profile = _additive_profile([4.0, 4.0], [3.0, 3.0])
    # (1/2) * 8 + (1/2) * oracle
    assert mechanism2_expected_revenue(profile, 1.0, 6.0) == pytest.approx(7.0)


# --- outcome invariants --------------------------------------------------------

def test_payments_cover_winners_only():
    for seed in range(10):
        profile = gen_instance("mixed", 5, seed=seed)
        out = main_mechanism(profile, seed)
        for i in out.payments:
            assert (out.winners >> i) & 1
        assert out.revenue == pytest.approx(sum(out.payments.values()))


def test_individual_rationality_under_truth():
    for seed in range(20):
        profile = gen_instance("mixed", 6, seed=seed)
        out = main_mechanism(profile, seed)
        for i, p in out.payments.items():
            assert p <= profile.value(i, out.winners) + 1e-9
