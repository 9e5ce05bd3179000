"""The incremental argmin-deletion sweep against the generic one.

``_greedy_sweep`` sweeps a pool of more than ``INCREMENTAL_SWEEP_ABOVE``
degree-table members incrementally: each deletion updates only the deleted
agent's in-neighbours.  Giving the oracle a copy of the profile's evaluator
tuple forces the generic, one-``argmin``-per-step path on the same values, so
every test here compares the two by the ``repr`` of the result (``-0.0`` and
NaN count) and by ``oracle.queries``.
"""

import random

import pytest

from extauction import (
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    ScalarModel,
    TableWeight,
    ValuationProfile,
)
from extauction import benchmark as bm
from extauction.experiments import gen_instance
from extauction.mechanisms import main_mechanism
from extauction.truthfulness import deviation_test, misreport_plan

BIG = 1e308


def _sweep_both(profile, pool, free, k):
    fast, slow = profile.oracle(), profile.oracle()
    slow._fns = tuple(list(slow._fns))  # an equal tuple, not the profile's: the generic path
    got = bm._greedy_sweep(fast, pool, free, k)
    want = bm._greedy_sweep(slow, pool, free, k)
    return (repr(got), fast.queries), (repr(want), slow.queries)


@pytest.fixture
def incremental_calls(monkeypatch):
    """How many sweeps took the incremental path."""
    calls = []
    inner = bm._degree_sweep
    monkeypatch.setattr(bm, "_degree_sweep", lambda *a: calls.append(a[2]) or inner(*a))
    return calls


def _check_pools(profile, rng, incremental_calls, rounds=12):
    """Random pools and free sets, large and small, agree on both paths."""
    n = profile.n
    taken = len(incremental_calls)
    large = 0
    for r in range(rounds):
        if r == 0:
            pool, free = profile.full, 0
        else:
            pool = rng.getrandbits(n) | rng.getrandbits(n)  # about 3/4 of the agents
            free = rng.getrandbits(n) & ~pool
        large += pool.bit_count() > bm.INCREMENTAL_SWEEP_ABOVE
        for k in (1, 2, 3):
            got, want = _sweep_both(profile, pool, free, k)
            assert got == want, (n, pool, free, k)
    assert len(incremental_calls) - taken == 3 * large
    assert large


@pytest.mark.parametrize("family", ["additive", "scalar", "graph_concave", "linear"])
@pytest.mark.parametrize("graph,graph_p", [("er", 0.1), ("er", 0.3), ("er", 0.8), ("pa", 0.5),
                                           (None, 0.5)])
def test_generated_profiles_sweep_the_same_on_both_paths(family, graph, graph_p,
                                                         incremental_calls):
    rng = random.Random(f"{family}/{graph}/{graph_p}")
    for n in (13, 14, 17, 22, 31, 40):
        profile = gen_instance(family, n, seed=n, graph=graph, graph_p=graph_p)
        _check_pools(profile, rng, incremental_calls)


def _odd_model(rng):
    """A degree-table model drawn from ties, signed zeros and overflowing bids."""
    t = rng.choice([1, 2, 3, 0.0, -0.0, BIG])
    kind = rng.randrange(6)
    if kind == 0:
        return GraphConcaveModel(t, beta=rng.choice([0.0, 1.0]), shape="linear")
    if kind == 1:
        return ScalarModel(t, DegreeWeight(rng.choice([1.0, BIG]), rng.choice([0.0, 1.0, BIG])))
    if kind == 2:
        return AdditiveModel(t, DegreeWeight(rng.choice([0.0, -0.0, 1.0]), rng.choice([0.0, 1.0])))
    if kind == 3:  # inf * w - inf: NaN once the agent has a neighbour in the set
        return LinearModel(BIG, DegreeWeight(BIG, BIG), DegreeWeight(-BIG, -BIG))
    if kind == 4:
        return LinearModel(t, DegreeWeight(1.0, BIG), DegreeWeight(0.0, 1.0))
    return GraphConcaveModel(t, beta=2.0, shape="sqrt")


def _asymmetric_graph(n, rng, p):
    """Directed neighbour lists, some holding the agent itself."""
    return [[j for j in range(n) if rng.random() < p or (j == i and rng.random() < 0.5)]
            for i in range(n)]


@pytest.mark.parametrize("seed", range(12))
def test_ties_signed_zeros_and_overflow_sweep_the_same(seed, incremental_calls):
    rng = random.Random(seed)
    for n in (13, 16, 25, 40):
        graphs = [None, _asymmetric_graph(n, rng, 0.15), _asymmetric_graph(n, rng, 0.6),
                  gen_instance("graph_concave", n, seed=seed, graph="er", graph_p=0.2).graph]
        for graph in graphs:
            profile = ValuationProfile([_odd_model(rng) for _ in range(n)], graph=graph)
            _check_pools(profile, rng, incremental_calls, rounds=6)


def test_the_odd_bids_reach_inf_nan_and_negative_zero():
    """The models above do produce what the differential test claims to cover."""
    n = 13
    rng = random.Random(0)
    seen = set()
    for _ in range(40):
        profile = ValuationProfile([_odd_model(rng) for _ in range(n)])
        seen.update(repr(profile.value(i, profile.full)) for i in range(n))
    assert {"inf", "nan", "-0.0", "0.0", "1.0"} <= seen


def test_complete_graph_of_equal_bids_deletes_by_id(incremental_calls):
    profile = ValuationProfile([GraphConcaveModel(2.0, beta=0.0) for _ in range(20)])
    oracle = profile.oracle()
    assert bm._greedy_sweep(oracle, profile.full, 0, 1) == (40.0, 2.0, profile.full)
    assert oracle.queries == 20 * 21 // 2
    assert len(incremental_calls) == 1


def test_small_pools_table_agents_and_wrapped_evaluators_take_the_generic_path(
        incremental_calls):
    profile = gen_instance("graph_concave", 16, seed=3, graph="er", graph_p=0.3)
    small = (1 << bm.INCREMENTAL_SWEEP_ABOVE) - 1
    bm._greedy_sweep(profile.oracle(), small, 0, 1)
    assert profile._sweep_view is None  # nothing is read until a large pool sweeps
    table = profile.replace(5, AdditiveModel(1.0, TableWeight({profile.full: 1.0})))
    bm._greedy_sweep(table.oracle(), table.full, 0, 1)
    wrapped = profile.oracle()
    wrapped._fns = tuple(list(wrapped._fns))
    bm._greedy_sweep(wrapped, profile.full, 0, 1)
    assert incremental_calls == []
    bm._greedy_sweep(profile.oracle(), profile.full, 0, 1)
    assert incremental_calls == [profile.full]


def test_replace_keeps_the_degree_view_right(incremental_calls):
    """A table-weight agent sends sweeps to the generic path; swapping back restores it."""
    rng = random.Random(16)
    profile = gen_instance("additive", 16, seed=2, graph="er", graph_p=0.4)
    full = profile.full
    pools = [(full, 0)] + [(p, rng.getrandbits(16) & ~p)
                           for p in (rng.getrandbits(16) | rng.getrandbits(16) | 1 << 4
                                     for _ in range(8))]
    pools = [(p, f) for p, f in pools if p.bit_count() > bm.INCREMENTAL_SWEEP_ABOVE]
    assert len(pools) > 2

    def sweeps(prof):
        out = []
        for pool, free in pools:
            oracle = prof.oracle()
            out.append((repr(bm._greedy_sweep(oracle, pool, free, 1)), oracle.queries))
        return out

    assert len(sweeps(profile)) == len(incremental_calls)  # builds the view
    assert profile._sweep_view is not None
    original = profile.models[4]
    table = AdditiveModel(original.t, TableWeight({s: 1.0 + s.bit_count() / 16
                                                   for s in range(1 << 4, 1 << 6) if s >> 4 & 1}))
    swapped = profile.replace(4, table)
    del incremental_calls[:]
    fresh = ValuationProfile(swapped.models, graph=profile.graph)
    assert sweeps(swapped) == sweeps(fresh)
    assert incremental_calls == []  # every pool holds agent 4
    assert not swapped._sweep_view.mask >> 4 & 1

    back = swapped.replace(4, original)
    assert sweeps(back) == sweeps(profile)
    assert back._sweep_view == profile._sweep_view
    assert len(incremental_calls) == 2 * len(pools)
    moved = profile.replace(4, AdditiveModel(original.t + 3.0, original.weight))
    assert sweeps(moved) == sweeps(ValuationProfile(moved.models, graph=profile.graph))
    assert moved._sweep_view.tables[4] != profile._sweep_view.tables[4]


def test_deviation_reports_share_the_graph_masks():
    """A deviation test's reports read the truthful profile's neighbour masks, computed
    once for the graph, and each runs as a freshly built profile does."""
    profile = gen_instance("graph_concave", 32, seed=1)
    plan = misreport_plan(profile, 32)[::10]  # 29 misreports, each of the 9 kinds on some agent
    runs = []

    def mechanism(p, seed):
        out = main_mechanism(p, seed)
        runs.append((p, seed, out))
        return out

    deviation_test(mechanism, profile, plan, seeds=(0, 1))
    truth = profile._sweep_view
    assert truth is not None  # the runs swept a pool of more than 12
    assert len(runs) == 2 * (len(plan) + 1)
    for p, _, _ in runs:
        assert p._sweep_view.nbs is truth.nbs and p._sweep_view.in_nbs is truth.in_nbs
    for p, seed, out in runs:
        assert repr(main_mechanism(ValuationProfile(p.models), seed)) == repr(out)
