"""The incremental argmin-deletion sweep against the generic one.

``_greedy_sweep`` sweeps a pool of more than ``INCREMENTAL_SWEEP_ABOVE``
degree-table members incrementally: each deletion updates only the deleted
agent's in-neighbours.  A sparse pool steps from a sorted order
(``_sorted_sweep``), any other scans its values; a pool holding a NaN table
takes neither, and steps through ``Oracle.argmin``.  Lifting the gate
(``conftest.generic_path``) forces the generic, one-``argmin``-per-step path
on the same values, so every test here compares the two by the ``repr`` of
the result (``-0.0`` and NaN count) and by ``oracle.queries``.
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

from conftest import generic_path

BIG = 1e308


def _sweep_both(profile, pool, free, k):
    fast, slow = profile.oracle(), profile.oracle()
    got = bm._greedy_sweep(fast, pool, free, k)
    with generic_path():
        want = bm._greedy_sweep(slow, pool, free, k)
    return (repr(got), fast.queries), (repr(want), slow.queries)


@pytest.fixture
def incremental_calls(monkeypatch):
    """How many sweeps took the incremental path."""
    calls = []
    inner = bm._degree_sweep
    monkeypatch.setattr(bm, "_degree_sweep", lambda *a: calls.append(a[2]) or inner(*a))
    return calls


@pytest.fixture
def sorted_calls(monkeypatch):
    """How many incremental sweeps took the sorted loop."""
    calls = []
    inner = bm._sorted_sweep
    monkeypatch.setattr(bm, "_sorted_sweep", lambda *a: calls.append(a[3]) or inner(*a))
    return calls


def _check_pools(profile, rng, incremental_calls, rounds=12):
    """Random pools and free sets, large and small, agree on both paths; the large
    ones without a NaN-table member take the incremental one."""
    n = profile.n
    taken = len(incremental_calls)
    large = 0
    for r in range(rounds):
        if r == 0:
            pool, free = profile.full, 0
        else:
            pool = rng.getrandbits(n) | rng.getrandbits(n)  # about 3/4 of the agents
            free = rng.getrandbits(n) & ~pool
        large += (pool.bit_count() > bm.INCREMENTAL_SWEEP_ABOVE
                  and not pool & ~profile._degree_view().mask)
        for k in (1, 2, 3):
            got, want = _sweep_both(profile, pool, free, k)
            assert got == want, (n, pool, free, k)
    assert len(incremental_calls) - taken == 3 * large
    return large


@pytest.mark.parametrize("family", ["additive", "scalar", "graph_concave", "linear"])
@pytest.mark.parametrize("graph,graph_p", [("er", 0.05), ("er", 0.1), ("er", 0.3), ("er", 0.8),
                                           ("pa", 0.5), (None, 0.5)])
def test_generated_profiles_sweep_the_same_on_both_paths(family, graph, graph_p,
                                                         incremental_calls, sorted_calls):
    rng = random.Random(f"{family}/{graph}/{graph_p}")
    for n in (13, 14, 17, 22, 31, 40, 64):
        profile = gen_instance(family, n, seed=n, graph=graph, graph_p=graph_p)
        assert _check_pools(profile, rng, incremental_calls)
    if graph_p <= 0.1:
        assert sorted_calls  # the sparse pools met the sorted loop


def _odd_model(rng, nan=True):
    """A degree-table model drawn from ties, signed zeros and overflowing bids, with
    NaN tables among them unless ``nan`` is false."""
    t = rng.choice([1, 2, 3, 0.0, -0.0, BIG])
    kind = rng.randrange(6)
    if not nan and (kind == 3 or not t and kind in (1, 4)):  # 0 * inf and inf - inf
        kind = 5
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
def test_ties_signed_zeros_and_overflow_sweep_the_same(seed, incremental_calls, sorted_calls):
    rng = random.Random(seed)
    for n in (13, 16, 25, 40, 64):
        graphs = [None, _asymmetric_graph(n, rng, 0.15), _asymmetric_graph(n, rng, 0.6),
                  gen_instance("graph_concave", n, seed=seed, graph="er", graph_p=0.2).graph]
        cases = [(graph, True) for graph in graphs]
        if n >= 40:  # sparse graphs, drawn apart so that the ones above stay as they were
            sparse = [_asymmetric_graph(n, random.Random(f"{seed}/{n}"), 0.05),
                      gen_instance("graph_concave", n, seed=seed, graph="er", graph_p=0.05).graph]
            cases += [(graph, nan) for graph in sparse for nan in (True, False)]
        for graph, nan in cases:
            profile = ValuationProfile([_odd_model(rng, nan) for _ in range(n)], graph=graph)
            assert nan or profile._degree_view().mask == profile.full
            _check_pools(profile, rng, incremental_calls, rounds=6)
        # most pools above hold a NaN table and so step through Oracle.argmin; the same
        # graphs without one, drawn apart, take both degree loops
        twin = random.Random(f"{seed}/{n}/nan-free")
        for graph in graphs:
            profile = ValuationProfile([_odd_model(twin, False) for _ in range(n)], graph=graph)
            assert profile._degree_view().mask == profile.full
            assert _check_pools(profile, twin, incremental_calls, rounds=6)
    assert sorted_calls and len(incremental_calls) > len(sorted_calls)


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


def test_sparse_pools_sweep_sorted_and_dense_or_nan_pools_scan(incremental_calls, sorted_calls,
                                                               monkeypatch):
    """Both loops of the incremental sweep run: the sorted one on a sparse pool, the
    scan on the complete graph.  A sparse pool holding a NaN table takes neither, and
    its sweep and its deletion rounds step through ``Oracle.argmin`` and ``Oracle.below``."""
    n = 40
    sparse = gen_instance("graph_concave", n, seed=1, graph="er", graph_p=0.05)
    dense = gen_instance("graph_concave", n, seed=1)
    i = next(i for i in range(n) if sparse.graph[i])  # a NaN at every k >= 1
    nan = sparse.replace(i, LinearModel(BIG, DegreeWeight(BIG, BIG), DegreeWeight(-BIG, -BIG)))
    for profile in (sparse, dense, nan):
        got, want = _sweep_both(profile, profile.full, 0, 1)
        assert got == want
    assert nan._sweep_view.mask == nan.full & ~(1 << i) and sparse._sweep_view.mask == sparse.full
    assert incremental_calls == [sparse.full, dense.full]
    assert sorted_calls == [sparse.full]

    below_views = []
    degree_below = bm._degree_below
    monkeypatch.setattr(bm, "_degree_below",
                        lambda o, v: below_views.append(v) or degree_below(o, v))

    def rounds(oracle):
        return bm.deletion_fixpoint(oracle, oracle.full, 0, lambda size: 150.0 / size)

    for profile in (nan, sparse):
        fast, slow = profile.oracle(), profile.oracle()
        got = rounds(fast)
        with generic_path():
            want = rounds(slow)
        assert (got, fast.queries) == (want, slow.queries)
    assert below_views == [sparse._sweep_view]  # the NaN pool's rounds built none


def test_sparse_tie_goes_to_the_smallest_id(sorted_calls):
    """Agents 0 and 1 tie at 1.0 and each bids 5.0 once the other leaves: a table
    outside the valuation conditions, where the tie shows in the recorded set."""
    n = 20
    pair = AdditiveModel(0.0, DegreeWeight(5.0, -4.0))  # 5.0 alone, 1.0 with its neighbour
    graph = [[1], [0]] + [[] for _ in range(n - 2)]
    profile = ValuationProfile([pair, pair] + [GraphConcaveModel(4.0, beta=0.0)] * (n - 2),
                               graph=graph)
    got, want = _sweep_both(profile, profile.full, 0, 1)
    assert got == want == (repr((76.0, 4.0, profile.full & ~1)), n * (n + 1) // 2)
    assert sorted_calls == [profile.full]


def test_small_pools_table_agents_and_a_lifted_gate_take_the_generic_path(incremental_calls):
    profile = gen_instance("graph_concave", 16, seed=3, graph="er", graph_p=0.3)
    small = (1 << bm.INCREMENTAL_SWEEP_ABOVE) - 1
    bm._greedy_sweep(profile.oracle(), small, 0, 1)
    assert profile._sweep_view is None  # nothing is read until a large pool sweeps
    table = profile.replace(5, AdditiveModel(1.0, TableWeight({profile.full: 1.0})))
    bm._greedy_sweep(table.oracle(), table.full, 0, 1)
    with generic_path():
        bm._greedy_sweep(profile.oracle(), profile.full, 0, 1)
    assert incremental_calls == [] and profile._sweep_view is None
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
