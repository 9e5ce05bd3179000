"""The deletion rounds on neighbour counts against the generic ones.

``deletion_fixpoint`` runs the rounds of a pool of more than
``INCREMENTAL_SWEEP_ABOVE`` degree-table members on each member's neighbour
count, read again every round.  Lifting the gate (``conftest.generic_path``)
forces the generic, one-``below``-per-round path on the same values, so
every test here compares the two by the survivors, by ``oracle.queries`` and
by the sizes ``bar`` was called with.
"""

import contextlib
import math
import random
from dataclasses import dataclass

import pytest

from extauction import (
    AdditiveModel,
    GraphConcaveModel,
    TableWeight,
    ValuationProfile,
    benchmark_sweep,
)
from extauction import benchmark as bm
from extauction.experiments import gen_instance
from extauction.mechanisms import cost_share, fixed_price_mechanism, main_mechanism
from extauction.valuations import EPS, _bind_by_degree

from conftest import generic_path
from test_incremental_sweep import _asymmetric_graph, _odd_model

BIG = 1e308
#: entries of the drawn tables: signed zeros, infinities, NaN, overflow and ties
ODD = (0.0, -0.0, 1.0, 1.0, 2.0, 3.0, 5.0, math.inf, -math.inf, math.nan, BIG, BIG * 10)


@dataclass(frozen=True)
class _Drawn:
    """Bound through ``_bind_by_degree`` to a table drawn from ``ODD`` by ``seed``;
    ``rising`` sorts it, so that rounds drop members a few at a time."""

    seed: int
    rising: bool = False

    def bind(self, i, neighbor_mask):
        rng = random.Random(self.seed)

        def fill(ks):
            values = [rng.choice(ODD) for _ in ks]
            return sorted(values, key=lambda x: -math.inf if x != x else x) if self.rising else values

        return _bind_by_degree(i, neighbor_mask, fill)


def _bars(rng, profile):
    """An equal-share bar ``r / size`` and a constant one, around the profile's ``F^(1)``."""
    best = benchmark_sweep(profile, 1)
    value = best.value if 0 < best.value < math.inf else 10.0
    price = best.price if 0 < best.price < math.inf else 1.0
    r = rng.choice([0.0, value / 2, value, 1.5 * value, 3 * value, BIG, math.inf])
    c = rng.choice([0.0, -0.0, price / 2, price, 2 * price, BIG, math.nan, math.inf])
    return [lambda size: r / size, lambda size: c]


def _rounds_both(profile, pool, free, bar):
    """(survivors, queries, bar sizes) on the count path's oracle and on the generic one."""
    out = []
    for gate in (contextlib.nullcontext(), generic_path()):
        oracle = profile.oracle()
        sizes = []
        with gate:
            t = bm.deletion_fixpoint(oracle, pool, free,
                                     lambda size: sizes.append(size) or bar(size))
        out.append((t, oracle.queries, sizes))
    return out


@pytest.fixture
def count_rounds(monkeypatch):
    """The pools whose rounds ran on neighbour counts: the first ``t`` that each
    table-reading ``below``, built once per fixpoint, is asked about."""
    pools = []
    build = bm._degree_below

    def recording(oracle, view):
        below = build(oracle, view)
        first = True

        def rounds(t, union, low):
            nonlocal first
            if first:
                pools.append(t)
                first = False
            return below(t, union, low)

        return rounds

    monkeypatch.setattr(bm, "_degree_below", recording)
    return pools


def _eligible(profile, pool, free):
    view = profile._degree_view()
    return (pool.bit_count() > bm.INCREMENTAL_SWEEP_ABOVE and not pool & free
            and not pool & ~view.mask)


def _check_pools(profile, rng, count_rounds, rounds=8):
    """Random pools, free sets and bars agree on both paths; returns the most
    rounds one fixpoint took that left survivors."""
    n = profile.n
    most = 0
    for r in range(rounds):
        if r == 0:
            pool, free = profile.full, 0
        else:
            pool = rng.getrandbits(n) | rng.getrandbits(n)  # about 3/4 of the agents
            free = rng.getrandbits(n) & ~pool
            if r == 1:
                free |= pool & -pool  # overlaps the pool: the generic path
        for bar in _bars(rng, profile):
            del count_rounds[:]
            fast, slow = _rounds_both(profile, pool, free, bar)
            assert fast == slow, (n, pool, free)
            assert count_rounds == ([pool] if _eligible(profile, pool, free) else [])
            if fast[0]:
                most = max(most, len(fast[2]))
    return most


@pytest.mark.parametrize("family", ["graph_concave", "additive", "linear", "scalar"])
@pytest.mark.parametrize("graph", ["er", "pa", None])
def test_generated_profiles_run_the_same_rounds_on_both_paths(family, graph, count_rounds):
    rng = random.Random(f"{family}/{graph}")
    most = 0
    for n in (16, 23, 40, 64, 128):
        profile = gen_instance(family, n, seed=n, graph=graph, graph_p=4 / n)
        most = max(most, _check_pools(profile, rng, count_rounds))
    assert most >= 2


@pytest.mark.parametrize("seed", range(8))
def test_odd_tables_and_asymmetric_graphs_run_the_same_rounds(seed, count_rounds):
    rng = random.Random(seed)
    most = 0
    for n in (16, 29, 64):
        graphs = [None, _asymmetric_graph(n, rng, 0.15), _asymmetric_graph(n, rng, 0.6),
                  gen_instance("graph_concave", n, seed=seed, graph="pa").graph]
        for graph in graphs:
            models = [_Drawn(rng.getrandbits(32), rising=rng.random() < 0.7)
                      if rng.random() < 0.7 else _odd_model(rng) for _ in range(n)]
            profile = ValuationProfile(models, graph=graph)
            most = max(most, _check_pools(profile, rng, count_rounds, rounds=5))
    assert most >= 2


def test_the_drawn_tables_hold_every_odd_value():
    profile = ValuationProfile([_Drawn(s) for s in range(40)])
    seen = {repr(x) for g in profile._degree_view().tables for x in g}
    assert {"nan", "inf", "-inf", "-0.0", "0.0", repr(BIG)} <= seen


def test_small_pools_table_agents_and_a_lifted_gate_run_generic_rounds(count_rounds):
    profile = gen_instance("graph_concave", 16, seed=3, graph="er", graph_p=0.3)
    bar = lambda size: 1.0  # noqa: E731
    small = (1 << bm.INCREMENTAL_SWEEP_ABOVE) - 1
    bm.deletion_fixpoint(profile.oracle(), small, 0, bar)
    bm.deletion_fixpoint(profile.oracle(), small << 3, 0, bar)
    table = profile.replace(5, AdditiveModel(1.0, TableWeight({profile.full: 1.0})))
    bm.deletion_fixpoint(table.oracle(), table.full, 0, bar)
    with generic_path():
        bm.deletion_fixpoint(profile.oracle(), profile.full, 0, bar)
    assert count_rounds == []
    bm.deletion_fixpoint(table.oracle(), table.full & ~(1 << 5), 0, bar)
    bm.deletion_fixpoint(profile.oracle(), profile.full, 0, bar)
    assert count_rounds == [table.full & ~(1 << 5), profile.full]


def test_equal_shares_drop_a_few_agents_per_round(count_rounds):
    """Agent i bids i + 1 on every set: the share 100/|T| drops 4, 2, then 1 low bidders."""
    n = 20
    profile = ValuationProfile([GraphConcaveModel(i + 1.0, beta=0.0) for i in range(n)])
    fast, slow = _rounds_both(profile, profile.full, 0, lambda size: 100.0 / size)
    assert fast == slow == (profile.full & ~0b1111111, 20 + 16 + 14 + 13, [20, 16, 14, 13])
    assert count_rounds == [profile.full]


def test_a_bid_exactly_at_the_bar_stays_on_both_paths(count_rounds):
    """A round drops a bid strictly under ``bar(|T|) - EPS``: agent 0 bids exactly
    that float and stays, agent 1 bids one ulp under it and goes."""
    n, price = 16, 1.0
    edge = price - EPS
    bids = [edge, math.nextafter(edge, -math.inf)] + [2.0] * (n - 2)
    profile = ValuationProfile([GraphConcaveModel(b, beta=0.0) for b in bids])
    assert [profile.value(i, profile.full) for i in range(2)] == bids[:2]
    fast, slow = _rounds_both(profile, profile.full, 0, lambda size: price)
    assert fast == slow == (profile.full & ~0b10, n + n - 1, [n, n - 1])
    assert count_rounds == [profile.full]


@pytest.mark.parametrize("graph", ["er", "pa", None])
def test_mechanisms_give_the_same_outcomes_on_both_paths(graph, count_rounds):
    """cost_share, fixed_price_mechanism and main_mechanism through both paths."""
    for model in ("graph_concave", "linear"):
        profile = gen_instance(model, 48, seed=7, graph=graph, graph_p=4 / 48)

        def both(run):
            fast = repr(vars(run(profile)))
            with generic_path():
                return fast, repr(vars(run(profile)))

        price = benchmark_sweep(profile, 1).price
        fast, slow = both(lambda p: fixed_price_mechanism(p, price))
        assert fast == slow
        rng = random.Random(graph)
        for _ in range(5):
            x = rng.getrandbits(48) | rng.getrandbits(48)
            y = rng.getrandbits(48) & ~x
            r = rng.choice([0.0, 50.0, 200.0, 800.0])
            fast, slow = both(lambda p: cost_share(p, r, x, y))
            assert fast == slow
        for seed in range(10):
            fast, slow = both(lambda p: main_mechanism(p, seed))
            assert fast == slow
    assert count_rounds
