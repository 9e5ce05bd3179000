"""Per-agent value tables and the revenue table on the exhaustive paths.

The exact ``3^n`` expectation, the exhaustive quarter bound and the
exhaustive condition checker read the ``2^n`` values of agent ``i`` from one
table instead of calling the model once per lookup.  Each path builds its
own behind its own n <= 12 cap: the walk's tabulated oracle
(``mechanisms._Tabulated``) all ``n`` columns from the bound evaluators, and
the checker one agent's through ``ValuationProfile.value``, none for an
agent it can pass from its per-degree table.
The two ``3^n`` enumerations also read ``r(pool | free)`` from one revenue
table, filled by sweeps on a tabulated oracle that computes, and counts,
each sweep step ``(T, free)`` once: ``n * 3^(n-1)`` queries in all.  These
tests pin that the tables change no result, that each ``v_i(S)`` is evaluated
once, and the exact query counts: the table's, plus the deletion fixpoints
of the partitions where B can pay and B's stored first sweep step does not
show that nobody drops.  Single runs on an oracle that is not tabulated
count every lookup, as before.

``CHECKER_DIGEST`` was recorded on the code before the tables; re-record it
with ``PYTHONPATH=src python tests/test_tables.py`` only for a change meant to
alter the checker's output.
"""

import hashlib
import itertools
import math
import random
import sys
from array import array

import pytest

from extauction import (
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    Partition3,
    ScalarModel,
    TableModel,
    ValuationProfile,
    check_conditions,
    estimate_L,
    main_mechanism,
    main_mechanism_exact_expectation,
)
from extauction import mechanisms as mech
from extauction import benchmark as bm
from extauction.benchmark import benchmark_bruteforce
from extauction.experiments import (
    GEN_MODELS,
    gen_instance,
    quarter_bound_check,
    quarter_bound_exhaustive,
    standard_suite,
    two_agent_gap_instance,
)
from extauction.sets import mask_of
from extauction.valuations import EPS, EXHAUSTIVE_MAX_N, Oracle

from conftest import flat_bids_profile, size_scalar_profile, square_table_profile, values
from test_outcome_digests import _disjoint_pairs, _profiles as digest_profiles


def _product_order(n):
    """The partitions as ``itertools.product`` labels them, agent 0 slowest."""
    for labels in itertools.product(range(3), repeat=n):
        masks = [0, 0, 0]
        for i, lab in enumerate(labels):
            masks[lab] |= 1 << i
        yield tuple(masks)


@pytest.mark.parametrize("n", range(8))
def test_all_partitions_follow_the_product_order(n):
    parts = list(Partition3.all_partitions(n))
    assert [(p.a, p.b, p.c) for p in parts] == list(_product_order(n))
    assert all(type(p) is Partition3 for p in parts)


def test_all_partitions_rejects_negative_n():
    with pytest.raises(ValueError):
        list(Partition3.all_partitions(-1))


def test_partitions_are_immutable_and_hashable():
    parts = list(Partition3.all_partitions(3))
    assert len(set(parts)) == 27
    assert Partition3(a=1, b=2, c=4) == parts[list(_product_order(3)).index((1, 2, 4))]
    with pytest.raises(AttributeError):
        parts[0].a = 7


def _fixpoint_queries(profile):
    """Queries of the deletion fixpoints the exact expectation runs.

    The skip rule is restated here: B non-empty, and ``r(C)`` zero or
    ``r(B | A) < r(C) - n^2 * EPS * (1 + r(C))`` with ``r(C) > 0``.  A
    partition that is not skipped costs no query when B's first sweep step,
    ``argmin(B, A | B)``, bids at least ``r(C)/|B| - EPS``, and its fixpoint's
    queries otherwise.  Each step and fixpoint runs on a fresh oracle, and
    none of the skipped partitions pays.
    """
    n = profile.n
    slack = n * n * EPS
    memo = profile.oracle()
    ran = 0
    for part in Partition3.all_partitions(n):
        if not part.b:
            continue  # no fixpoint runs
        r_c = mech.testers_revenue(memo, part)
        r_b = bm._greedy_sweep(profile.oracle(), part.b, part.a, 1)[0]
        fresh = profile.oracle()
        survivors, share = mech._cost_share_survivors(fresh, r_c, part.b, part.a)
        if r_c and not (r_c > 0 and r_b < r_c - slack * (1 + r_c)):
            low = profile.oracle().argmin(part.b, part.a | part.b)[0]
            if not low >= r_c / part.b.bit_count() - EPS:
                ran += fresh.queries
            continue
        assert share * survivors.bit_count() == 0, part
        assert not r_c or survivors == 0, part  # B cannot afford r(C)
    return ran


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("model", GEN_MODELS)
def test_exact_expectation_is_the_sum_of_untabulated_runs(model, n):
    """Bit for bit: same enumeration order, same float sum.  The queries are
    the revenue table's, one per member of each sweep step, plus those of the
    fixpoints of the partitions that can pay and that the stored step does
    not settle."""
    profile = gen_instance(model, n, seed=n, graph="er")
    plain = profile.oracle()
    total = 0.0
    for part in Partition3.all_partitions(n):
        total += main_mechanism(plain, partition=part).revenue
    oracle = profile.oracle()
    assert main_mechanism_exact_expectation(oracle) == total / 3 ** n
    assert oracle.queries == n * 3 ** (n - 1) + _fixpoint_queries(profile)


@pytest.mark.parametrize("model", ["table", "mixed", "graph_concave"])
def test_quarter_bound_matches_untabulated_checks(model):
    n = 7
    profile = gen_instance(model, n, seed=3, graph="pa")
    plain = profile.oracle()
    optimum = benchmark_bruteforce(plain, 3)
    statuses = [quarter_bound_check(plain, part, optimum).status
                for part in Partition3.all_partitions(n)]
    oracle = profile.oracle()
    checked, skipped, failures = quarter_bound_exhaustive(oracle)
    assert (checked, skipped, failures) == (len(statuses), 0, [])
    assert "fail" not in statuses and "skip" not in statuses
    # the scan is a view of the partition ledger, which runs the expectation's fixpoints too
    assert oracle.queries == n * 3 ** (n - 1) + _fixpoint_queries(profile)


def _table_cases():
    cases = {model: gen_instance(model, 5, seed=5, graph="er") for model in GEN_MODELS}
    cases["signed_zero"] = digest_profiles()["signed_zero"]
    cases["negative_bid"] = flat_bids_profile([-5e-10, 1.0, 2.0])
    cases["nan_bids"] = ValuationProfile([ScalarModel(0.0, DegreeWeight(1e308, 1e308))] * 3)
    return cases


@pytest.mark.parametrize("name", list(_table_cases()))
def test_revenue_table_holds_each_sweep_value(name):
    """Every entry, ``-0.0`` and negative values included, is the sweep's own
    value on a fresh oracle, and the fill computes each sweep step once.  A
    second fill on the same oracle gives the same table and computes every
    step of two or more members again, while its one-member pools read the
    step memo through ``_greedy_sweep``."""
    profile = _table_cases()[name]
    n = profile.n
    oracle = mech._Tabulated(profile.oracle())
    table = mech.revenue_table(oracle)
    assert len(table) == 3 ** n and oracle.queries == n * 3 ** (n - 1)
    tern = oracle.tern
    for pool, free in _disjoint_pairs(n):
        want = mech._greedy_sweep(profile.oracle(), pool, free, 1)[0]
        assert repr(table[tern[pool] + 2 * tern[free]]) == repr(want), (pool, free)
    assert repr(mech.revenue_table(oracle)) == repr(table)
    assert oracle.queries == n * 3 ** (n - 1) + n * 3 ** (n - 1) - n * 2 ** (n - 1)


@pytest.mark.parametrize("name", list(_table_cases()))
def test_single_runs_on_a_tabulated_oracle_match_fresh_runs(name):
    """Neither the step memo nor the earlier runs on a shared oracle, tabulated
    or not, change the outcome of a run that reuses the oracle."""
    profile = _table_cases()[name]
    memo = mech._Tabulated(profile.oracle())
    mech.revenue_table(memo)
    shared = profile.oracle()
    for part in Partition3.all_partitions(profile.n):
        want = main_mechanism(profile.oracle(), partition=part)
        for oracle in (memo, shared):
            got = main_mechanism(oracle, partition=part)
            assert got.winners == want.winners, part
            assert repr(sorted(got.payments.items())) == repr(sorted(want.payments.items())), part
            assert repr(got.revenue) == repr(want.revenue), part


@pytest.mark.parametrize("name", ["graph_concave", "signed_zero"])
def test_runs_on_a_shared_untabulated_oracle_cost_what_fresh_runs_cost(name):
    """An untabulated oracle keeps no value between runs: each run on a shared
    one adds exactly the queries the same run spends on a fresh oracle."""
    profile = _table_cases()[name]
    shared = profile.oracle()
    for part in Partition3.all_partitions(profile.n):
        fresh = profile.oracle()
        main_mechanism(fresh, partition=part)
        before = shared.queries
        main_mechanism(shared, partition=part)
        assert shared.queries - before == fresh.queries, part


def test_the_partition_ledger_frees_its_revenue_table(monkeypatch):
    """The ledger outlives its walk on the oracle; the ``3^n`` table and the
    walk's tabulated oracle, with its step memo, do not, and a second fill is
    a new table of the same values."""
    import gc
    import weakref

    class Kept(list):  # a list that takes a weak reference, as the walk's own cannot
        pass

    def kept_fill(o):
        o._lows = Kept(o._lows)
        walks.append(o)
        tables.append(Kept(fill(o)))
        return tables[-1]

    profile = _table_cases()["graph_concave"]
    oracle = profile.oracle()
    fill = mech.revenue_table
    tables, walks = [], []
    monkeypatch.setattr(mech, "revenue_table", kept_fill)
    ledger = mech._partition_ledger(oracle)
    assert len(tables) == len(walks) == 1 and oracle.ledger is ledger
    walk = walks.pop()
    assert type(walk) is mech._Tabulated and walk.profile is profile
    assert type(walk._lows) is Kept and len(walk._lows) == len(tables[0]) == 3 ** profile.n
    refs = [weakref.ref(tables.pop()), weakref.ref(walk._lows)]
    del walk
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert not [o for o in gc.get_objects() if type(o) is mech._Tabulated and o.profile is profile]
    assert oracle.ledger is ledger and mech._partition_ledger(oracle) is ledger
    tab = mech._Tabulated(profile.oracle())
    again = fill(tab)
    assert again is not fill(tab) and repr(again) == repr(fill(tab))


# --- the stored first step settles B's first deletion round ---------------------

@pytest.mark.parametrize("wrap", [False, True], ids=["own", "wrapped"])
@pytest.mark.parametrize("name", list(_table_cases()))
def test_revenue_table_stores_every_disjoint_step(name, wrap):
    """The exact expectation reads B's step ``(B, A)`` from the step memo with
    no check that it is set: the fill must have stored every one."""
    profile = _table_cases()[name]
    (oracle, _), _ = _oracles(profile, "wrapped" if wrap else "fresh")
    mech.revenue_table(oracle)
    assert (oracle._columns is None) == wrap
    tern = oracle.tern
    for pool, free in _disjoint_pairs(profile.n):
        if pool:
            key = tern[pool] + 2 * tern[free]
            assert oracle._args[key] != 255, (pool, free)
            want = profile.oracle().argmin(pool, pool | free)
            assert repr((oracle._lows[key], oracle._args[key])) == repr(want), (pool, free)


def test_a_nan_first_buyer_does_not_settle_the_first_round(monkeypatch):
    """B = {0, 1}, A empty, C = {2}: agent 0, B's lowest id, bids NaN on
    ``A | B``, so B's stored low is NaN.  Agent 1 bids under ``r(C)/2``, and
    once it is dropped agent 0 bids 0: nobody pays, where reading a NaN low
    as "nobody drops" would add ``r(C)``.  The NaN also makes ``r({0} | {1})``
    NaN, so the expectation is NaN either way; the partition must be run,
    and the queries are the table's plus the runs' fixpoints."""
    profile = _tabled({0b011: math.nan}, {0b011: 1.0, 0b010: 1.0},
                      {0b100: 10.0, 0b111: 10.0})
    n = profile.n
    part = Partition3(0, 0b011, 0b100)
    assert math.isnan(profile.oracle().argmin(part.b, part.b)[0])
    assert mech.testers_revenue(profile.oracle(), part) == 10.0
    assert main_mechanism(profile, partition=part).revenue == 0.0
    total = 0.0
    for p in Partition3.all_partitions(n):
        total += main_mechanism(profile, partition=p).revenue
    ran = set()
    run = mech._run_partitioned
    monkeypatch.setattr(mech, "_run_partitioned",
                        lambda o, p, r_c: ran.add(p) or run(o, p, r_c))
    oracle = profile.oracle()
    assert repr(main_mechanism_exact_expectation(oracle)) == repr(total / 3 ** n)
    assert part in ran
    assert oracle.queries == n * 3 ** (n - 1) + _fixpoint_queries(profile)


def test_an_all_nan_profile_expects_the_runs_sum():
    """Every bid NaN: each stored low and each ``r(C)`` is NaN, so every
    partition with a buyer runs, and the NaN sum comes out as the runs' does."""
    profile = _table_cases()["nan_bids"]
    total = 0.0
    for p in Partition3.all_partitions(profile.n):
        total += main_mechanism(profile, partition=p).revenue
    got = main_mechanism_exact_expectation(profile)
    assert math.isnan(got) and repr(got) == repr(total / 3 ** profile.n)


def test_a_buyer_just_under_the_settle_margin_runs_its_fixpoint():
    """B = {0}, C = {1}: agent 0 bids ``share - 1.5 EPS`` on ``A | B``, under the
    settle margin ``share - EPS`` but within ``2 EPS`` of the share.  The
    partition is not skipped, its first round drops the buyer, and it pays 0,
    so the ledger must run the fixpoint rather than settle it."""
    share = 1.0
    profile = flat_bids_profile([share - 1.5 * EPS, share])
    n = profile.n
    part = Partition3(0, 0b01, 0b10)
    assert mech.testers_revenue(profile.oracle(), part) == share
    assert main_mechanism(profile, partition=part).revenue == 0.0
    total = 0.0
    for p in Partition3.all_partitions(n):
        total += main_mechanism(profile, partition=p).revenue
    oracle = profile.oracle()
    assert repr(main_mechanism_exact_expectation(oracle)) == repr(total / 3 ** n)
    assert oracle.queries == n * 3 ** (n - 1) + _fixpoint_queries(profile)


@pytest.mark.parametrize("under", [False, True], ids=["at_the_floor", "one_ulp_under"])
def test_the_quarter_floor_holds_at_its_edge(under):
    """``r(C)`` planted at ``r_F(C)/4 - EPS`` passes and one ulp under it fails,
    in the ledger and in the single check.  All three agents win ``F^(3)`` at
    price 4, so the partition ``A = {0}, B = {1}, C = {2}`` has ``r_F(C) = 4``,
    and agent 2 bids the planted value on ``{0, 2}`` and on ``{1, 2}``."""
    floor = mech._quarter_floor(4.0)
    assert floor == 1.0 - EPS
    r_c = math.nextafter(floor, 0.0) if under else floor
    profile = _tabled({0b111: 4.0}, {0b111: 4.0}, {0b111: 4.0, 0b101: r_c, 0b110: r_c})
    part = Partition3(0b001, 0b010, 0b100)
    optimum = benchmark_bruteforce(profile, 3)
    assert (optimum.price, optimum.winners) == (4.0, profile.full)
    check = quarter_bound_check(profile, part)
    assert (check.status, check.r_c, check.r_f_c) == ("fail" if under else "pass", r_c, 4.0)
    checked, skipped, failures = quarter_bound_exhaustive(profile)
    assert (checked, skipped) == (3 ** profile.n, 0)
    assert (part in failures) == under
    assert failures == [p for p in Partition3.all_partitions(profile.n)
                        if quarter_bound_check(profile, p, optimum).status == "fail"]


# --- one partition ledger behind both 3^n enumerations ---------------------------

def test_quarter_bound_after_the_expectation_walks_nothing(monkeypatch):
    """The expectation leaves the ledger on the oracle; the quarter bound then
    reads it: no label halves, no run, no sweep and no query."""
    profile = gen_instance("mixed", 6, seed=2, graph="er")
    want = quarter_bound_exhaustive(profile)
    oracle = profile.oracle()
    main_mechanism_exact_expectation(oracle)
    spent = oracle.queries
    calls = []
    for name in ("_label_halves", "_run_partitioned", "_greedy_sweep"):
        fn = getattr(mech, name)
        monkeypatch.setattr(mech, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    got = quarter_bound_exhaustive(oracle)
    assert got == want and calls == [] and oracle.queries == spent
    got[2].append(None)  # the caller's list is a copy of the stored failures
    assert quarter_bound_exhaustive(oracle) == want


def _ledger_cases():
    cases = {model: gen_instance(model, 6, seed=6, graph="er") for model in GEN_MODELS}
    table_cases = _table_cases()
    for name in ("nan_bids", "negative_bid", "signed_zero"):
        cases[name] = table_cases[name]
    return cases


@pytest.mark.parametrize("name", list(_ledger_cases()))
def test_both_call_orders_give_the_same_ledger(name):
    """Quarter bound first or expectation first: ``E[rev]`` is ``repr``-identical,
    the triple is the same, and both oracles end on the same query count."""
    profile = _ledger_cases()[name]
    first = profile.oracle()
    expected = main_mechanism_exact_expectation(first)
    quarter = quarter_bound_exhaustive(first)
    second = profile.oracle()
    assert quarter_bound_exhaustive(second) == quarter
    assert repr(main_mechanism_exact_expectation(second)) == repr(expected)
    assert second.queries == first.queries


def _optimum_cases():
    """The 200 ``standard_suite()`` instances, six families by three graph kinds at
    n = 1, 2, 3, 8 and 10, the f2-gap instance and ``_table_cases()``: 300 profiles."""
    cases = list(standard_suite())
    cases += [(f"{model}-{graph}-n{n}", gen_instance(model, n, seed=n, graph=graph))
              for model in GEN_MODELS for graph in (None, "er", "pa") for n in (1, 2, 3, 8, 10)]
    cases.append(("gap", two_agent_gap_instance(10.0)))
    cases += list(_table_cases().items())
    return cases


def test_the_ledger_keeps_the_f3_optimum_a_fresh_scan_finds():
    """The optimum the ledger's walk scans on its tabulated oracle is ``repr``-equal
    to a fresh oracle's ``benchmark_bruteforce(profile, 3)``: value, price,
    winners and ``k``, a zero optimum at n = 1 and 2 included."""
    cases = _optimum_cases()
    assert len(cases) == 300
    zero = []
    for name, profile in cases:
        optimum = mech._partition_ledger(profile.oracle()).optimum
        assert repr(optimum) == repr(benchmark_bruteforce(profile.oracle(), 3)), name
        if optimum.value == 0:
            zero.append(name)
    # fewer than three agents, and three bids whose least times three is under -EPS
    assert zero == [name for name, profile in cases if profile.n < 3] + ["negative_bid"]


# --- the DP fill: each pair extends its tail's record ---------------------------

def _sweep_fill(oracle):
    """The fill before the DP, kept as the reference: one sweep per pair on a
    :class:`~extauction.mechanisms._Tabulated` oracle."""
    tern = oracle.tern
    full = oracle.full
    table = array("d", bytes(8 * 3 ** oracle.n))
    for pool in range(1, full + 1):
        code = tern[pool]
        rest = full ^ pool
        free = rest
        while True:
            table[code + 2 * tern[free]] = bm._greedy_sweep(oracle, pool, free, 1)[0]
            if not free:
                break
            free = (free - 1) & rest
    return table


def _bits(floats):
    """The bytes of ``floats`` as doubles, so ``-0.0`` and NaN payloads compare too."""
    return array("d", floats).tobytes()


def _oracles(profile, kind):
    """Two like tabulated oracles of one kind, and the evaluator calls of each
    (wrapped kind only)."""
    pair, calls = [], []
    for _ in range(2):
        oracle = profile.oracle()
        counter = [0]
        if kind == "wrapped":
            def counted(fn, counter=counter):
                def call(s):
                    counter[0] += 1
                    return fn(s)
                return call
            oracle._fns = tuple(map(counted, oracle._fns))
        oracle = mech._Tabulated(oracle)
        if kind == "scanned":  # the subset scan fills part of the step memo first
            benchmark_bruteforce(oracle, 3)
        pair.append(oracle)
        calls.append(counter)
    return pair, calls


@pytest.mark.parametrize("graph", [None, "er", "pa"])
@pytest.mark.parametrize("model", GEN_MODELS)
def test_dp_fill_matches_the_sweep_fill(model, graph):
    """Byte for byte: the table and the step memo are the per-pair sweeps', on a
    fresh oracle, one whose subset scan ran first, and one with wrapped
    evaluators (one call per counted query).  So is the query count, but
    after a scan: the sweeps read the scan's stored steps, while the fill
    computes each of them again, adding the scan's own
    ``n * 2^(n-1) - n^2`` queries (every set of three or more members)."""
    for n in range(3, 9):
        profile = gen_instance(model, n, seed=n, graph=graph)
        for kind in ("fresh", "scanned", "wrapped"):
            (ref, dp), (ref_calls, dp_calls) = _oracles(profile, kind)
            scanned = dp.queries
            assert scanned == (n * 2 ** (n - 1) - n * n if kind == "scanned" else 0)
            want = _sweep_fill(ref)
            got = mech.revenue_table(dp)
            case = (n, kind)
            assert _bits(got) == want.tobytes(), case
            assert _bits(dp._lows) == _bits(ref._lows) and dp._args == ref._args, case
            assert dp.queries == ref.queries + scanned, case
            assert dp_calls[0] == ref_calls[0] == (dp.queries if kind == "wrapped" else 0), case
            assert (dp._columns is None) == (kind == "wrapped"), case


def _tabled(*tables):
    """Agent ``i`` bids ``tables[i][s]`` on each listed set ``s`` holding it, else 0."""
    return ValuationProfile([TableModel(t) for t in tables])


def _fold_cases():
    """(profile, swept) per fold rule: whether the fill must sweep ``(full, 0)``.

    Each pool's first step deletes agent 0, and the tail is the rest, but
    in ``second_record_of_a_copied_chain``, where it deletes agent 3 and
    the tail's own first step bids below 0, so that the tail copies its
    record chain from ``{1, 2}``.  In ``near_tie_chain`` the pool's sweep records ``val``, ``+0.5``, ``+1.4``
    and ``+1.6`` (units of EPS): the sweep keeps ``+1.4``, while folding
    ``val`` into the tail's value from the right gives ``+1.6``.  The tail's
    first record lies in ``(val, val + EPS]`` and its second is not known,
    so only a sweep can tell.  In ``first_record_in_the_tie_band`` the sweep
    steps through ``val``, ``+0.5`` and ``+2``: the tail's first record lies
    in ``(val, val + EPS]`` too, but its second, ``+2``, is known and above
    ``val + EPS``, so the fold takes it and the pair needs no sweep.  In
    ``tail_record_at_minus_eps`` the tail's own step value is exactly
    ``-EPS``, a record, so the fill reads it from the step memo and not as
    an inherited one, and the fold takes the tail's second, 5.0.  In
    ``zero_of_each_sign`` the pair ``({0, 1}, {2})`` records ``2 * 0.0`` and
    then ``({0, 1}, {})`` records ``2 * -0.0``, each over a tail at 0.0:
    the table keeps both signs.
    """
    x = 12.0
    return {
        "negative_step_copies_the_tail": (flat_bids_profile([-1.0, 2.0, 3.0]), False),
        "tail_at_most_val": (flat_bids_profile([3.0, 4.0, 5.0]), False),
        "tail_without_record": (_tabled({0b11: -2e-10}, {0b11: 5.0, 0b10: -5.0}), False),
        "first_record_above_val": (flat_bids_profile([1.0, 5.0, 7.0]), False),
        "second_record_above_val": (flat_bids_profile([2.0, 2.5, 10.0]), False),
        "second_record_of_a_copied_chain": (_tabled(
            {0b1111: 10.0, 0b0111: -1.0}, {0b1111: 10.0, 0b0111: 10.0, 0b0110: 1.5},
            {0b1111: 10.0, 0b0111: 10.0, 0b0110: 10.0, 0b0100: 10.0}, {0b1111: 1.0}), False),
        "tail_record_at_minus_eps": (_tabled(
            {0b111: 1.0}, {0b111: 2.0, 0b110: -EPS / 2}, {0b111: 2.0, 0b110: 10.0, 0b100: 5.0}),
            False),
        "zero_of_each_sign": (_tabled(
            {0b111: 0.0, 0b011: -0.0}, {0b111: 1.0, 0b011: 1.0}, {0b111: 1.0}), False),
        "tied_bids": (size_scalar_profile(4), False),
        "first_record_in_the_tie_band": (flat_bids_profile(
            [x / 3, (x + 0.5 * EPS) / 2, x + 2 * EPS]), False),
        "near_tie_chain": (flat_bids_profile(
            [x / 4, (x + 0.5 * EPS) / 3, (x + 1.4 * EPS) / 2, x + 1.6 * EPS]), True),
    }


@pytest.mark.parametrize("name", [*_fold_cases(), *_table_cases()])
def test_dp_fill_sweeps_only_one_member_pools_and_fallbacks(name, monkeypatch):
    """Every one-member pair is swept once, as the DP's base case; any other
    sweep is a fallback, and a planted pair is swept exactly when its fold
    rule cannot extend the tail's record.  Every entry is the sweep's own,
    and the step memo and the query count are the per-pair sweeps'."""
    cases = {**{key: (p, None) for key, p in _table_cases().items()}, **_fold_cases()}
    profile, swept = cases[name]
    n = profile.n
    calls = []

    def counted(oracle, pool, free, k):
        calls.append((pool, free))
        return bm._greedy_sweep(oracle, pool, free, k)

    monkeypatch.setattr(mech, "_greedy_sweep", counted)
    oracle = mech._Tabulated(profile.oracle())
    table = mech.revenue_table(oracle)
    base = sorted(c for c in calls if c[0].bit_count() == 1)
    fallbacks = [c for c in calls if c[0].bit_count() > 1]
    assert base == sorted((1 << i, free) for i in range(n)
                          for free in range(1 << n) if not free >> i & 1)
    assert len(calls) == n * 2 ** (n - 1) + len(fallbacks)
    assert len(set(fallbacks)) == len(fallbacks)
    if swept is not None:
        assert ((profile.full, 0) in fallbacks) == swept
    tern = oracle.tern
    for pool, free in _disjoint_pairs(n):
        want = bm._greedy_sweep(profile.oracle(), pool, free, 1)[0]
        assert repr(table[tern[pool] + 2 * tern[free]]) == repr(want), (pool, free)
    ref = mech._Tabulated(profile.oracle())
    _sweep_fill(ref)
    assert _bits(oracle._lows) == _bits(ref._lows) and oracle._args == ref._args
    assert oracle.queries == ref.queries == n * 3 ** (n - 1)


def test_near_tie_chain_keeps_the_left_fold():
    """The planted chain's sweep keeps ``+1.4``, not the tail's ``+1.6``."""
    profile = _fold_cases()["near_tie_chain"][0]
    full, tail = profile.full, profile.full & ~1
    oracle = mech._Tabulated(profile.oracle())
    table = mech.revenue_table(oracle)
    got, rest = table[oracle.tern[full]], table[oracle.tern[tail]]
    assert got == bm._greedy_sweep(profile.oracle(), full, 0, 1)[0]
    assert rest == bm._greedy_sweep(profile.oracle(), tail, 0, 1)[0]
    assert 12.0 + EPS < got < rest - 0.1 * EPS


def _fill_records(oracle):
    """``revenue_table(oracle)`` with the fill's second-record array, kept by
    handing the fill an ``array`` subclass that keeps what it repeats."""
    kept = []

    class Kept(array):
        def __mul__(self, count):
            kept.append(array.__mul__(self, count))
            return kept[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mech, "array", Kept)
        table = mech.revenue_table(oracle)
    (second,) = kept
    return table, second


def _near_tie_chains(count):
    """Seeded flat-bid profiles whose sweep values ``|T| * low`` lie a few EPS apart."""
    rng = random.Random(36)
    for j in range(count):
        n = 3 + j % 4
        x = rng.choice([1.0, 12.0, rng.uniform(0.5, 50.0), rng.uniform(1e-9, 1e-7)])
        step = rng.choice([0.1, 0.25, 0.5])
        bids = [(x + rng.randint(-6, 6) * step * EPS) / (n - k) for k in range(n)]
        rng.shuffle(bids)
        yield flat_bids_profile(bids)


@pytest.mark.parametrize("name", [*_fold_cases(), *_table_cases(), "near_tie_chains"])
def test_every_known_second_record_is_taken_by_any_fold(name):
    """The invariant behind the fill's second-record rule.  Wherever the fill
    knows a pair's second record ``s``, ``s`` is one of the pair's sweep step
    values, and each step value before it is below ``s - EPS``; and every
    entry is the sweep's own.  The fill keeps no first record: a pair's is
    its own step value ``|pool| * low`` from the step memo, or, when that is
    below ``-EPS``, its tail's, none for a one-member pool.  That rule gives
    the sweep's first step value not below ``-EPS``, and the copied chain's
    fold reads a record its tail inherited."""
    cases = {**{key: (p, None) for key, p in _table_cases().items()}, **_fold_cases()}
    profiles = list(_near_tie_chains(300)) if name == "near_tie_chains" else [cases[name][0]]
    known = banded = inherited = 0
    for profile in profiles:
        oracle = mech._Tabulated(profile.oracle())
        tern = oracle.tern
        table, second = _fill_records(oracle)
        first = {}
        for pool, free in sorted(_disjoint_pairs(profile.n), key=lambda pair: pair[0].bit_count()):
            if not pool:
                continue
            key = tern[pool] + 2 * tern[free]
            steps, t = [], pool
            while t:
                low, arg = oracle.argmin(t, free | t)  # memoised by the fill
                steps.append(t.bit_count() * low)
                t &= ~(1 << arg)
            val, tail = steps[0], key - tern[1 << oracle.argmin(pool, pool | free)[1]]
            assert repr(val) == repr(pool.bit_count() * oracle._lows[key]), (pool, free)
            tf = first.get(tail, -math.inf)
            first[key] = tf if val < -EPS else val
            if pool.bit_count() > 1 and not table[tail] <= val:  # the fill reads tf
                own = (pool.bit_count() - 1) * oracle._lows[tail]
                inherited += own < -EPS and tf != -math.inf
            banded += val + EPS >= tf > val and second[tail] > val + EPS
            assert repr(table[key]) == repr(bm._greedy_sweep(oracle, pool, free, 1)[0])
            records = [v for v in steps if not v < -EPS]
            assert repr(first[key]) == repr(records[0] if records else -math.inf), (pool, free)
            s = second[key]
            if not math.isnan(s):
                known += 1
                at = steps.index(s)
                assert at > 0 and all(v < s - EPS for v in steps[:at]), (pool, free)
    planted = ("first_record_above_val", "second_record_above_val",
               "second_record_of_a_copied_chain", "first_record_in_the_tie_band")
    assert known > 0 or name not in (*planted, "near_tie_chains")
    assert banded > 0 or name not in ("first_record_in_the_tie_band", "near_tie_chains")
    assert inherited > 0 or name != "second_record_of_a_copied_chain"


def test_profile_keeps_no_tables():
    """The tables live on the oracle, so a validated profile holds only its models."""
    profile = gen_instance("table", 7, seed=2, graph="er")
    state = dict(vars(profile))
    oracle = profile.oracle()
    main_mechanism_exact_expectation(oracle)
    assert check_conditions(profile) == [] and vars(profile) == state
    assert oracle.value(0, profile.full) == profile.value(0, profile.full)


def test_the_oracle_keeps_only_the_run_counter_and_the_ledger():
    """The columns and the step memo live on the walk's tabulated oracle alone."""
    assert Oracle.__slots__ == ("profile", "n", "full", "queries", "_fns", "ledger")
    assert not hasattr(Oracle, "tabulate")
    assert mech._Tabulated.__slots__ == ("_columns", "tern", "_lows", "_args")
    profile = _table_cases()["mixed"]
    tab = mech._Tabulated(profile.oracle())
    assert tab.queries == 0 and tab.ledger is None
    assert repr(tab._columns) == repr(tuple(values(profile, i) for i in range(profile.n)))


def test_revenue_table_is_refused_past_the_exhaustive_range():
    """Past n = 12 no oracle is tabulated, so there is no table to fill, and
    the caller's oracle keeps evaluating the models."""
    profile = ValuationProfile([GraphConcaveModel(1.0) for _ in range(EXHAUSTIVE_MAX_N + 1)])
    oracle = profile.oracle()
    with pytest.raises(ValueError, match=r"^exact 3\^n path rejected for n > 12$"):
        mech._Tabulated(oracle)
    assert oracle.queries == 0 and oracle.ledger is None
    assert oracle.value(0, profile.full) == profile.value(0, profile.full)
    assert oracle.queries == 1


# --- evaluation counts: a guard that the tables stay in use ----------------------

class _Counted:
    """Wraps a model so that its bound closures count their evaluations."""

    def __init__(self, model, counter):
        self.model = model
        self.counter = counter

    def bind(self, i, neighbor_mask):
        fn = self.model.bind(i, neighbor_mask)

        def counted(s):
            self.counter[0] += 1
            return fn(s)

        return counted


@pytest.fixture
def value_calls(monkeypatch):
    """Counts calls of ``ValuationProfile.value``."""
    original = ValuationProfile.value
    count = [0]

    def value(profile, i, s):
        count[0] += 1
        return original(profile, i, s)

    monkeypatch.setattr(ValuationProfile, "value", value)
    return count


def _has_degree_table(model) -> bool:
    """Whether the model binds to a per-degree table: every weight it reads is a degree weight."""
    if isinstance(model, GraphConcaveModel):
        return True
    if isinstance(model, LinearModel):
        return isinstance(model.weight, DegreeWeight) and isinstance(model.offset, DegreeWeight)
    return isinstance(model, (AdditiveModel, ScalarModel)) and isinstance(model.weight, DegreeWeight)


def test_checker_evaluates_each_value_once(value_calls):
    """Each agent without a degree table is scanned from one column; a valid
    degree agent is checked from its table and evaluates nothing."""
    n = 9
    profile = gen_instance("mixed", n, seed=4, graph="er")
    fresh = ValuationProfile(profile.models, graph=profile.graph)
    scanned = sum(not _has_degree_table(m) for m in profile.models)
    assert 0 < scanned < n
    value_calls[0] = 0
    assert check_conditions(fresh) == []
    assert value_calls[0] == scanned * 2 ** n
    assert estimate_L(fresh) == 1.0
    assert value_calls[0] == 2 * scanned * 2 ** n


@pytest.mark.parametrize("family", ["graph_concave", "linear"])
def test_an_all_degree_profile_is_checked_with_no_value_call(family, value_calls):
    n = EXHAUSTIVE_MAX_N
    profile = gen_instance(family, n, seed=1, graph="er")
    assert all(map(_has_degree_table, profile.models))
    value_calls[0] = 0
    assert check_conditions(profile) == []
    assert estimate_L(profile) == 1.0
    assert value_calls[0] == 0


def test_exact_expectation_evaluates_each_value_once():
    n = 9
    base = gen_instance("mixed", n, seed=4, graph="pa")
    counter = [0]
    profile = ValuationProfile([_Counted(m, counter) for m in base.models], graph=base.graph)
    oracle = profile.oracle()
    expected = main_mechanism_exact_expectation(oracle)
    assert counter[0] == n * 2 ** n
    assert expected == main_mechanism_exact_expectation(base)
    assert oracle.queries > 10 * counter[0]
    quarter_bound_exhaustive(oracle)  # the ledger's walk built the columns once
    assert counter[0] == n * 2 ** n


def test_checker_that_stops_early_builds_only_the_columns_it_scans(value_calls):
    n = 9
    models = [ScalarModel(t=-1.0, weight=DegreeWeight())] + [GraphConcaveModel(1.0)] * (n - 1)
    profile = ValuationProfile(models)
    value_calls[0] = 0
    assert len(check_conditions(profile, max_violations=1)) == 1
    assert value_calls[0] == 2 ** n


# --- the checker's output, recorded before the tables --------------------------

class _Leaky:
    """Worth 1 on every set, including sets without the agent."""

    def bind(self, i, neighbor_mask):
        return lambda s: 1.0


def _invalid_profiles():
    scalar = ScalarModel(t=2.0, weight=DegreeWeight())
    low = mask_of([0, 1, 2])
    return {
        "square5": square_table_profile(5),
        "negative": ValuationProfile([scalar] * 3 + [ScalarModel(t=-1.0, weight=DegreeWeight())]
                                     + [scalar] * 3),
        "non-monotone": ValuationProfile(
            [TableModel({s: 1.0 if s == 0b0111 else 2.0 for s in range(16) if s & 1})]
            + [scalar] * 3),
        "leaky": ValuationProfile([scalar, _Leaky(), scalar, scalar]),
        "single-gap": ValuationProfile(
            [TableModel({s: 1.0 if s & low == s != low else 3.0 for s in range(64) if s & 1})]
            + [scalar] * 5),
    }


def checker_digest() -> str:
    """sha256 over the violation lists at several caps, and estimate_L, per profile."""
    h = hashlib.sha256()
    for name, profile in _invalid_profiles().items():
        for cap in (1, 7, 100, 10_000):
            found = check_conditions(profile, max_violations=cap)
            h.update(f"{name}/{cap}/{len(found)}\n".encode())
            for v in found:
                h.update(f"{v!r}\n".encode())
        L = estimate_L(profile)
        h.update(f"{name}/L/{L!r}\n".encode())
    return h.hexdigest()


CHECKER_DIGEST = "42355c19efbc8658f7a7413c9d35e6646117e364bb863b811e6beb766e5fab26"


def test_checker_output_matches_the_recorded_digest():
    assert checker_digest() == CHECKER_DIGEST


def test_invalid_profiles_hit_the_caps():
    """The recorded digest covers capped lists and early exits."""
    profiles = _invalid_profiles()
    assert len(check_conditions(profiles["square5"])) == 100
    assert len(check_conditions(profiles["negative"])) == 100
    assert math.isinf(estimate_L(profiles["negative"]))
    kinds = {name: {v.kind for v in check_conditions(p, max_violations=10_000)}
             for name, p in profiles.items()}
    assert kinds["negative"] == {"negative", "monotonicity", "subadditivity"}
    assert kinds["leaky"] == {"nonzero_outside"}
    assert kinds["non-monotone"] == {"monotonicity"}


if __name__ == "__main__":
    sys.stdout.write(checker_digest() + "\n")
