import math
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from extauction import (
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    ScalarModel,
    TableModel,
    TableWeight,
    ValuationProfile,
    check_conditions,
    estimate_L,
)
from extauction.benchmark import benchmark_sweep
from extauction.experiments import GEN_MODELS, gen_instance
from extauction.io import load_instance, save_instance
from extauction.sets import mask_of, members
from extauction.truthfulness import misreport_plan
from extauction.valuations import EPS, EXHAUSTIVE_MAX_N, Violation

from conftest import flat_bids_profile, size_scalar_profile, square_table_profile, submasks, values


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


def test_sampled_check_flags_value_outside_the_winner_set():
    """Negative control for the sampled check: the losing-value demo's unguarded
    profile, ``v_i(S) = |S|`` for every S, values sets that do not hold the agent."""
    n = 3
    size_value = {s: float(s.bit_count()) for s in range(1 << n)}
    unguarded = SimpleNamespace(bind=lambda i, neighbor_mask: lambda s: size_value[s])
    violations = check_conditions(
        ValuationProfile([unguarded] * n), mode="sampled", samples=50, seed=0
    )
    assert any(v.kind == "nonzero_outside" for v in violations)


def test_a_sampled_excess_of_eps_passes_and_one_ulp_more_fails():
    """The sampled check's subadditivity edge, ``u > v(S) + v(R) + EPS``: agent 0
    values ``{0, 1}`` and ``{0, 2}`` at 1.0 each and all three at ``2.0 + EPS``,
    so the witness ``({0, 1}, {0, 2})`` sits exactly on the tolerance, then one
    ulp past it.  The exhaustive scan gives the same verdict."""
    for excess, failing in ((2.0 + EPS, False), (math.nextafter(2.0 + EPS, math.inf), True)):
        profile = ValuationProfile(
            [TableModel({0b001: 0.5, 0b011: 1.0, 0b101: 1.0, 0b111: excess}),
             TableModel({}), TableModel({})])
        sampled = check_conditions(profile, mode="sampled", samples=2_000, seed=0)
        assert {(v.kind, v.agent) for v in sampled} == ({("subadditivity", 0)} if failing else set())
        assert {tuple(sorted(v.sets)) for v in sampled} <= {(0b011, 0b101)}
        exhaustive = check_conditions(profile, mode="exhaustive")
        assert [(v.kind, v.agent, v.lhs) for v in exhaustive] == (
            [("subadditivity", 0, excess)] * 2 if failing else [])


@pytest.mark.parametrize("outside", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_non_finite_value_outside_the_winner_set_is_flagged(mode, outside):
    """A NaN on a set without the agent is flagged as an inf there is, although
    ``abs(NaN) > EPS`` is False."""
    leaky = SimpleNamespace(bind=lambda i, neighbor_mask: lambda s: 1.0 if s >> i & 1 else outside)
    scalar = ScalarModel(2.0, DegreeWeight())
    violations = check_conditions(ValuationProfile([leaky, scalar, scalar]),
                                  mode=mode, samples=500)
    assert violations
    assert {(v.kind, v.agent) for v in violations} == {("nonzero_outside", 0)}


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


def _snapshot(profile):
    """Everything a profile answers, by ``repr`` so that ``-0.0`` and NaN count."""
    columns = [values(profile, j) for j in range(profile.n)]
    return repr((profile.models, profile.graph, profile.neighbor_masks, profile.declared_L,
                 columns))


@pytest.mark.parametrize("family", GEN_MODELS)
def test_replace_matches_a_fresh_build(family):
    """``replace`` rebinds one agent; the result must be the profile a full build gives."""
    for n in range(4, 8):
        for graph in (None, "er", "pa"):
            generated = gen_instance(family, n, seed=n, graph=graph)
            declared_L = None if graph is None else 1.0 + n / 10
            profile = ValuationProfile(generated.models, graph=generated.graph,
                                       declared_L=declared_L)
            before = _snapshot(profile)
            for dev in misreport_plan(profile, 60, seed=n):
                models = list(profile.models)
                models[dev.agent] = dev.model
                fresh = ValuationProfile(models, graph=profile.graph,
                                         declared_L=profile.declared_L)
                assert _snapshot(profile.replace(dev.agent, dev.model)) == _snapshot(fresh), (
                    family, n, graph, dev.agent, dev.label)
            assert _snapshot(profile) == before


def test_replace_takes_list_indices():
    profile = size_scalar_profile(3)
    model = ScalarModel(t=5.0, weight=DegreeWeight(1.0, 1.0))
    assert _snapshot(profile.replace(-1, model)) == _snapshot(profile.replace(2, model))
    with pytest.raises(IndexError):
        profile.replace(3, model)


def test_replace_keeps_the_table_cap():
    profile = size_scalar_profile(11)
    before = _snapshot(profile)
    with pytest.raises(ValueError, match="table models are capped at n <= 10"):
        profile.replace(3, TableModel({1 << 3: 1.0}))
    assert _snapshot(profile) == before


def test_replace_checks_table_keys():
    """A misreported table is held to the keys a file can name, as at build."""
    profile = gen_instance("table", 4, seed=1)
    before = _snapshot(profile)
    bad = TableModel({**profile.models[2].values, 0b0001: 1.0})
    with pytest.raises(ValueError,
                       match=r"^agent 2: table key 1 is not a mask below 2\^4 that holds agent 2$"):
        profile.replace(2, bad)
    assert _snapshot(profile) == before


def test_table_model_owns_its_mapping(tmp_path):
    """Editing the dict a ``TableModel`` was built from changes neither the model,
    nor a profile built from it, nor what ``save_instance`` writes."""
    values = {0b01: 2.0, 0b11: 3.0}
    model = TableModel(values)
    profile = ValuationProfile([model, ScalarModel(1.0, DegreeWeight())])
    save_instance(profile, tmp_path / "before.json")
    values[0b01] = 5.0
    values[0b11] = 7.0
    save_instance(profile, tmp_path / "after.json")
    assert model.values == {0b01: 2.0, 0b11: 3.0}
    assert (profile.value(0, 0b01), profile.value(0, 0b11)) == (2.0, 3.0)
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
    assert load_instance(tmp_path / "after.json").models[0].values == {0b01: 2.0, 0b11: 3.0}


def test_binding_a_table_copies_nothing():
    """200 binds of one 512-key table allocate less than one copy of its dict."""
    model = TableModel({s: 1.0 + s.bit_count() for s in range(1 << 10) if s & 1})
    assert len(model.values) == 512
    tracemalloc.start()
    try:
        copy = dict(model.values)
        one_copy = tracemalloc.get_traced_memory()[0]
        del copy
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            fn = model.bind(0, (1 << 10) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fn(0b11) == 3.0
    assert peak - start < one_copy


def test_empty_profile_rejected():
    with pytest.raises(ValueError):
        ValuationProfile([])


def test_table_cap():
    with pytest.raises(ValueError):
        ValuationProfile([TableModel({1 << i: 1.0}) for i in range(11)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ValuationProfile(size_scalar_profile(3).models, graph=[[1], [0]]),
         r"^adjacency list length does not match agent count$"),
        (lambda: check_conditions(size_scalar_profile(3), mode="bogus"), r"^unknown mode 'bogus'$"),
        # the complete graph on 14 agents, agent 0 also naming agent 40
        (lambda: ValuationProfile([GraphConcaveModel(1.0)] * 14,
                                  graph=[[j for j in range(14) if j != i] + [40] * (i == 0)
                                         for i in range(14)]),
         r"^bad neighbor 40 of agent 0$"),
        *[(lambda bad=bad: ValuationProfile(size_scalar_profile(3).models, declared_L=bad),
           rf"^declared_L must be a finite number >= 1, got {bad!r}$")
          for bad in (0.5, math.inf, math.nan)],
        # a number field holds an int or a float: a bool would save as JSON true
        (lambda: ValuationProfile([GraphConcaveModel(True)]), r"^agent 0: t must be a number, got True$"),
        (lambda: ValuationProfile([GraphConcaveModel(1.0), GraphConcaveModel(1.0, beta="2")]),
         r"^agent 1: beta must be a number, got '2'$"),
        (lambda: ValuationProfile([ScalarModel(2.0, DegreeWeight(base=True))]),
         r"^agent 0: base must be a number, got True$"),
        (lambda: size_scalar_profile(3).replace(
            2, LinearModel(1.0, DegreeWeight(), DegreeWeight(scale=None))),
         r"^agent 2: scale must be a number, got None$"),
        # a shape is a key of SHAPES, and a weight or offset one a file can name
        (lambda: ValuationProfile([GraphConcaveModel(1.0, shape="cube")]),
         r"^agent 0: shape must be one of \['linear', 'sqrt'\], got 'cube'$"),
        (lambda: size_scalar_profile(3).replace(1, GraphConcaveModel(1.0, shape="cube")),
         r"^agent 1: shape must be one of \['linear', 'sqrt'\], got 'cube'$"),
        (lambda: ValuationProfile([ScalarModel(1.0, DegreeWeight(shape=1))]),
         r"^agent 0: shape must be one of \['linear', 'sqrt'\], got 1$"),
        (lambda: ValuationProfile([ScalarModel(1.0, DegreeWeight(shape=["sqrt"]))]),
         r"^agent 0: shape must be one of \['linear', 'sqrt'\], got \['sqrt'\]$"),
        (lambda: ValuationProfile([ScalarModel(1.0, None)]),
         r"^agent 0: weight must be a DegreeWeight or a table, got None$"),
        (lambda: ValuationProfile([LinearModel(1.0, DegreeWeight(), None)]),
         r"^agent 0: offset must be a DegreeWeight or a table, got None$"),
        (lambda: ValuationProfile([AdditiveModel(1.0, GraphConcaveModel(1.0))]),
         r"^agent 0: weight must be a DegreeWeight or a table, got GraphConcaveModel\(.*\)$"),
    ],
    ids=["graph-length", "check-mode", "neighbor-past-n", "declared_L-below-1", "declared_L-inf",
         "declared_L-nan", "bool-t", "str-beta", "bool-base", "replace-none-scale",
         "unknown-shape", "replace-unknown-shape", "int-shape", "list-shape", "none-weight",
         "none-offset", "model-as-weight"],
)
def test_profile_and_checker_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_profile_repr_names_each_agents_model():
    profile = ValuationProfile(
        [AdditiveModel(2.0, DegreeWeight()), TableModel({0b10: 1.0}), GraphConcaveModel(1.0)])
    assert repr(profile) == (
        "ValuationProfile(n=3, models=[AdditiveModel,TableModel,GraphConcaveModel])")


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


def _reference_violations(profile):
    """The exhaustive walk as it was written with nested ``submasks`` generators:
    the order the inline loops of ``check_conditions`` must keep."""
    n = profile.n
    full = (1 << n) - 1
    for i in range(n):
        v = values(profile, i)
        bit = 1 << i
        for s in range(1 << n):
            val = v[s]
            if not s & bit:
                if not abs(val) <= EPS:
                    yield Violation("nonzero_outside", i, (s,), val, 0.0)
                continue
            if val < -EPS:
                yield Violation("negative", i, (s,), val, 0.0)
            elif not val < math.inf:
                yield Violation("nonfinite", i, (s,), val, 0.0)
            for j in members(full ^ s):
                up = v[s | 1 << j]
                if val > up + EPS:
                    yield Violation("monotonicity", i, (s, s | 1 << j), val, up)
        rest = full & ~bit
        for sub in submasks(rest):
            s = sub | bit
            for d in submasks(rest & ~sub):
                r = d | bit
                u = v[s | r]
                bound = v[s] + v[r]
                if u > bound + EPS:
                    yield Violation("subadditivity", i, (s, r), u, bound)


@st.composite
def _table_profiles(draw):
    """TableModel profiles at n = 2..5 over a small value set, so that ties,
    negative, non-monotone and non-subadditive tables all come up."""
    n = draw(st.integers(min_value=2, max_value=5))
    value = st.sampled_from([-1.0, -EPS, 0.0, EPS, 0.5, 1.0, 1.0 + EPS, 2.0, 3.0, 7.0])
    models = []
    for i in range(n):
        sets = [s for s in range(1 << n) if s >> i & 1]
        values = draw(st.lists(value, min_size=len(sets), max_size=len(sets)))
        models.append(TableModel(dict(zip(sets, values))))
    return ValuationProfile(models)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(profile=_table_profiles())
def test_checker_walk_matches_the_nested_submask_walk(profile):
    expected = list(_reference_violations(profile))
    assert check_conditions(profile, max_violations=10**6) == expected
    ratios = [w.lhs / w.rhs if w.rhs > EPS else math.inf
              for w in expected if w.kind == "subadditivity"]
    assert estimate_L(profile) == max(ratios, default=1.0)
