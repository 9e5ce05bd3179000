import gc
import hashlib
import math
import random
import re
import weakref

import pytest

from extauction import DegreeWeight, fixed_price_mechanism, main_mechanism, mechanism2, truthfulness
from extauction.benchmark import benchmark_bruteforce
from extauction.sets import contains
from extauction.truthfulness import (
    BreakpointPartition,
    CharacterizationError,
    Deviation,
    SingleParamRule,
    broken_first_price_mechanism,
    check_bid_independent_monotone,
    check_encourages_higher_bids,
    deviation_test,
    discover_breakpoints,
    linear_valuation,
    misreport_plan,
    payment_from_characterization,
    random_failing_rule,
    random_passing_rule,
    uniform_grid,
    verify_rule_truthful,
)
from extauction.experiments import GEN_MODELS, gen_instance
from extauction.valuations import (
    AdditiveModel,
    GraphConcaveModel,
    LinearModel,
    TableModel,
    ValuationProfile,
)

from conftest import size_scalar_profile

GRID_0_10 = uniform_grid(0.0, 10.0, 11)  # integer bids 0..10


def fixed_price_rule(c: float, n: int = 1) -> SingleParamRule:
    grids = tuple(GRID_0_10 for _ in range(n))

    def allocate(bids):
        s = 0
        for j, b in enumerate(bids):
            if b >= c:
                s |= 1 << j
        return s

    return SingleParamRule(grids, allocate)


def indicator_weight(i):
    return lambda s: 1.0 if contains(s, i) else 0.0


# --- condition 1 ---------------------------------------------------------------

def test_fixed_price_rule_is_monotone():
    assert check_bid_independent_monotone(fixed_price_rule(4.0), 0) == []


def test_window_rule_violates_monotonicity():
    rule = SingleParamRule(
        (GRID_0_10,), lambda bids: 1 if 1.0 <= bids[0] <= 2.0 else 0
    )
    violations = check_bid_independent_monotone(rule, 0)
    assert violations
    assert violations[0].bid == 2.0 and violations[0].higher_bid == 3.0


def test_constant_rule_is_monotone():
    rule = SingleParamRule((GRID_0_10,), lambda bids: 1)
    assert check_bid_independent_monotone(rule, 0) == []


# --- condition 2 ---------------------------------------------------------------

def test_additive_indicator_weight_never_complains():
    # additive valuations collapse condition 2 into condition 1
    for rule in (fixed_price_rule(4.0), SingleParamRule((GRID_0_10,), lambda b: 1)):
        assert check_encourages_higher_bids(rule, 0, indicator_weight(0)) == []


def test_weight_drop_detected():
    # at high own bid the rule hands agent 0 a lighter set
    rule = SingleParamRule(
        (GRID_0_10, (0.0, 1.0)),
        lambda bids: 0b11 if bids[0] <= 5.0 else 0b01,
    )
    w0 = lambda s: 5.0 if s == 0b11 else (3.0 if s == 0b01 else 0.0)
    violations = check_encourages_higher_bids(rule, 0, w0)
    assert violations and "drops" in violations[0].detail


def test_fixed_price_rule_with_size_weight_passes():
    rule = fixed_price_rule(4.0, n=2)
    w0 = lambda s: float(s.bit_count()) if contains(s, 0) else 0.0
    assert check_encourages_higher_bids(rule, 0, w0) == []


# --- breakpoints and payments ----------------------------------------------------

def test_breakpoints_fixed_price_scalar():
    rule = fixed_price_rule(4.0)
    val = linear_valuation(indicator_weight(0))
    part = discover_breakpoints(rule, 0, (), val)
    assert part.starts == [0, 4]  # intervals [0,4) and [4,10]
    # offsets use a representative of the lower (losing) class, so d_0 = 0
    assert part.d == [0.0]
    assert payment_from_characterization(part, 0, 7.0, val) == pytest.approx(4.0)


def test_payment_zero_for_losers():
    rule = fixed_price_rule(4.0)
    val = linear_valuation(indicator_weight(0))
    part = discover_breakpoints(rule, 0, (), val)
    assert payment_from_characterization(part, 0, 2.0, val) == 0.0


def _payment_off_the_grid():
    val = linear_valuation(indicator_weight(0))
    part = discover_breakpoints(fixed_price_rule(4.0), 0, (), val)
    return payment_from_characterization(part, 0, 7.5, val)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: uniform_grid(0.0, 10.0, 1), r"^need at least two grid points$"),
        (_payment_off_the_grid, r"^bid 7\.5 is not on the grid$"),
    ],
    ids=["grid-of-one-point", "bid-off-the-grid"],
)
def test_grid_helpers_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_constant_rule_single_interval():
    rule = SingleParamRule((GRID_0_10,), lambda bids: 1)
    val = linear_valuation(indicator_weight(0))
    part = discover_breakpoints(rule, 0, (), val)
    assert part.starts == [0]
    assert part.d == []
    # wins even at zero bid: the maximal payment convention charges v at the infimum
    assert payment_from_characterization(part, 0, 6.0, val) == pytest.approx(0.0)


def test_two_step_rule_telescopes():
    def allocate(bids):
        if bids[0] >= 5.0:
            return 0b11
        if bids[0] >= 2.0:
            return 0b01
        return 0

    rule = SingleParamRule((GRID_0_10, (0.0, 1.0)), allocate)
    w0 = lambda s: {0b01: 1.0, 0b11: 3.0}.get(s, 0.0)
    val = linear_valuation(w0)
    part = discover_breakpoints(rule, 0, (0.0,), val)
    assert part.starts == [0, 2, 5]
    assert part.d == pytest.approx([0.0, 3.0])  # d_1 = 5*w({0}) - 2*w({0})
    assert payment_from_characterization(part, 0, 7.0, val) == pytest.approx(12.0)
    assert payment_from_characterization(part, 0, 3.0, val) == pytest.approx(2.0)


def test_additive_payment_is_threshold_plus_weight():
    rule = fixed_price_rule(4.0)
    w_pub = lambda s: 5.0 if contains(s, 0) else 0.0
    val = linear_valuation(indicator_weight(0), w_pub)
    part = discover_breakpoints(rule, 0, (), val)
    assert len(part.starts) == 2  # additive: one winning equivalence class
    assert payment_from_characterization(part, 0, 7.0, val) == pytest.approx(4.0 + 5.0)


def test_discover_rejects_failing_rule():
    rule = SingleParamRule(
        (GRID_0_10,), lambda bids: 1 if 1.0 <= bids[0] <= 2.0 else 0
    )
    with pytest.raises(CharacterizationError):
        discover_breakpoints(rule, 0, (), linear_valuation(indicator_weight(0)))


def _discover_reverse(rule, i, context, valuation):
    """Independent re-derivation scanning the grid from the top down."""
    grid = rule.grids[i]
    t_lo, t_hi = grid[0], grid[-1]
    allocs = [rule.allocate(rule.vector(i, context, b)) for b in grid]
    ends = [len(grid) - 1]
    reps = [allocs[-1]]
    for idx in range(len(grid) - 2, -1, -1):
        g_lo = valuation(t_lo, allocs[idx]) - valuation(t_lo, reps[-1])
        g_hi = valuation(t_hi, allocs[idx]) - valuation(t_hi, reps[-1])
        if abs(g_hi - g_lo) <= 1e-9:
            continue
        ends.append(idx)
        reps.append(allocs[idx])
    starts = [0] + [e + 1 for e in reversed(ends[1:])]
    reps = list(reversed(reps))
    d = [
        valuation(grid[starts[j + 1]], reps[j]) - valuation(grid[starts[j]], reps[j])
        for j in range(len(starts) - 1)
    ]
    return BreakpointPartition(grid, starts, allocs, d)


def test_payment_uniqueness_across_traversal_orders():
    rng = random.Random(4)
    for _ in range(20):
        rule, vals = random_passing_rule(2, rng)
        for i in range(2):
            for ctx in rule.contexts(i):
                fwd = discover_breakpoints(rule, i, ctx, vals[i])
                rev = _discover_reverse(rule, i, ctx, vals[i])
                assert fwd.starts == rev.starts
                for b in rule.grids[i]:
                    assert payment_from_characterization(
                        fwd, i, b, vals[i]
                    ) == pytest.approx(
                        payment_from_characterization(rev, i, b, vals[i]), abs=1e-9
                    )


# --- grid-rule truthfulness (sufficiency direction) -------------------------------

def test_random_passing_rules_are_truthful():
    rng = random.Random(11)
    for _ in range(25):
        rule, vals = random_passing_rule(2, rng)
        assert verify_rule_truthful(rule, vals) == []


def test_random_failing_rules_are_rejected_or_caught():
    rng = random.Random(12)
    for _ in range(25):
        rule, vals, culprit = random_failing_rule(2, rng)
        try:
            violations = verify_rule_truthful(rule, vals, agents=[culprit])
        except CharacterizationError:
            continue
        assert violations, "failing rule slipped through undetected"


@pytest.mark.parametrize("mutant", ["overcharge", "free"])
def test_grid_verifier_flags_wrong_payments(monkeypatch, mutant):
    """Negative control: the verifier's violation branch fires once the
    characterization's payments are wrong, and stays silent on the clean rule."""
    rule, vals = random_passing_rule(2, random.Random(3))
    assert verify_rule_truthful(rule, vals) == []
    clean = truthfulness.payment_from_characterization

    def wrong(partition, i, b_i, valuation):
        pay = clean(partition, i, b_i, valuation)
        if not contains(partition.allocs[partition.grid.index(b_i)], i):
            return pay
        return pay + 1.0 if mutant == "overcharge" else 0.0

    monkeypatch.setattr(truthfulness, "payment_from_characterization", wrong)
    violations = verify_rule_truthful(rule, vals)
    assert len(violations) > 0
    assert all(v.gain > 0 for v in violations)


def test_breakpoint_refusal_and_monotonicity_check_share_one_scan():
    rng = random.Random(13)
    refused = 0
    for trial in range(40):
        n = 2 + trial % 2
        if trial % 4 < 2:
            rule, vals, _ = random_failing_rule(n, rng)
        else:
            rule, vals = random_passing_rule(n, rng)
        for i in range(n):
            first_lost = {}
            for v in check_bid_independent_monotone(rule, i):
                first_lost.setdefault(v.context, v.higher_bid)
            for ctx in rule.contexts(i):
                try:
                    discover_breakpoints(rule, i, ctx, vals[i])
                    message = None
                except CharacterizationError as e:
                    message = str(e)
                if ctx in first_lost:
                    refused += 1
                    assert message == (
                        f"agent {i}: rule is not bid-independent monotone at bid "
                        f"{first_lost[ctx]:.12g}"
                    )
                else:
                    assert message is None or "bid-independent" not in message
    assert refused  # the seeded rules do include lost wins


def test_fixture_weights_are_the_degree_weight_bindings():
    # the fixtures bind DegreeWeight on the complete graph in place of these formulas
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        i = rng.randrange(n)
        bit = 1 << i
        base, per, off = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.5), rng.uniform(0.0, 3.0)
        w = DegreeWeight(base, per).bind(i, full)
        w_off = DegreeWeight(off, 0.0).bind(i, full)
        w_size = DegreeWeight().bind(i, full)
        for s in range(1 << n):
            inside = bool(s & bit)
            assert w(s).hex() == (base + per * (s.bit_count() - 1) if inside else 0.0).hex()
            assert w_off(s).hex() == (off if inside else 0.0).hex()
            assert w_size(s).hex() == (float(s.bit_count()) if inside else 0.0).hex()


# --- black-box deviation testing ----------------------------------------------------

def test_truthful_report_is_never_a_violation():
    profile = size_scalar_profile(3)
    # replaying the exact truth as a "misreport" must show zero gain
    plan = [Deviation(i, profile.models[i], "truth") for i in range(3)]
    assert deviation_test(main_mechanism, profile, plan, seeds=range(5)) == []


def test_main_mechanism_survives_misreports_on_tables():
    profile = gen_instance("table", 4, seed=2)
    plan = misreport_plan(profile, 400, seed=3)
    assert len(plan) >= 400
    assert deviation_test(main_mechanism, profile, plan, seeds=range(3)) == []


def test_main_mechanism_survives_misreports_on_parametric_models():
    for kind in ("additive", "scalar", "linear", "graph_concave"):
        profile = gen_instance(kind, 5, seed=7)
        plan = misreport_plan(profile, 200, seed=8)
        assert deviation_test(main_mechanism, profile, plan, seeds=range(2)) == []


#: ``misreport_plan(MIXED_PLAN_PROFILE, 40, seed=7)``: 14 misreports per agent, so
#: the seeded ``table noise`` and ``scale x...`` draws fill each agent's tail
MIXED_PLAN_LABELS = (
    [(0, f"scale x{f}") for f in (0.0, 0.25, 0.5, 0.9, 1.1, 2.0, 10.0)]
    + [(0, "huge table")] + [(0, "table noise")] * 6
    + [(1, f"scale x{f}") for f in (0.0, 0.25, 0.5, 0.9, 1.1, 2.0, 10.0)]
    + [(1, "zero bid"), (1, "huge bid")]
    + [(1, f"scale x{f}") for f in ("0.577", "0.471", "1.234", "3.265", "0.723")]
    + [(2, f"scale x{f}") for f in (0.0, 0.25, 0.5, 0.9, 1.1, 2.0, 10.0)]
    + [(2, "zero bid"), (2, "huge bid")]
    + [(2, f"scale x{f}") for f in ("2.326", "2.556", "1.490", "2.191", "0.251")]
)
MIXED_PLAN_MODELS_SHA256 = "d9f03bd1b8508339c56aa17773f6d764d0f82e6554f29077ecc57d66ba37582b"


def test_misreport_plan_random_extras_are_pinned():
    """The order, labels and seeded draws of a plan that reaches the random extras."""
    profile = ValuationProfile([
        TableModel({0b001: 1.0, 0b011: 1.5, 0b101: 2.0, 0b111: 2.5}),
        AdditiveModel(t=2.0, weight=DegreeWeight(1.0, 0.5)),
        LinearModel(t=3.0, weight=DegreeWeight(0.5, 1.0, "sqrt"), offset=DegreeWeight(0.25, 0.0)),
    ])
    plan = misreport_plan(profile, 40, seed=7)
    assert [(d.agent, d.label) for d in plan] == MIXED_PLAN_LABELS
    models = "\n".join(repr(d.model) for d in plan).encode()
    assert hashlib.sha256(models).hexdigest() == MIXED_PLAN_MODELS_SHA256


#: sha256 over ``misreport_plan(gen_instance(family, n, seed=n), 16 * n, seed=n)`` for every
#: family of ``GEN_MODELS`` and n = 3..10, one ``family n agent label repr(model)`` line per
#: misreport, recorded when each draw was an ``rng.uniform`` call and each table a dict
#: comprehension
PLANS_SHA256 = "5b7afc96043fa4c743c8234b0d6de21d7701b24ec9cc044309dc5dd0132862fa"


def test_plans_of_every_family_are_pinned():
    """16 misreports per agent reach every table's ``table noise`` draws and every other
    agent's ``scale x...`` draws, so each kind of draw and table map is in the pin."""
    lines, kinds = [], set()
    for family in GEN_MODELS:
        for n in range(3, 11):
            profile = gen_instance(family, n, seed=n)
            for d in misreport_plan(profile, 16 * n, seed=n):
                lines.append(f"{family} {n} {d.agent} {d.label} {d.model!r}")
                kind = re.sub(r"x\d+\.\d{3}$", "x draw", d.label)  # a seeded factor
                kind = re.sub(r"x[\d.]+$", "x", kind)  # a structured one
                kinds.add((isinstance(profile.models[d.agent], TableModel), kind))
    assert len(lines) == 4992
    assert kinds == {(True, "scale x"), (True, "huge table"), (True, "table noise"),
                     (False, "scale x"), (False, "zero bid"), (False, "huge bid"),
                     (False, "scale x draw")}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PLANS_SHA256


def test_broken_mechanism_is_flagged():
    profile = size_scalar_profile(3)
    plan = misreport_plan(profile, 50, seed=0)
    violations = deviation_test(broken_first_price_mechanism, profile, plan)
    assert violations, "negative control: first-price fixed allocation must fail"


def _recording(mechanism, calls):
    """``mechanism``, appending each call's ``(seed, profile)`` to ``calls``."""
    def recorded(p, s):
        calls.append((s, p))
        return mechanism(p, s)
    return recorded


def _counting_binds(monkeypatch):
    """The agent of each ``ValuationProfile.replace`` call from now on, in call order."""
    binds = []
    replace = ValuationProfile.replace

    def counted(self, i, model):
        binds.append(i)
        return replace(self, i, model)

    monkeypatch.setattr(ValuationProfile, "replace", counted)
    return binds


def test_each_misreport_is_bound_once_per_call(monkeypatch):
    profile = gen_instance("mixed", 5, seed=4)
    plan = misreport_plan(profile, 30, seed=2)
    binds = _counting_binds(monkeypatch)
    calls = []
    deviation_test(_recording(main_mechanism, calls), profile, plan, seeds=(0, 1, 2))
    assert binds == [d.agent for d in plan]
    assert [s for s, _ in calls] == [s for s in (0, 1, 2) for _ in range(len(plan) + 1)]
    runs = [calls[k * (len(plan) + 1):(k + 1) * (len(plan) + 1)] for k in range(3)]
    for run in runs:
        assert run[0][1] is profile
        assert all(p is q for (_, p), (_, q) in zip(run[1:], runs[0][1:]))
    assert len({id(p) for _, p in runs[0][1:]}) == len(plan)


def test_deviation_test_reads_its_seeds_once():
    profile = size_scalar_profile(3)
    plan = misreport_plan(profile, 20, seed=0)
    sequences = []
    for seeds in ((0, 1), iter((0, 1))):
        calls = []
        violations = deviation_test(
            _recording(broken_first_price_mechanism, calls), profile, plan, seeds=seeds)
        sequences.append((violations, [(s, p.models) for s, p in calls]))
    assert sequences[0][0]
    assert len(sequences[0][1]) == 2 * (len(plan) + 1)
    assert sequences[1] == sequences[0]


def test_a_replace_error_surfaces_before_the_mechanism_runs():
    profile = size_scalar_profile(11)
    plan = [Deviation(3, TableModel({1 << 3: 1.0}), "table past the cap")]
    calls = []
    with pytest.raises(ValueError, match="table models are capped"):
        deviation_test(_recording(main_mechanism, calls), profile, plan)
    assert calls == []


def _replay_record(profile, mechanism, plan):
    """sha256 over every run ``deviation_test`` makes (truth and each misreport, in
    call order) of ``(winners, sorted payments, queries)``, and its violations."""
    runs = []

    def recorded(p, s):
        o = mechanism(p, s)
        runs.append(repr((o.winners, sorted(o.payments.items()), o.queries_used)))
        return o

    violations = deviation_test(recorded, profile, plan, seeds=(0, 1))
    assert len(runs) == 2 * (len(plan) + 1)
    return hashlib.sha256("\n".join(runs).encode()).hexdigest(), violations


#: ``_replay_record`` per (family, mechanism) on ``misreport_plan(profile, 60, seed=1)``,
#: recorded with a ``replace`` that rebuilt the whole profile for every misreport and a
#: plan bound anew for every mechanism; the broken control's violations are pinned by the
#: sha256 of their repr
REPLAY_RECORDS = {
    ("table", "main"): (
        "ffd46acd44130a19c28ccb8044909d72cad8b93c26cfcfef5478dedcb2aed656",
        [],
    ),
    ("table", "fixed-price"): (
        "207a1d08f1220ab984fd925a235a7d54f73d37adc08052bf2cb08c1dacade4a0",
        [],
    ),
    ("table", "broken"): (
        "559b5d13061645a3d84e9fefd9ad0edb1169ce71d9039a01dbe5fd9c4c0465d6",
        "b9fd2d9869db1c594acf158b7c25217108d9623eee5ec71075da632e6a1b95c3",
    ),
    ("mixed", "main"): (
        "8ce313e8ca4cd574a910abb89ae34da8af29a0c1e5a9735ab014b7ba344a8e4e",
        [],
    ),
    ("mixed", "fixed-price"): (
        "d44fb9dfbc62719810140be27d3b187a3cbf50716aed7a2d7899b6a76ea8fe25",
        [],
    ),
    ("mixed", "broken"): (
        "62af9fc1ab3353efec506d0bf80baac53cf41f5d1aaf2c6daba7aa4f9ad4d157",
        "b9f007573d6194b6ab333ba3a40c1ed9e48eb3e34fb2539cb48acec5118cf177",
    ),
    ("additive", "main"): (
        "ab8eb9f5ae289f99685f5fd174cb5813c760f7d98d7bd262f3b7a8579e37ae60",
        [],
    ),
    ("additive", "fixed-price"): (
        "9639520dea85c56f9b08af92f328125b98755025808122d86650595705b037a2",
        [],
    ),
    ("additive", "broken"): (
        "a714833d4a6132c2a9c3b7a0beb1d30d8d4ea70aa1850afad49b1e25fd57483a",
        "da594b3676ae4716da85188db96158c783ca286ed95620605a180e241343b604",
    ),
    ("additive", "mechanism2"): (
        "2647256329ec7def9759645bef5b8c4d8d3d4f389fc81c870c2be59918c140ee",
        [],
    ),
}


def _mechanisms(profile):
    """The mechanisms ``REPLAY_RECORDS`` pins on ``profile``, by name."""
    price = benchmark_bruteforce(profile, 1).price
    mechanisms = {
        "main": lambda p, s: main_mechanism(p, s),
        "fixed-price": lambda p, s: fixed_price_mechanism(p, price),
        "broken": broken_first_price_mechanism,
    }
    if all(isinstance(m, AdditiveModel) for m in profile.models):
        mechanisms["mechanism2"] = lambda p, s: mechanism2(p, alpha=1.0, rng=s)
    return mechanisms


@pytest.mark.parametrize("family, graph", [("table", None), ("mixed", "pa"), ("additive", "er")])
def test_replayed_misreports_are_pinned(family, graph):
    """Every mechanism after the first replays the reports the first call bound."""
    profile = gen_instance(family, 6, seed=3, graph=graph)
    plan = misreport_plan(profile, 60, seed=1)
    for name, mechanism in _mechanisms(profile).items():
        digest, violations = _replay_record(profile, mechanism, plan)
        want_digest, want_violations = REPLAY_RECORDS[family, name]
        assert digest == want_digest, name
        if name == "broken":
            assert len(violations) >= 1
            violations = hashlib.sha256(repr(violations).encode()).hexdigest()
        assert violations == want_violations, name


def test_calls_on_one_profile_and_plan_bind_it_once(monkeypatch):
    profile = gen_instance("mixed", 5, seed=21, graph="er")
    plan = misreport_plan(profile, 30, seed=21)
    binds = _counting_binds(monkeypatch)
    seen = []
    for mechanism in _mechanisms(profile).values():
        calls = []
        deviation_test(_recording(mechanism, calls), profile, plan, seeds=(0, 1))
        assert [p for _, p in calls[:len(plan) + 1]] == [p for _, p in calls[len(plan) + 1:]]
        seen.append([p for _, p in calls[1:len(plan) + 1]])
    assert binds == [d.agent for d in plan]
    assert len(seen) == 3
    assert all(p is q for later in seen[1:] for p, q in zip(later, seen[0], strict=True))


@pytest.mark.parametrize("family", ["table", "additive"])
def test_a_replayed_plan_gives_what_fresh_calls_give(family):
    """Calls on one profile and plan, the later ones binding nothing, record the same runs
    and violations as calls that each build their own profile and plan."""
    profile = gen_instance(family, 5, seed=22)
    plan = misreport_plan(profile, 40, seed=22)
    mechanisms = _mechanisms(profile)
    replayed = {name: _replay_record(profile, m, plan) for name, m in mechanisms.items()}
    fresh = {}
    for name in mechanisms:
        p = gen_instance(family, 5, seed=22)
        fresh[name] = _replay_record(p, _mechanisms(p)[name], misreport_plan(p, 40, seed=22))
    assert replayed == fresh
    assert replayed["broken"][1]


def test_a_new_profile_or_a_changed_plan_is_bound_anew(monkeypatch):
    profile = gen_instance("graph_concave", 4, seed=23)
    plan = [Deviation(0, GraphConcaveModel(-0.0), "zero"),
            *misreport_plan(profile, 12, seed=23)]
    same = ValuationProfile(profile.models, graph=profile.graph)
    positive = [Deviation(0, GraphConcaveModel(0.0), "zero"), *plan[1:]]
    assert positive == plan and positive[0] is not plan[0]
    binds = _counting_binds(monkeypatch)
    deviation_test(main_mechanism, profile, plan)
    assert len(binds) == len(plan)
    for p, q in [(same, plan), (same, positive), (same, [*positive, plan[1]]),
                 (same, positive[:-1]), (profile, positive[:-1])]:
        del binds[:]
        calls = []
        deviation_test(_recording(main_mechanism, calls), p, q)
        assert binds == [d.agent for d in q]
        assert all(r.models[d.agent] is d.model for (_, r), d in zip(calls[1:], q, strict=True))
    assert math.copysign(1.0, calls[1][1].value(0, 1)) == 1.0  # not the -0.0 report
    edited = list(plan)
    deviation_test(main_mechanism, profile, edited)
    edited[0] = positive[0]  # the same list, edited in place
    del binds[:]
    deviation_test(main_mechanism, profile, edited)
    assert binds == [d.agent for d in edited]


def test_a_replace_error_in_a_rebind_leaves_no_entry(monkeypatch):
    profile = gen_instance("scalar", 4, seed=24)
    plan = misreport_plan(profile, 8, seed=24)
    deviation_test(main_mechanism, profile, plan)
    held = weakref.ref(truthfulness._last_bind[0][2][0])
    with pytest.raises(ValueError, match="not a valuation model"):
        deviation_test(main_mechanism, profile, [*plan, Deviation(1, DegreeWeight(), "weight")])
    assert truthfulness._last_bind == [None]
    gc.collect()
    assert held() is None  # the earlier plan's reports are gone too
    binds = _counting_binds(monkeypatch)
    deviation_test(main_mechanism, profile, plan)
    assert binds == [d.agent for d in plan]


def test_rules_selling_both_are_upward_closed():
    """Any rule passing both checks on the pair-loving instance sells to both
    bidders on an upward-closed quadrant: the engine behind the unbounded
    two-winner-benchmark gap."""
    m_factor = 50.0
    grid = uniform_grid(0.0, 10.0, 6)

    def w(i):
        return lambda s: {0b01: 1.0, 0b10: 1.0, 0b11: m_factor}.get(s, 0.0) if contains(s, i) else 0.0

    rng = random.Random(3)
    seen_selling = 0
    for _ in range(40):
        a = (rng.choice(grid), rng.choice(grid))
        c = (rng.choice(grid), rng.choice(grid))

        def allocate(bids, a=a, c=c):
            if bids[0] >= a[0] and bids[1] >= a[1]:
                return 0b11
            if bids[0] >= c[0]:
                return 0b01
            return 0

        rule = SingleParamRule((grid, grid), allocate)
        for i in range(2):
            assert check_bid_independent_monotone(rule, i) == []
            assert check_encourages_higher_bids(rule, i, w(i)) == []
        # scan: wherever both win, every coordinate-wise higher bid also sells both
        import itertools as it

        both = [b for b in it.product(grid, grid) if allocate(b) == 0b11]
        if both:
            seen_selling += 1
            for b in both:
                for b2 in it.product(grid, grid):
                    if b2[0] >= b[0] and b2[1] >= b[1]:
                        assert allocate(b2) == 0b11
    assert seen_selling >= 10
