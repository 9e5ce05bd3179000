"""Single-parameter characterization machinery and the deviation tester.

For single-parameter agents (bid ``t_i``, valuation ``v_i(t_i, S)`` with
monotone-or-constant marginals), an allocation rule over a finite bid grid is
truthfully implementable iff

  1. it is bid-independent monotone: winning survives raising one's own bid;
  2. it encourages higher bids: the public weight of the allocated set never
     drops as one's own bid rises.

When both hold, each agent's bid axis splits into intervals of equivalent
allocated sets, and the unique truthful payment follows by telescoping the
interval offsets ``d_j``.  Everything here works on finite grids, where the
infima become minima and breakpoints are exactly computable; no claim is
made about continuous bid domains.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import is_
from typing import Callable, Sequence

from .mechanisms import Outcome
from .sets import contains
from .valuations import EPS, DegreeWeight, Model, TableModel, ValuationProfile, as_oracle


class CharacterizationError(ValueError):
    """Raised when payments are requested for a rule failing the conditions."""


@dataclass(frozen=True)
class SingleParamRule:
    """Deterministic allocation over finite per-agent bid grids."""

    grids: tuple[tuple[float, ...], ...]
    allocate: Callable[[tuple[float, ...]], int]

    @property
    def n(self) -> int:
        return len(self.grids)

    def contexts(self, i: int):
        """All bid vectors of the other agents, as full templates with slot i."""
        return itertools.product(*(g for j, g in enumerate(self.grids) if j != i))

    def vector(self, i: int, context: tuple[float, ...], b_i: float) -> tuple[float, ...]:
        return (*context[:i], b_i, *context[i:])

    def allocations(self, i: int, context: tuple[float, ...]) -> list[int]:
        """The allocated set at each of agent ``i``'s grid bids, in grid order."""
        return [self.allocate(self.vector(i, context, b)) for b in self.grids[i]]


def uniform_grid(lo: float, hi: float, points: int = 64) -> tuple[float, ...]:
    """Evenly spaced bid grid, the default discretization of the bid axis."""
    if points < 2:
        raise ValueError("need at least two grid points")
    step = (hi - lo) / (points - 1)
    return tuple(lo + step * j for j in range(points))


@dataclass(frozen=True)
class RuleViolation:
    agent: int
    context: tuple[float, ...]
    bid: float
    higher_bid: float
    detail: str


def _lost_wins(grid: Sequence[float], allocs: Sequence[int], i: int):
    """``(last winning bid, higher bid)`` for each grid bid at which agent
    ``i`` loses after winning at a lower one, in grid order."""
    last_win = None
    for b, s in zip(grid, allocs):
        if contains(s, i):
            last_win = b
        elif last_win is not None:
            yield last_win, b


def check_bid_independent_monotone(rule: SingleParamRule, i: int) -> list[RuleViolation]:
    """Winning must survive raising one's own bid, for every context."""
    return [
        RuleViolation(i, ctx, won, lost, "win lost at higher bid")
        for ctx in rule.contexts(i)
        for won, lost in _lost_wins(rule.grids[i], rule.allocations(i, ctx), i)
    ]


def check_encourages_higher_bids(
    rule: SingleParamRule, i: int, w_i: Callable[[int], float]
) -> list[RuleViolation]:
    """Public weight of the allocated set must be nondecreasing in own bid."""
    return [
        RuleViolation(i, ctx, prev_b, b, f"weight drops {prev_w:.12g} -> {w:.12g}")
        for ctx in rule.contexts(i)
        for (prev_b, prev_w), (b, w) in itertools.pairwise(
            zip(rule.grids[i], map(w_i, rule.allocations(i, ctx)))
        )
        if w < prev_w - EPS
    ]


@dataclass
class BreakpointPartition:
    """Intervals of the bid grid with equivalent allocated sets, plus offsets.

    ``starts[j]`` indexes the first grid point of interval ``I_j``; ``allocs``
    aligns with the grid; ``d[j]`` is the valuation offset between the infima
    of consecutive intervals evaluated on a representative of the lower class.
    """

    grid: tuple[float, ...]
    starts: list[int]
    allocs: list[int]
    d: list[float]

    def interval_of(self, idx: int) -> int:
        return bisect_right(self.starts, idx) - 1


def discover_breakpoints(
    rule: SingleParamRule,
    i: int,
    context: tuple[float, ...],
    valuation: Callable[[float, int], float],
) -> BreakpointPartition:
    """Scan agent ``i``'s bid axis and group bids with equivalent allocations.

    Two allocated sets are equivalent when the marginal
    ``g(t) = v_i(t, S) - v_i(t, S')`` is constant in ``t`` (checked at the
    grid endpoints, which suffices for monotone-or-constant marginals); a
    strictly increasing marginal starts a new, higher class.  A decreasing
    marginal, or a lost win at a higher bid, means the rule is not truthfully
    implementable and raises :class:`CharacterizationError`.
    """
    grid = rule.grids[i]
    t_lo, t_hi = grid[0], grid[-1]
    allocs = rule.allocations(i, context)
    lost = next(_lost_wins(grid, allocs, i), None)
    if lost is not None:
        raise CharacterizationError(
            f"agent {i}: rule is not bid-independent monotone at bid {lost[1]:.12g}"
        )

    starts = [0]  # each class is represented by the allocation at its first bid
    for idx in range(1, len(grid)):
        s_prev, s_cur = allocs[starts[-1]], allocs[idx]
        g_lo = valuation(t_lo, s_cur) - valuation(t_lo, s_prev)
        g_hi = valuation(t_hi, s_cur) - valuation(t_hi, s_prev)
        if abs(g_hi - g_lo) <= EPS:
            continue  # same equivalence class
        if g_hi < g_lo:
            raise CharacterizationError(
                f"agent {i}: allocation at bid {grid[idx]:.12g} has a decreasing marginal"
            )
        starts.append(idx)

    d = [
        valuation(grid[hi], allocs[lo]) - valuation(grid[lo], allocs[lo])
        for lo, hi in itertools.pairwise(starts)
    ]
    return BreakpointPartition(grid, starts, allocs, d)


def payment_from_characterization(
    partition: BreakpointPartition,
    i: int,
    b_i: float,
    valuation: Callable[[float, int], float],
) -> float:
    """Truthful payment for a grid bid: interval infimum minus summed offsets.

    Losers pay 0.  A winner bidding in interval ``I_l`` pays
    ``v_i(min I_l, allocated set) - sum(d_0..d_{l-1})``; when the agent wins
    even at the lowest bid, the maximal (no constant subtracted) payment is
    chosen, keeping payments deterministic.
    """
    grid = partition.grid
    try:
        idx = grid.index(b_i)
    except ValueError:
        raise ValueError(f"bid {b_i!r} is not on the grid") from None
    alloc = partition.allocs[idx]
    if not contains(alloc, i):
        return 0.0
    ell = partition.interval_of(idx)
    lo = grid[partition.starts[ell]]
    return valuation(lo, alloc) - sum(partition.d[:ell])


def linear_valuation(
    w: Callable[[int], float], offset: Callable[[int], float] | None = None
) -> Callable[[float, int], float]:
    """Valuation callable ``v(t, S) = t * w(S) + offset(S)`` for one agent."""
    if offset is None:
        return lambda t, s: t * w(s)
    return lambda t, s: t * w(s) + offset(s)


@dataclass(frozen=True)
class GridViolation:
    agent: int
    context: tuple[float, ...]
    true_bid: float
    misreport: float
    gain: float


def verify_rule_truthful(
    rule: SingleParamRule,
    valuations: Sequence[Callable[[float, int], float]],
    agents: Sequence[int] | None = None,
) -> list[GridViolation]:
    """Exhaustively test the synthesized payments over the whole grid.

    For each agent, context, true type, and misreport, utility under truth
    must weakly dominate.  This is the executable sufficiency direction of
    the characterization; it raises if the rule fails the two conditions.
    """
    out = []
    for i in agents if agents is not None else range(rule.n):
        grid = rule.grids[i]
        val = valuations[i]
        for ctx in rule.contexts(i):
            part = discover_breakpoints(rule, i, ctx, val)
            pay = [payment_from_characterization(part, i, b, val) for b in grid]

            def utility(t: float, idx: int) -> float:
                alloc = part.allocs[idx]
                if not contains(alloc, i):
                    return 0.0
                return val(t, alloc) - pay[idx]

            for ti, t in enumerate(grid):
                u_truth = utility(t, ti)
                for bi in range(len(grid)):
                    gain = utility(t, bi) - u_truth
                    if gain > EPS:
                        out.append(GridViolation(i, ctx, t, grid[bi], gain))
    return out


# ---------------------------------------------------------------------------
# black-box deviation testing of full mechanisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deviation:
    """One tested misreport: agent ``i`` reports ``model`` instead of truth."""

    agent: int
    model: Model
    label: str


@dataclass(frozen=True)
class DeviationViolation:
    agent: int
    seed: int
    label: str
    gain: float


def _scale_model(model: Model, factor: float) -> Model:
    """``model`` with every value of a table, or the private ``t`` of a
    single-parameter model, multiplied by ``factor`` (``v * factor``)."""
    if isinstance(model, TableModel):
        return TableModel({k: v * factor for k, v in model.values.items()})
    # single private parameter: scaling the report scales t only
    return replace(model, t=model.t * factor)


def misreport_plan(
    profile: ValuationProfile, count: int, seed: int = 0
) -> list[Deviation]:
    """Structured + sampled misreports, at least ``count`` in total.

    Single-parameter agents misreport the scalar ``t`` (scalings, zero, a
    huge bid, and seeded uniform draws).  Table agents perturb the whole bid
    function: uniform scalings, per-set multiplicative noise, and the
    adversarial all-zero / all-huge patterns.

    The draws are ``b * rng.random()``, which is ``rng.uniform(0.0, b)`` bit
    for bit when ``b >= 0``, without a Python frame per draw: a ``scale x...``
    factor is ``4.0 * r``, and a ``table noise`` value is ``v * (2.0 * r)``,
    one draw per key in the table's order.
    """
    draw = random.Random(seed).random
    n = profile.n
    plan: list[Deviation] = []
    structured = [0.0, 0.25, 0.5, 0.9, 1.1, 2.0, 10.0]
    per_agent = max(1, -(-count // n))  # ceil
    for i, model in enumerate(profile.models):
        stop = len(plan) + per_agent
        for f in structured:
            plan.append(Deviation(i, _scale_model(model, f), f"scale x{f}"))
        if isinstance(model, TableModel):
            plan.append(
                Deviation(
                    i,
                    TableModel({k: 1e6 + v for k, v in model.values.items()}),
                    "huge table",
                )
            )
            while len(plan) < stop:
                noisy = {k: v * (2.0 * draw()) for k, v in model.values.items()}
                plan.append(Deviation(i, TableModel(noisy), "table noise"))
        else:
            plan.append(Deviation(i, replace(model, t=0.0), "zero bid"))
            plan.append(Deviation(i, replace(model, t=1e6), "huge bid"))
            while len(plan) < stop:
                f = 4.0 * draw()
                plan.append(Deviation(i, _scale_model(model, f), f"scale x{f:.3f}"))
    return plan


#: the last :func:`deviation_test` call's ``(profile, plan, reports)``, or ``None``
_last_bind: list[tuple | None] = [None]


def _bound_reports(profile: ValuationProfile, plan: Sequence[Deviation]) -> list[ValuationProfile]:
    """``profile.replace(d.agent, d.model)`` for each ``d`` of ``plan``, kept for the next call.

    The entry is reused when ``profile`` and every entry of ``plan`` are the very objects
    of the last call (``is``, element by element, and the same length): a ``Deviation``
    holding a ``dict`` is unhashable, and equal models can still differ (``-0.0`` and
    ``0.0``).  The entry holds those objects, so no ``id`` is reused while it lives, and
    it is dropped before a rebind, so at most one plan's reports are held, and a
    ``replace`` error leaves none.  A call reads the entry once, so concurrent calls
    each get their own plan's reports.
    """
    last = _last_bind[0]
    if (last is not None and last[0] is profile and len(last[1]) == len(plan)
            and all(map(is_, last[1], plan))):
        return last[2]
    _last_bind[0] = None
    plan = tuple(plan)
    reports = [profile.replace(d.agent, d.model) for d in plan]
    _last_bind[0] = (profile, plan, reports)
    return reports


def deviation_test(
    mechanism: Callable[[ValuationProfile, int], Outcome],
    profile: ValuationProfile,
    plan: Sequence[Deviation],
    seeds: Sequence[int] = (0,),
) -> list[DeviationViolation]:
    """Compare truthful vs misreported utility under identical randomness.

    ``mechanism(profile, seed)`` must be deterministic given the seed; the
    same seed is replayed for truth and for every misreport, which is what
    universal truthfulness promises to survive.

    Each misreport is bound once per plan (``profile.replace``), before the
    first mechanism call, and the same reported profile is replayed under
    every seed; so an error from ``replace`` surfaces before the mechanism
    runs at all.  The reports are kept until the next call, and a call on
    the same profile object with the same ``Deviation`` objects in the same
    order (another mechanism, say) binds nothing and replays them
    (:func:`_bound_reports`).  Per seed the mechanism sees the truthful
    profile, then the misreports in plan order, and ``seeds`` is read once.
    """
    reports = _bound_reports(profile, plan)
    out = []
    for seed in seeds:
        truth = mechanism(profile, seed)
        u_truth = {
            i: profile.value(i, truth.winners) - truth.payment(i) for i in range(profile.n)
        }
        for dev, reported in zip(plan, reports):
            o = mechanism(reported, seed)
            u = profile.value(dev.agent, o.winners) - o.payment(dev.agent)
            gain = u - u_truth[dev.agent]
            if gain > EPS:
                out.append(DeviationViolation(dev.agent, seed, dev.label, gain))
    return out


def broken_first_price_mechanism(profile, rng=0) -> Outcome:
    """Negative control: everyone wins and pays their own reported bid.

    Underbidding strictly gains, so the deviation tester must flag it.
    """
    oracle = as_oracle(profile)
    winners = oracle.full
    payments = {i: oracle.value(i, winners) for i in range(oracle.n)}
    return Outcome(winners, payments, sum(payments.values()), oracle.queries)


# ---------------------------------------------------------------------------
# random rule generators (fixtures for the characterization suite)
# ---------------------------------------------------------------------------

def random_passing_rule(
    n: int, rng: random.Random
) -> tuple[SingleParamRule, list[Callable[[float, int], float]]]:
    """Random rule satisfying both conditions, with matching linear valuations.

    Winners are agents above per-agent reserves, plus everyone when the bid
    total clears a pot threshold; both clauses grow the allocated set as any
    single bid rises, so weights can only increase.
    """
    grids = (uniform_grid(0.0, 10.0, 6),) * n
    reserves = [rng.choice(grids[i]) for i in range(n)]
    pot = rng.uniform(0.6, 0.9) * 10.0 * n
    use_pot = rng.random() < 0.5
    full = (1 << n) - 1

    def allocate(bids: tuple[float, ...]) -> int:
        s = 0
        for j, b in enumerate(bids):
            if b >= reserves[j] - EPS:
                s |= 1 << j
        if use_pot and sum(bids) >= pot - EPS:
            s = full
        return s

    vals = []
    for i in range(n):
        base = rng.uniform(0.5, 2.0)
        per = rng.uniform(0.0, 1.5)
        off = rng.uniform(0.0, 3.0)
        # on the complete graph: w_i(S) = base + per * (|S| - 1), offset a flat ``off``
        w = DegreeWeight(base, per).bind(i, full)
        vals.append(linear_valuation(w, DegreeWeight(off, 0.0).bind(i, full)))
    return SingleParamRule(grids, allocate), vals


def random_failing_rule(
    n: int, rng: random.Random
) -> tuple[SingleParamRule, list[Callable[[float, int], float]], int]:
    """Random rule violating one condition for a designated agent.

    Either a bid window (win only inside an interval: not monotone) or a
    shrinking allocation (higher own bid drops the other winners: weight
    decreases).  Returns the culprit agent as well.
    """
    grids = (uniform_grid(0.0, 10.0, 6),) * n
    culprit = rng.randrange(n)
    full = (1 << n) - 1
    kind = rng.choice(["window", "shrink"])
    lo = rng.uniform(0.2, 0.4) * 10.0
    mid = rng.uniform(0.5, 0.8) * 10.0

    def allocate(bids: tuple[float, ...]) -> int:
        b = bids[culprit]
        if kind == "window":
            return full if lo - EPS <= b <= mid + EPS else full & ~(1 << culprit)
        # shrink: culprit always wins, everyone else dropped at high bids
        return full if b <= mid + EPS else (1 << culprit)

    # w_i(S) = |S| for i in S, on the complete graph
    vals = [linear_valuation(DegreeWeight().bind(i, full)) for i in range(n)]
    return SingleParamRule(grids, allocate), vals, culprit
