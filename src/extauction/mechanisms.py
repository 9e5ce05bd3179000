"""Auction mechanisms: fixed price, cost sharing, the tripartition auction,
RSOP, and the two-branch mixture for additive valuations.

All randomness flows through :class:`random.Random` seeded explicitly, so a
fixed ``(instance, seed)`` pair reproduces an identical outcome bit for bit.
Runs are pure given ``(profile, seed)`` and may execute in parallel; each run
counts its own value queries on a private oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .benchmark import (
    _greedy_sweep,
    classical_best_price,
    deletion_fixpoint,
    maximal_feasible_set,
)
from .sets import iter_members, members
from .valuations import EPS, AdditiveModel, Oracle, ValuationProfile, as_oracle

#: documented best known competitive bound for RSOP, used as the default
#: mixing parameter of the additive-market mixture mechanism.
DEFAULT_ALPHA = 4.68

EXACT_EXPECTATION_MAX_N = 10


@dataclass
class Outcome:
    """Winners, payments, and revenue of one mechanism run.

    ``payments`` holds winners only; losers pay 0 by convention.
    """

    winners: int
    payments: dict[int, float]
    revenue: float
    queries_used: int = 0

    def payment(self, i: int) -> float:
        return self.payments.get(i, 0.0)

    def to_json(self) -> dict:
        return {
            "winners": list(members(self.winners)),
            "payments": {str(i): self.payments[i] for i in sorted(self.payments)},
            "revenue": self.revenue,
            "queries": self.queries_used,
        }


@dataclass(frozen=True)
class Partition3:
    """Labeled tripartition of the agents into disjoint masks A, B, C."""

    a: int
    b: int
    c: int

    @classmethod
    def sample(cls, n: int, rng: random.Random) -> "Partition3":
        """Uniform i.i.d. label per agent, drawn in agent order."""
        masks = [0, 0, 0]
        for i in range(n):
            masks[rng.randrange(3)] |= 1 << i
        return cls(*masks)

    @classmethod
    def all_partitions(cls, n: int):
        """All 3^n labeled partitions, in deterministic order."""
        for labels in itertools.product(range(3), repeat=n):
            masks = [0, 0, 0]
            for i, lab in enumerate(labels):
                masks[lab] |= 1 << i
            yield cls(*masks)


def as_rng(rng_or_seed) -> random.Random:
    if isinstance(rng_or_seed, random.Random):
        return rng_or_seed
    return random.Random(rng_or_seed)


def fixed_price_mechanism(profile, c: float) -> Outcome:
    """Sell at the given uniform price to the maximal feasible set."""
    if c < 0:
        raise ValueError("price must be nonnegative")
    oracle = as_oracle(profile)
    winners = maximal_feasible_set(oracle, c, oracle.full, 0)
    payments = {i: c for i in iter_members(winners)}
    return Outcome(winners, payments, c * winners.bit_count(), oracle.queries)


def _cost_share_survivors(oracle: Oracle, r: float, x: int, y: int) -> int:
    """Survivor set of the equal-share deletion loop on ``x`` given ``y`` free."""
    return deletion_fixpoint(oracle, x, y, lambda size: r / size)


def cost_share(profile, r: float, x: int, y: int) -> Outcome:
    """Extract exactly ``r`` from ``x`` (or nothing), splitting it equally.

    Agents in ``y`` are treated as already holding the good.  Whole rounds
    are deleted at a time and the share is recomputed per round.  The
    returned outcome covers ``x`` only; allocating ``y`` is the caller's
    business.
    """
    if x & y:
        raise ValueError("cost-share pool and free set must be disjoint")
    if r < 0:
        raise ValueError("target revenue must be nonnegative")
    oracle = as_oracle(profile)
    s = _cost_share_survivors(oracle, r, x, y)
    if not s:
        return Outcome(0, {}, 0.0, oracle.queries)
    share = r / s.bit_count()
    payments = {i: share for i in iter_members(s)}
    return Outcome(s, payments, share * s.bit_count(), oracle.queries)


def testers_revenue(oracle: Oracle, part: Partition3) -> float:
    """``r(C)``: the best uniform-price revenue from C given A, or else B, holds the good.

    Each sweep value is memoized on the oracle per ``(C, free)`` pair, so the
    partitions of one run that share a pair sweep it once.
    """
    c = part.c
    if not c:
        return 0.0
    memo = oracle.revenues
    for free in (part.a, part.b):
        if (c, free) not in memo:
            memo[c, free] = _greedy_sweep(oracle, c, free, 1)[0]
    return max(memo[c, part.a], memo[c, part.b])


def _run_partitioned(oracle: Oracle, part: Partition3) -> Outcome:
    """Deterministic core of the tripartition auction for a fixed partition."""
    a, b = part.a, part.b
    r_c = testers_revenue(oracle, part)
    payments = {i: 0.0 for i in iter_members(a)}
    winners = a
    revenue = 0.0
    if b:
        survivors = _cost_share_survivors(oracle, r_c, b, a)
        if survivors:
            share = r_c / survivors.bit_count()
            for i in iter_members(survivors):
                payments[i] = share
            winners |= survivors
            revenue = share * survivors.bit_count()
    return Outcome(winners, payments, revenue, oracle.queries)


def main_mechanism(profile, rng=0, partition: Partition3 | None = None) -> Outcome:
    """Tripartition auction: randomize agents into A (free), B (buyers), C (price testers).

    The best uniform-price revenue extractable from C -- given either A or B
    holding the good for free -- becomes the cost-sharing target charged to
    B; A wins for free, C never wins.  The partition depends only on the
    random source, never on bids, so for every fixed partition the run is a
    deterministic truthful mechanism.
    """
    oracle = as_oracle(profile)
    if partition is None:
        partition = Partition3.sample(oracle.n, as_rng(rng))
    return _run_partitioned(oracle, partition)


def main_mechanism_exact_expectation(profile) -> float:
    """Expected revenue of the tripartition auction, exactly.

    Averages the deterministic revenue over all ``3^n`` equally likely
    labeled partitions; no sampling error, bit-reproducible.  Rejected for
    n > 10.
    """
    oracle = as_oracle(profile)
    n = oracle.n
    if n > EXACT_EXPECTATION_MAX_N:
        raise ValueError(f"exact expectation rejected for n > {EXACT_EXPECTATION_MAX_N}")
    total = 0.0
    for part in Partition3.all_partitions(n):
        total += _run_partitioned(oracle, part).revenue
    return total / (3 ** n)


def rsop(bids, rng=0, coins=None) -> Outcome:
    """Random sampling optimal price auction for plain (no-externality) bids.

    Each bidder is coin-flipped into one of two halves; each half is offered
    the other half's optimal uniform price.  An empty half prices the other
    at infinity (sells nothing).  ``coins`` may be supplied explicitly for
    deterministic replay; otherwise they come from the seeded generator.
    """
    bids = list(bids)
    n = len(bids)
    if coins is None:
        r = as_rng(rng)
        coins = [r.randrange(2) for _ in range(n)]
    elif len(coins) != n:
        raise ValueError("need one coin per bidder")
    halves = ([], [])
    for i, side in enumerate(coins):
        halves[side].append(i)
    prices = []
    for side in (0, 1):
        _, price, _ = classical_best_price([bids[j] for j in halves[side]])
        prices.append(price)
    winners = 0
    payments = {}
    for i, side in enumerate(coins):
        offered = prices[1 - side]
        if not math.isinf(offered) and bids[i] >= offered - EPS:
            winners |= 1 << i
            payments[i] = offered
    return Outcome(winners, payments, sum(payments.values()), 0)


def _require_additive(profile: ValuationProfile):
    if not all(isinstance(m, AdditiveModel) for m in profile.models):
        raise ValueError("mechanism2 requires an additive profile")


def public_weight_vector(profile: ValuationProfile, s: int) -> list[float]:
    """Public additive weights ``w_i(S)`` of an additive profile."""
    _require_additive(profile)
    return [
        m.weight.bind(i, profile.neighbor_masks[i])(s)
        for i, m in enumerate(profile.models)
    ]


def mechanism2(profile, alpha: float = DEFAULT_ALPHA, m0=rsop, rng=0) -> Outcome:
    """Two-branch mixture for additive valuations ``v_i = t_i + w_i(S)``.

    With probability ``1/(1+alpha)``: everyone wins and pays the public
    ``w_i([n])`` (their threshold payment under an always-win rule).  With
    probability ``alpha/(1+alpha)``: the classical mechanism ``m0`` runs on
    the private bids ``t``, and winners pay its classical threshold price
    plus ``w_i`` of the allocated set.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _require_additive(profile)
    r = as_rng(rng)
    if r.random() < 1.0 / (1.0 + alpha):
        w_full = public_weight_vector(profile, profile.full)
        payments = {i: w_full[i] for i in range(profile.n)}
        return Outcome(profile.full, payments, sum(w_full), 0)
    t_bids = [m.t for m in profile.models]
    classical = m0(t_bids, r)
    payments = {}
    for i in iter_members(classical.winners):
        w_i = profile.models[i].weight.bind(i, profile.neighbor_masks[i])
        payments[i] = classical.payment(i) + w_i(classical.winners)
    return Outcome(classical.winners, payments, sum(payments.values()), classical.queries_used)


def mechanism2_expected_revenue(profile, alpha: float, m0_expected_revenue: float) -> float:
    """Exact two-branch expectation given the classical branch's expected revenue."""
    _require_additive(profile)
    w_total = sum(public_weight_vector(profile, profile.full))
    p1 = 1.0 / (1.0 + alpha)
    return p1 * w_total + (1.0 - p1) * m0_expected_revenue
