"""Fixed-price revenue benchmarks, exactly.

``F^(k)`` is the best revenue from a single uniform price sold to a feasible
set of at least ``k`` agents, where each winner must value the winning set at
least the price.  Two routes compute it: a ``2^n`` subset scan and an
``O(n^2)``-query argmin-deletion sweep; both are exact for monotone bids, and
their agreement is asserted by the test suite.

Also provided is the pool-given-free-set revenue used by the tripartition
mechanism: the best uniform-price revenue extractable from ``pool`` when the
agents in ``free`` already hold the good.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .sets import iter_members, members  # noqa: F401  (iter_members stays bound for perfbench's tracer)
from .valuations import EPS, Oracle, as_oracle

BRUTEFORCE_MAX_N = 20


@dataclass(frozen=True)
class BenchmarkResult:
    """Optimal uniform-price outcome: ``value = price * |winners|``."""

    value: float
    price: float
    winners: int  # mask of the optimal set
    k: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "price": self.price,
            "winners": list(members(self.winners)),
            "k": self.k,
        }


ZERO = (0.0, 0.0, 0)


def _better(cand: tuple[float, float, int], best: tuple[float, float, int]) -> bool:
    """Canonical comparison: higher value, ties to larger set then smaller mask."""
    val, _, mask = cand
    bval, _, bmask = best
    if val > bval + EPS:
        return True
    if val < bval - EPS:
        return False
    if mask.bit_count() != bmask.bit_count():
        return mask.bit_count() > bmask.bit_count()
    return mask < bmask


def benchmark_bruteforce(profile, k: int) -> BenchmarkResult:
    """``F^(k)`` by scanning all ``2^n`` subsets; n is capped at 20.

    Ties break toward the larger set, then the smallest mask, so the
    reported optimum (price, set) is canonical.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    oracle = as_oracle(profile)
    n = oracle.n
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"subset scan rejected for n > {BRUTEFORCE_MAX_N}")
    best = ZERO
    for s in range(1, 1 << n):
        if s.bit_count() < k:
            continue
        price = oracle.argmin(s, s)[0]
        cand = (s.bit_count() * price, price, s)
        if _better(cand, best):
            best = cand
    return BenchmarkResult(best[0], best[1], best[2], k)


def deletion_fixpoint(oracle: Oracle, pool: int, free: int, bar: Callable[[int], float]) -> int:
    """From ``T = pool``, drop in each round every member bidding ``b_i(free | T)``
    below ``bar(|T|)``; returns the first ``T`` that loses nobody (possibly empty)."""
    t = pool
    while t:
        drop = oracle.below(t, free | t, bar(t.bit_count()) - EPS)
        if not drop:
            break
        t &= ~drop
    return t


def maximal_feasible_set(profile, c: float, pool: int, free: int) -> int:
    """Largest ``T`` inside ``pool`` with ``b_i(free | T) >= c`` for all its members.

    The deletion fixpoint at the constant bar ``c``; by monotonicity it
    contains every feasible subset of ``pool``.
    """
    if pool & free:
        raise ValueError("pool and free sets must be disjoint")
    return deletion_fixpoint(as_oracle(profile), pool, free, lambda size: c)


def _greedy_sweep(oracle: Oracle, pool: int, free: int, k: int) -> tuple[float, float, int]:
    """Argmin-deletion sweep from ``pool``; exact for monotone bids.

    Records ``|T| * min_i b_i(free | T)`` at every trajectory step with
    ``|T| >= k`` and deletes the argmin agent (ties to the smallest id).
    At the last step whose ``T`` still contains an optimal set ``S*``, the
    deleted agent lies in ``S*`` and bids at least the optimal price on the
    larger set, so the recorded value dominates the optimum; every record
    is itself feasible, hence the maximum over the trajectory is exact.
    Uses at most ``|pool| * (|pool| + 1) / 2`` value queries.
    """
    best = ZERO
    t = pool
    while t:
        low, arg = oracle.argmin(t, free | t)
        size = t.bit_count()
        if size >= k:
            cand = (size * low, low, t)
            if _better(cand, best):
                best = cand
        t &= ~(1 << arg)
    return best


def revenue_given_free(profile, pool: int, free: int) -> BenchmarkResult:
    """Best uniform-price revenue from ``pool`` given ``free`` holds the good.

    Equals ``max_c c * |maximal_feasible_set(c, pool, free)|``, computed
    exactly by the argmin-deletion sweep (no price grid).
    """
    if pool & free:
        raise ValueError("pool and free sets must be disjoint")
    oracle = as_oracle(profile)
    val, price, winners = _greedy_sweep(oracle, pool, free, 1)
    return BenchmarkResult(val, price, winners, 1)


def benchmark_sweep(profile, k: int) -> BenchmarkResult:
    """``F^(k)`` via the argmin-deletion sweep; at most ``n(n+1)/2`` queries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    oracle = as_oracle(profile)
    val, price, winners = _greedy_sweep(oracle, oracle.full, 0, k)
    return BenchmarkResult(val, price, winners, k)


def classical_best_price(bids, min_winners: int = 1) -> tuple[float, float, int]:
    """Best uniform price for a plain bid vector (no externalities).

    Returns ``(revenue, price, count)`` for the best price with at least
    ``min_winners`` takers; ``(0.0, inf, 0)`` if no such price earns a positive
    revenue (the infinite price is the sell-nothing convention used by RSOP).
    """
    best = (0.0, math.inf, 0)
    srt = sorted(bids, reverse=True)
    for count, b in enumerate(srt, 1):
        if count < min_winners:
            continue
        rev = b * count
        if rev > best[0] + EPS:
            best = (rev, b, count)
    return best
