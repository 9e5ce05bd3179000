"""Fixed-price revenue benchmarks, exactly.

``F^(k)`` is the best revenue from a single uniform price sold to a feasible
set of at least ``k`` agents, where each winner must value the winning set at
least the price.  Two routes compute it: a ``2^n`` subset scan and an
``O(n^2)``-query argmin-deletion sweep; both are exact for monotone bids, and
their agreement is asserted by the test suite.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import compress, count
from typing import Callable

from .sets import iter_members, members  # noqa: F401  (iter_members stays bound for perfbench's tracer)
from .valuations import EPS, DegreeView, Oracle, as_oracle

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


#: pools of more members than this sweep, and run deletion rounds, on neighbour
#: counts when they can (:func:`_greedy_sweep`, :func:`deletion_fixpoint`)
INCREMENTAL_SWEEP_ABOVE = 12
#: the least mask with more members, so that one int comparison turns away the
#: narrow pools of the 3^n paths, which make most sweep calls
_LEAST_LARGE_POOL = (1 << INCREMENTAL_SWEEP_ABOVE + 1) - 1
#: byte translation of binary digits to 0/1 flags for :func:`itertools.compress`
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
#: a large pool whose members hold on average at most this many neighbours in
#: ``free | pool`` is swept from a sorted order (:func:`_sorted_sweep`); denser
#: pools sweep faster by scanning their values (:func:`_degree_sweep`)
SPARSE_SWEEP_DEGREE = 4


def _ids(mask: int) -> list[int]:
    """The members of ``mask``, ascending, read from its binary digits in one C-level pass."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)))


def _large_pool_view(oracle: Oracle, pool: int, free: int) -> DegreeView | None:
    """The profile's :class:`~extauction.valuations.DegreeView` if ``pool`` may be
    swept and deleted from on neighbour counts, else ``None``.

    A pool may when it has more than ``INCREMENTAL_SWEEP_ABOVE`` members,
    none of them in ``free``, each bound to a per-degree table.  The
    oracle's evaluators are not looked at: the one oracle in the package
    whose evaluators are not the profile's, the exact path's
    :class:`~extauction.mechanisms._Tabulated`, holds n <= 12 agents and
    never has such a pool.
    """
    if pool.bit_count() > INCREMENTAL_SWEEP_ABOVE and not pool & free:
        view = oracle.profile._degree_view()
        if not pool & ~view.mask:
            return view
    return None


def deletion_fixpoint(oracle: Oracle, pool: int, free: int, bar: Callable[[int], float]) -> int:
    """From ``T = pool``, drop in each round every member bidding ``b_i(free | T)``
    below ``bar(|T|)``; returns the first ``T`` that loses nobody (possibly empty).

    Each round, the last one that drops nobody included, calls ``bar`` once
    and counts ``|T|`` queries.  A pool that passes the gate of
    :func:`_greedy_sweep` (more than ``INCREMENTAL_SWEEP_ABOVE`` members,
    disjoint from ``free``, all bound to per-degree tables) reads each value
    from the member's per-degree table (:func:`_degree_below`); any other asks
    :meth:`~extauction.valuations.Oracle.below`.  Both give the same set and
    the same count.
    """
    below = oracle.below
    if pool >= _LEAST_LARGE_POOL:
        view = _large_pool_view(oracle, pool, free)
        if view is not None:
            below = _degree_below(oracle, view)
    t = pool
    while t:
        drop = below(t, free | t, bar(t.bit_count()) - EPS)
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


def _degree_below(oracle: Oracle, view: DegreeView) -> Callable[[int, int, float], int]:
    """:meth:`~extauction.valuations.Oracle.below` for members with degree tables in ``view``.

    Reads ``v_i(union)`` as ``tables[i][|union & N(i)|]``, counts ``|t|``
    queries and compares as floats, so a NaN value or bar drops nobody.
    """
    tables, nbs = view.tables, view.nbs

    def below(t: int, union: int, low: float) -> int:
        ids = _ids(t)
        oracle.queries += len(ids)
        drop = 0
        for i in ids:
            if tables[i][(union & nbs[i]).bit_count()] < low:
                drop |= 1 << i
        return drop

    return below


def _greedy_sweep(oracle: Oracle, pool: int, free: int, k: int) -> tuple[float, float, int]:
    """Argmin-deletion sweep from ``pool``; exact for monotone bids.

    Records ``|T| * min_i b_i(free | T)`` at every trajectory step with
    ``|T| >= k`` and deletes the argmin agent (ties to the smallest id).
    At the last step whose ``T`` still contains an optimal set ``S*``, the
    deleted agent lies in ``S*`` and bids at least the optimal price on the
    larger set, so the recorded value dominates the optimum; every record
    is itself feasible, hence the maximum over the trajectory is exact.

    The record is kept as :func:`_better` keeps it.  ``T`` shrinks at every
    step, so a later candidate never wins a tie; that leaves two cases.
    While nothing is recorded, a candidate is taken unless ``val < -EPS``.
    After that it is taken only if ``val > best + EPS``.  Both cases agree
    with ``_better`` on NaN and ``-0.0`` as well.

    Each step counts ``|T|`` logical queries, ``|pool| * (|pool| + 1) / 2``
    in all, whichever of two paths computes it.  A pool of more than
    ``INCREMENTAL_SWEEP_ABOVE`` (12) members, disjoint from ``free``, all
    bound to per-degree tables, takes :func:`_degree_sweep`, which after
    each deletion recomputes only the deleted agent's in-neighbours and
    steps a sparse pool from a sorted order, any other by scanning its
    values.  Any other sweep asks
    :meth:`~extauction.valuations.Oracle.argmin` at every step: smaller
    pools, pools with a table agent, and so every sweep on the ``3^n``
    walk's oracle (:class:`~extauction.mechanisms._Tabulated`, n <= 12,
    whose evaluators are its columns and whose ``argmin`` reads the step
    memo first).  Both
    paths give the same result, bit for bit.  The gate is the pool size,
    where the median time per sweep crossed on a sparse and on the complete
    graph: 13 members swept 1.5-1.9x faster incrementally on sparse graphs
    and 1.03-1.2x faster on complete ones at n = 16, 24 and 128, while 10
    members on a complete graph (n = 16, 24) and 4-8 members at n = 10 swept
    1.1-2.3x slower.
    """
    if pool >= _LEAST_LARGE_POOL:
        view = _large_pool_view(oracle, pool, free)
        if view is not None:
            return _degree_sweep(oracle, view, pool, free, k)
    best = ZERO
    t = pool
    while t:
        low, arg = oracle.argmin(t, free | t)
        size = t.bit_count()
        if size >= k:
            val = size * low
            if best is ZERO:
                if not val < -EPS:
                    best = (val, low, t)
            elif val > best[0] + EPS:
                best = (val, low, t)
        t &= ~(1 << arg)
    return best


def _degree_sweep(oracle: Oracle, view: DegreeView, pool: int, free: int, k: int
                  ) -> tuple[float, float, int]:
    """:func:`_greedy_sweep` on a pool whose members all have degree tables in ``view``.

    Reads each member's neighbour count in ``free | pool`` once, counts the
    ``|pool| * (|pool| + 1) / 2`` queries up front, and after each deletion
    lowers the count of the deleted agent's live in-neighbours only, each by
    one.  Two loops then step the sweep.  A sparse pool, whose members hold
    on average at most ``SPARSE_SWEEP_DEGREE`` neighbours in ``free | pool``
    and none of which has a NaN in its table (``view.nan``), is swept from a
    sorted order (:func:`_sorted_sweep`).  Any other keeps the live members'
    ids, counts, tables and values in lists in ascending id order, and
    ``min`` then ``index`` finds the member ``Oracle.argmin`` would: both
    scans keep the first value and replace it only by a strictly smaller
    one, so a leading NaN stays, and the first value equal to the minimum is
    where the scan stopped.  When the in-neighbours are all of ``T`` (the
    complete graph) every value is read again in one comprehension.  Both
    loops keep the record as in :func:`_greedy_sweep`.
    """
    tables, nbs, in_nbs = view.tables, view.nbs, view.in_nbs
    union = free | pool
    ids = _ids(pool)
    counts = [(union & nbs[i]).bit_count() for i in ids]
    size = len(ids)
    oracle.queries += size * (size + 1) // 2
    if sum(counts) <= SPARSE_SWEEP_DEGREE * size and not pool & view.nan:
        return _sorted_sweep(view, ids, counts, pool, k)
    gs = [tables[i] for i in ids]
    vals = [g[c] for g, c in zip(gs, counts)]
    best = ZERO
    t = pool
    while size:
        low = min(vals)
        j = vals.index(low)
        arg = ids[j]
        if size >= k:
            val = size * low
            if best is ZERO:
                if not val < -EPS:
                    best = (val, low, t)
            elif val > best[0] + EPS:
                best = (val, low, t)
        t &= ~(1 << arg)
        size -= 1
        del ids[j], counts[j], gs[j], vals[j]
        hit = t & in_nbs[arg]
        if hit == t:
            counts = [c - 1 for c in counts]
            vals = [g[c] for g, c in zip(gs, counts)]
        else:
            while hit:
                bit = hit & -hit
                hit ^= bit
                j = bisect_left(ids, bit.bit_length() - 1)
                c = counts[j] = counts[j] - 1
                vals[j] = gs[j][c]
    return best


def _sorted_sweep(view: DegreeView, ids: list[int], counts: list[int], pool: int, k: int
                  ) -> tuple[float, float, int]:
    """The sparse loop of :func:`_degree_sweep`: member ``ids[j]`` has ``counts[j]``
    neighbours in ``free | pool``, and no member's table holds a NaN.

    Sorts the members' ``(value, id)`` pairs once.  The live members are the
    pairs from index ``head`` on, still sorted, and each step takes the pair
    at ``head`` and moves ``head`` past it: the least value, ties to the
    smallest id, ``-0.0`` and ``0.0`` being equal, as ``min`` and ``index``
    and ``Oracle.argmin`` choose.  Deleting an agent moves each of its live
    in-neighbours, found by ``bisect_left`` and re-placed by ``insort``,
    both from ``head`` on, since the deleted pairs before it are no longer
    in order with the live ones.  A step costs O(in-degree * log |T|), not
    the two scans of all ``|T|`` values.  A NaN would compare neither below
    nor above another value and break the order, so a pool holding one is
    not swept here.
    """
    tables, in_nbs = view.tables, view.in_nbs
    held = dict(zip(ids, counts))
    order = sorted([(tables[i][c], i) for i, c in zip(ids, counts)])
    size = len(order)
    head = 0
    best = ZERO
    t = pool
    while size:
        low, arg = order[head]
        head += 1
        if size >= k:
            val = size * low
            if best is ZERO:
                if not val < -EPS:
                    best = (val, low, t)
            elif val > best[0] + EPS:
                best = (val, low, t)
        t &= ~(1 << arg)
        size -= 1
        hit = t & in_nbs[arg]
        while hit:
            bit = hit & -hit
            hit ^= bit
            i = bit.bit_length() - 1
            g = tables[i]
            c = held[i]
            del order[bisect_left(order, (g[c], i), head)]
            c = held[i] = c - 1
            insort(order, (g[c], i), head)
    return best


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
