"""Reference answers computed without the library's algorithms.

Valuations are evaluated straight from the saved instance documents (the
schema described in the README), and the fixed-price benchmark, the
tripartition auction, the quarter bound and the partition statistics are
re-derived here from their definitions.  The arithmetic mirrors the order the
library uses, so a correct library matches these answers bit for bit; any
difference is a changed result, which the benchmark counts as a failure.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import statistics
from fractions import Fraction

EPS = 1e-9
SHAPES = {"linear": float, "sqrt": math.sqrt}
TABULATE_MAX_N = 12


def _mask(key: str) -> int:
    m = 0
    for part in key.split(","):
        m |= 1 << int(part)
    return m


def _members(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class Valuation:
    """``v_i(S)`` evaluated from an instance document, as ``value(i, s)``.

    Up to ``TABULATE_MAX_N`` agents every value is computed once into a table.
    """

    def __init__(self, doc: dict):
        self.n = n = doc["n"]
        full = (1 << n) - 1
        graph = doc.get("graph")
        nbs = [full] * n if graph is None else [sum(1 << j for j in nb) for nb in graph]
        fns = [self._agent(a, i, nbs[i] & ~(1 << i)) for i, a in enumerate(doc["agents"])]
        if n <= TABULATE_MAX_N:
            tab = [[fn(s) if (s >> i) & 1 else 0.0 for s in range(1 << n)]
                   for i, fn in enumerate(fns)]
            self.value = lambda i, s: tab[i][s]
        else:
            self.value = lambda i, s: fns[i](s) if (s >> i) & 1 else 0.0

    @staticmethod
    def _weight(w: dict, nb: int):
        if w["kind"] == "table":
            tbl = {_mask(k): float(v) for k, v in w["values"].items()}
            return lambda s: tbl.get(s, 0.0)
        f = SHAPES[w.get("shape", "linear")]
        base, scale = float(w.get("base", 1.0)), float(w.get("scale", 1.0))
        return lambda s: base + scale * f((s & nb).bit_count())

    def _agent(self, a: dict, i: int, nb: int):
        kind = a["model"]
        if kind == "table":
            tbl = {_mask(k): float(v) for k, v in a["values"].items()}
            return lambda s: tbl.get(s, 0.0)
        t = float(a["t"])
        if kind == "graph_concave":
            beta, f = float(a.get("beta", 1.0)), SHAPES[a.get("shape", "sqrt")]
            return lambda s: t * (1.0 + beta * f((s & nb).bit_count()))
        w = self._weight(a["weight"], nb)
        if kind == "additive":
            return lambda s: t + w(s)
        if kind == "scalar":
            return lambda s: t * w(s)
        off = self._weight(a["offset"], nb)
        return lambda s: t * w(s) + off(s)


def _better(cand, best) -> bool:
    """Higher value; within EPS the larger set, then the smaller mask."""
    if cand[0] > best[0] + EPS:
        return True
    if cand[0] < best[0] - EPS:
        return False
    cb, bb = cand[2].bit_count(), best[2].bit_count()
    return cb > bb if cb != bb else cand[2] < best[2]


def best_fixed_price(v: Valuation, k: int):
    """``F^(k)`` as ``(value, price, winners)`` by scanning every subset."""
    value = v.value
    best = (0.0, 0.0, 0)
    for s in range(1, 1 << v.n):
        size = s.bit_count()
        if size < k:
            continue
        price = min(value(i, s) for i in _members(s))
        cand = (size * price, price, s)
        if _better(cand, best):
            best = cand
    return best


def best_fixed_price_sweep(v: Valuation, k: int) -> float:
    """``F^(k)`` by argmin deletion; exact for monotone bids, usable at large n."""
    value = v.value
    best = (0.0, 0.0, 0)
    t = (1 << v.n) - 1
    while t:
        low, arg = math.inf, -1
        for i in _members(t):
            x = value(i, t)
            if x < low:
                low, arg = x, i
        size = t.bit_count()
        if size >= k:
            cand = (size * low, low, t)
            if _better(cand, best):
                best = cand
        t &= ~(1 << arg)
    return best[0]


def pool_revenue(v: Valuation, pool: int, free: int) -> float:
    """Best uniform-price revenue from ``pool`` given ``free`` holds the good."""
    value = v.value
    best = (0.0, 0.0, 0)
    t = pool
    while t:
        union = free | t
        low, arg = math.inf, -1
        for i in _members(t):
            x = value(i, union)
            if x < low:
                low, arg = x, i
        cand = (t.bit_count() * low, low, t)
        if _better(cand, best):
            best = cand
        t &= ~(1 << arg)
    return best[0]


def auction_revenue(v: Valuation, a: int, b: int, c: int, memo: dict | None = None) -> float:
    """Revenue of the tripartition auction for one labeled partition."""

    def rev(pool, free):
        if memo is None:
            return pool_revenue(v, pool, free)
        key = (pool, free)
        if key not in memo:
            memo[key] = pool_revenue(v, pool, free)
        return memo[key]

    r_c = max(rev(c, a), rev(c, b)) if c else 0.0
    value = v.value
    s = b
    while s:
        share = r_c / s.bit_count()
        drop = 0
        for i in _members(s):
            if value(i, s | a) < share - EPS:
                drop |= 1 << i
        if not drop:
            break
        s &= ~drop
    if not s:
        return 0.0
    share = r_c / s.bit_count()
    return share * s.bit_count()


def _partitions(n: int):
    for labels in itertools.product(range(3), repeat=n):
        masks = [0, 0, 0]
        for i, lab in enumerate(labels):
            masks[lab] |= 1 << i
        yield masks


def expected_revenue(v: Valuation) -> float:
    memo: dict = {}
    total = 0.0
    for a, b, c in _partitions(v.n):
        total += auction_revenue(v, a, b, c, memo)
    return total / 3 ** v.n


def quarter_bound_counts(v: Valuation) -> tuple[int, int, int]:
    """(checked, skipped, failed) of ``r(C) >= r_F(C) / 4`` over all partitions."""
    value, price, winners = best_fixed_price(v, 3)
    checked = 3 ** v.n
    if value <= EPS:
        return checked, checked, 0
    memo: dict = {}
    failed = 0
    for a, b, c in _partitions(v.n):
        r_f_c = price * (winners & c).bit_count()
        r_c = 0.0
        if c:
            for free in (a, b):
                key = (c, free)
                if key not in memo:
                    memo[key] = pool_revenue(v, c, free)
            r_c = max(memo[(c, a)], memo[(c, b)])
        if not r_c >= r_f_c / 4 - EPS:
            failed += 1
    return checked, 0, failed


def min_box_expectation(m: int) -> Fraction:
    """``E[min(a, b, c)]`` for m items in three boxes, summed in integers."""
    total = 0
    for a in range(m + 1):
        ca = math.comb(m, a)
        for b in range(m - a + 1):
            total += ca * math.comb(m - a, b) * min(a, b, m - a - b)
    return Fraction(total, 3 ** m)


def low_tail(m: int) -> Fraction:
    """``Pr(X <= m // 9)`` for ``X ~ Binomial(m, 1/3)``."""
    return Fraction(sum(math.comb(m, j) * 2 ** (m - j) for j in range(m // 9 + 1)), 3 ** m)


def derive_seed(*parts) -> int:
    """The campaign seed-splitting rule: first 8 bytes of sha256 over '/'-joined parts."""
    return int.from_bytes(hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()[:8], "big")


def sampled_partition(n: int, seed: int) -> tuple[int, int, int]:
    rng = random.Random(seed)
    masks = [0, 0, 0]
    for i in range(n):
        masks[rng.randrange(3)] |= 1 << i
    return masks[0], masks[1], masks[2]


def campaign_row(name: str, seed: int, n: int, f3: float, revenues: list[float]) -> tuple:
    """One Monte-Carlo row as ``ratio_campaign`` reports it, minus the query column."""
    trials = len(revenues)
    mean = statistics.fmean(revenues)
    err = statistics.stdev(revenues) / math.sqrt(trials) if trials > 1 else 0.0
    ratio = math.inf if mean <= EPS else f3 / mean
    return (name, seed, n, f3, mean, err, ratio, trials, 10 * n * n)


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def campaign_rows(docs, names, seed: int, trials: int) -> list[tuple]:
    """Reference rows for the Monte-Carlo workload, from the instance documents."""
    rows = []
    for doc, name in zip(docs, names):
        v = Valuation(doc)
        f3 = best_fixed_price_sweep(v, 3)
        revenues = [
            auction_revenue(v, *sampled_partition(v.n, derive_seed("campaign", seed, name, t)))
            for t in range(trials)
        ]
        rows.append(campaign_row(name, seed, v.n, f3, revenues))
    return rows
