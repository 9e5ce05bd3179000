"""Auction mechanisms: fixed price, cost sharing, the tripartition auction,
RSOP, and the two-branch mixture for additive valuations.

All randomness flows through :class:`random.Random` seeded explicitly, so a
fixed ``(instance, seed)`` pair reproduces an identical outcome bit for bit.
Runs are pure given ``(profile, seed)`` and may execute in parallel; each run
counts its own value queries on a private oracle.  What runs share are
caches of immutable values, each fixed by what it is keyed on, so a run on
another thread can at worst find one replaced, or build it again, and read
equal values:

- :func:`main_mechanism`'s one-entry :func:`functools.lru_cache` of its last
  seeded tripartition (:func:`_seeded_partition`);
- a profile's degree view (``ValuationProfile._degree_view``), built on
  first use from the profile's own models and kept on the profile;
- the neighbour and in-neighbour masks of the last graph, a one-entry
  :func:`functools.lru_cache` (``valuations._graph_masks``) that the
  profiles of one graph share.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from .benchmark import (
    BenchmarkResult,
    _greedy_sweep,
    benchmark_bruteforce,
    classical_best_price,
    deletion_fixpoint,
    maximal_feasible_set,
)
from .sets import iter_members, mask_of, members, ternary_codes
from .valuations import EPS, EXHAUSTIVE_MAX_N, AdditiveModel, Oracle, ValuationProfile, as_oracle

#: documented best known competitive bound for RSOP, used as the default
#: mixing parameter of the additive-market mixture mechanism.
DEFAULT_ALPHA = 4.68


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


class Partition3(NamedTuple):
    """Labeled tripartition of the agents into disjoint masks A, B, C."""

    a: int
    b: int
    c: int

    @classmethod
    def sample(cls, n: int, rng: random.Random) -> "Partition3":
        """Uniform i.i.d. label per agent, drawn in agent order.

        Agent ``i`` gets label ``rng.randrange(3)``, and ``rng`` is left as
        ``n`` such calls leave it, bit for bit.  On a :class:`random.Random`
        that call is ``getrandbits(2)``, redrawn while it reads 3, and
        ``getrandbits(2)`` is the top two bits of the generator's next 32-bit
        word.  So the labels are drawn as words, in bulk: ``getrandbits(32 * m)``
        holds the next ``m`` words, the first in the lowest bits.  Each round
        draws one word per agent still unlabelled, the least ``randrange``
        could use, and a word whose top bits read 3 labels nobody.  Any
        other generator, a subclass included, is asked ``randrange(3)`` per
        agent.
        """
        if type(rng) is not random.Random:
            masks = [0, 0, 0]
            for i in range(n):
                masks[rng.randrange(3)] |= 1 << i
            return cls(*masks)
        labels = b""
        need = n
        while need:
            words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            drawn = words[3::4].translate(_LABEL_OF_TOP_BYTE, _TOP_BYTE_3)
            labels += drawn
            need -= len(drawn)
        digits = labels[::-1]  # agent 0's label last, as the lowest binary digit
        a = int(digits.translate(_A_DIGITS) or b"0", 2)
        b = int(digits.translate(_B_DIGITS) or b"0", 2)
        return cls(a, b, ((1 << n) - 1) ^ a ^ b)

    @classmethod
    def all_partitions(cls, n: int):
        """All 3^n labeled partitions, in ``itertools.product(range(3), repeat=n)``
        label order (agent 0's label changes slowest).

        Each partition joins a labeling of the first ``n // 2`` agents with a
        precomputed one of the rest, in :func:`_label_halves` order, so no
        per-partition loop over agents.  The ``3^n`` walk behind the exact
        expectation and the quarter bound, :func:`_partition_ledger`, joins
        the same halves without building a tuple per partition.
        """
        high, low = _label_halves(n)
        for a, b, c in high:
            for la, lb, lc in low:
                yield cls(a | la, b | lb, c | lc)


#: a word's top byte as the ASCII label its top two bits make, and the top
#: bytes whose bits read 3 (``0xC0`` and up), which ``randrange(3)`` redraws
_LABEL_OF_TOP_BYTE = bytes(ord("0") + (byte >> 6) for byte in range(256))
_TOP_BYTE_3 = bytes(range(0xC0, 0x100))
#: a label string as the binary digits of the A mask, and of the B mask
_A_DIGITS = bytes.maketrans(b"012", b"100")
_B_DIGITS = bytes.maketrans(b"012", b"010")


def _label_halves(n: int) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """``(high, low)``: the (A, B, C) masks of every labeling of agents ``0 .. n//2 - 1``,
    and of agents ``n//2 .. n-1``.

    Joining each ``high`` entry, in order, with each ``low`` entry, in order,
    by ``|`` walks the ``3^n`` labeled partitions in
    ``itertools.product(range(3), repeat=n)`` label order (agent 0's label
    changes slowest); :meth:`Partition3.all_partitions` and the ``3^n``
    walk of :func:`_partition_ledger` enumerate them that way.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    half = n // 2
    return _labelings(0, half), _labelings(half, n)


def _labelings(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(A, B, C) masks of every labeling of agents ``lo .. hi-1``, agent ``lo`` slowest."""
    out = [(0, 0, 0)]
    for i in range(lo, hi):
        bit = 1 << i
        out = [m for a, b, c in out for m in ((a | bit, b, c), (a, b | bit, c), (a, b, c | bit))]
    return out


def as_rng(rng_or_seed) -> random.Random:
    if isinstance(rng_or_seed, random.Random):
        return rng_or_seed
    return random.Random(rng_or_seed)


def fixed_price_mechanism(profile, c: float) -> Outcome:
    """Sell at the given uniform price to the maximal feasible set."""
    if not 0 <= c < math.inf:
        raise ValueError("price must be nonnegative and finite")
    oracle = as_oracle(profile)
    winners = maximal_feasible_set(oracle, c, oracle.full, 0)
    payments = {i: c for i in iter_members(winners)}
    return Outcome(winners, payments, c * winners.bit_count(), oracle.queries)


def _cost_share_survivors(oracle: Oracle, r: float, x: int, y: int) -> tuple[int, float]:
    """Survivors of the equal-share deletion loop on ``x`` given ``y`` free, and their share."""
    s = deletion_fixpoint(oracle, x, y, lambda size: r / size)
    return s, r / s.bit_count() if s else 0.0


def cost_share(profile, r: float, x: int, y: int) -> Outcome:
    """Extract exactly ``r`` from ``x`` (or nothing), splitting it equally.

    Agents in ``y`` are treated as already holding the good.  Whole rounds
    are deleted at a time and the share is recomputed per round.  The
    returned outcome covers ``x`` only; allocating ``y`` is the caller's
    business.
    """
    if x & y:
        raise ValueError("cost-share pool and free set must be disjoint")
    if not 0 <= r < math.inf:  # NaN fails every comparison
        raise ValueError("target revenue must be nonnegative and finite")
    oracle = as_oracle(profile)
    s, share = _cost_share_survivors(oracle, r, x, y)
    return Outcome(s, dict.fromkeys(iter_members(s), share), share * s.bit_count(), oracle.queries)


def testers_revenue(oracle: Oracle, part: Partition3) -> float:
    """``r(C)``: the best uniform-price revenue from C given A, or else B, holds the good.

    Two sweeps, ``r(C | A)`` and ``r(C | B)``, or one when A = B = {}; on a
    :class:`_Tabulated` oracle each step is read from the step memo, so a
    repeat costs no query.  The ``3^n`` walk reads the same values from
    :func:`revenue_table` instead.
    """
    a, b, c = part
    if not c:
        return 0.0
    r = _greedy_sweep(oracle, c, a, 1)[0]
    return r if a == b else max(r, _greedy_sweep(oracle, c, b, 1)[0])


class _Tabulated(Oracle):
    """The oracle of one ``3^n`` walk: it answers from the profile's value
    columns and remembers every sweep step.

    Built from a caller's oracle whose evaluators are the profile's own, it
    builds the profile's ``2^n`` value columns (``_columns``), one call of
    each bound evaluator per mask, and reads them as its evaluators; it
    keeps wrapped ones (a counted one, say) as they are, with ``_columns``
    ``None``.  The step memo holds one low (a ``list``, whose entries are
    the value columns' own floats) and one argmin (a ``bytearray``, 255 for
    unset) under the base-3 code of each ``(T, free)``, with ``tern`` the
    :func:`~extauction.sets.ternary_codes` of n: :meth:`argmin` computes,
    and counts as ``|T|`` queries, each step once, and :func:`revenue_table`
    fills the memo as its own state.  Value lookups outside sweeps still
    count one query each.  The memo takes ``9 * 3^n`` bytes (4.8 MB at
    n = 12); the fill's table and record array are :func:`revenue_table`'s.
    The exact path's one cap: it refuses n > 12 before it reads a value,
    and every exact caller reaches it first.
    """

    __slots__ = ("_columns", "tern", "_lows", "_args")

    def __init__(self, oracle: Oracle):
        p = oracle.profile
        if p.n > EXHAUSTIVE_MAX_N:
            raise ValueError(f"exact 3^n path rejected for n > {EXHAUSTIVE_MAX_N}")
        super().__init__(p)
        own = oracle._fns is p._fns
        masks = range(1 << p.n)
        self._columns = tuple(tuple(map(fn, masks)) for fn in p._fns) if own else None
        self._fns = tuple(col.__getitem__ for col in self._columns) if own else oracle._fns
        self.tern = ternary_codes(p.n)
        size = 3 ** p.n
        self._lows = [0.0] * size
        self._args = bytearray(b"\xff") * size

    def argmin(self, t: int, union: int) -> tuple[float, int]:
        """:meth:`Oracle.argmin`, read from the step memo when there: a repeat costs no query."""
        key = 2 * self.tern[union] - self.tern[t]
        arg = self._args[key]
        if arg != 255:
            return self._lows[key], arg
        low, arg = super().argmin(t, union)
        self._lows[key] = low
        self._args[key] = arg
        return low, arg


def revenue_table(oracle: _Tabulated) -> list[float]:
    """``r(pool | free)`` for all ``3^n`` disjoint pairs, at ``tern[pool] + 2 * tern[free]``.

    ``tern`` is ``oracle.tern``; an empty pool reads 0.0, and a non-empty one
    holds its sweep value ``_greedy_sweep(oracle, pool, free, 1)[0]``, bit
    for bit.  It fills a new ``list`` on each call and keeps none: its
    caller, :func:`_partition_ledger`, keeps its own result instead.

    The fill is a DP over pools in increasing mask order.  A sweep of
    ``pool`` takes its first step ``(low, arg)`` and then sweeps the tail
    ``pool - arg`` with the same free set, a pair already filled, so the
    pair's value comes from the tail's records and not from a new sweep.
    A pair's first record, the first step value its sweep takes, is its own
    step value ``|pool| * low`` (from the step memo) unless that is below
    ``-EPS``; only such a pair inherits its tail's first record, kept in a
    dict (none for a one-member pool).  Its second record (NaN for none or
    not known) is kept in a transient ``array('d')``.  With
    ``val = |pool| * low`` the sweep's left fold with EPS ties gives:

    - a tail whose value is at most ``val`` leaves ``val``: every entry is
      NaN or at least ``-EPS``, so such a ``val`` is a record;
    - ``val < -EPS`` takes no record, so the pair keeps its tail's value
      and records;
    - a tail with no record leaves ``val``;
    - a tail whose first record is above ``val + EPS``, or whose second is
      above ``val + EPS``, leaves the tail's value: the fold takes ``val``,
      then that record, and follows the tail from there.

    The tail's first record is read only past the first rule, and a pair
    that takes ``val`` there stores the one float object the table already
    holds for that value, unless ``val`` is a zero.  At n = 12
    (``gen_instance(m, 12, seed=1, graph="er")``, ``m`` graph-concave or
    linear) 405–511 distinct values filled the table: its ``8 * 3^n``
    bytes of slots and 25,757–26,546 floats of its own took 4.9 MB after
    the fill, and the fill peaked 9.1–9.2 MB above the memo, with the
    second records' ``8 * 3^n`` bytes and no inherited record
    (tracemalloc; with ``array('d')`` stores and a first-record array, 4.5
    and 13.0 MB).  Without the shared objects, one float per such pair
    (198,036–274,466) took the table to 9.0–10.8 MB.

    Reading the tail's second record ``s`` rests on an invariant of every
    known one: each step value of the pair's sweep before ``s`` is below
    ``s - EPS``, so a fold that took any of them still takes ``s``, and from
    there folds as the tail does.  Each rule that stores ``s`` keeps it:
    when ``s`` is the tail's first record, ``val`` and the tail's values
    before it (all below ``-EPS``) lie under it; when ``s`` is the tail's
    second, ``val`` lies under it and the tail's values do by induction; a
    copied chain adds only a ``val`` below ``-EPS``.  So a tail whose first
    record lies in ``(val, val + EPS]`` needs no sweep when its second is
    above ``val + EPS``.

    Any other case (a NaN, a tail's first record in ``(val, val + EPS]``
    with no second above ``val + EPS``) and every one-member pool, which
    has no tail, are swept by :func:`~extauction.benchmark._greedy_sweep`,
    whose steps are all memoised by then; a swept pair's second record is
    not known.

    Each step ``(pool, free)`` is computed once and stored: the stored step
    of ``pool`` minus its highest member ``top``, extended by one read of
    ``top``'s column (a one-member pool's step is that read alone), or,
    when the evaluators are wrapped, :meth:`_Tabulated.argmin`.  A step of
    two or more members is not looked up first, since on the fresh oracle
    :func:`_partition_ledger` builds none is stored yet; a one-member step
    already in the memo is read, so a second fill counts no query for it.
    Each step counts ``|pool|`` queries, so a fresh oracle spends exactly
    ``n * 3^(n-1)`` queries here, one per ``i`` in ``T`` over all disjoint
    ``(T, free)``.
    """
    tern, full, cols = oracle.tern, oracle.full, oracle._columns
    lows, args = oracle._lows, oracle._args
    size3 = 3 ** oracle.n
    pow3 = [3 ** i for i in range(oracle.n)]
    table = [0.0] * size3
    no_record, eps = -math.inf, EPS
    inherited = {}
    shared = {}
    second = array("d", [math.nan]) * size3
    for pool in range(1, full + 1):
        code = tern[pool]
        rest = full ^ pool
        free = rest
        size = pool.bit_count()
        top = pool.bit_length() - 1
        col = None if cols is None else cols[top]
        if size == 1:
            while True:
                key = code + 2 * tern[free]
                if col is not None and args[key] == 255:
                    lows[key] = col[pool | free]
                    args[key] = top
                    oracle.queries += 1
                table[key] = _greedy_sweep(oracle, pool, free, 1)[0]
                if not free:
                    break
                free = (free - 1) & rest
            continue
        shift = pow3[top]  # the key of (pool - top, free + top), less the key of (pool, free)
        tail_size = size - 1
        while True:
            key = code + 2 * tern[free]
            if col is not None:
                low = lows[key + shift]
                arg = args[key + shift]
                v = col[pool | free]
                if v < low:
                    low = v
                    arg = top
                lows[key] = low
                args[key] = arg
                oracle.queries += size
            else:
                low, arg = oracle.argmin(pool, pool | free)
            tail = key - pow3[arg]
            tb = table[tail]
            val = size * low
            if tb <= val:  # no entry is below -EPS (a NaN may be), so val is a record
                # Equal nonzero floats have equal bits, so they share one object
                # (a NaN equals only itself); 0.0 and -0.0 are equal keys.
                table[key] = shared.setdefault(val, val) if val else val
            else:
                # The tail's first record: its own step value, or, when that is
                # below -EPS, the one it inherited (none for a one-member tail).
                tf = tail_size * lows[tail]
                if tf < -eps:
                    tf = inherited.get(tail, no_record)
                if val < -eps:
                    table[key] = tb
                    if tf != no_record:
                        inherited[key] = tf
                    second[key] = second[tail]
                elif tf == no_record:
                    table[key] = val
                elif tf > val + eps:
                    table[key] = tb
                    second[key] = tf
                elif second[tail] > val + eps:
                    table[key] = tb
                    second[key] = second[tail]
                else:
                    table[key] = _greedy_sweep(oracle, pool, free, 1)[0]
            if not free:
                break
            free = (free - 1) & rest
    return table


def _run_partitioned(oracle: Oracle, part: Partition3, r_c: float) -> Outcome:
    """Deterministic core of the tripartition auction for a fixed partition,
    given ``r_c = r(C)``."""
    a, b, _ = part
    s, share = _cost_share_survivors(oracle, r_c, b, a) if b else (0, 0.0)
    payments = dict.fromkeys(iter_members(a), 0.0)
    for i in iter_members(s):
        payments[i] = share
    return Outcome(a | s, payments, share * s.bit_count(), oracle.queries)


def main_mechanism(profile, rng=0, partition: Partition3 | None = None) -> Outcome:
    """Tripartition auction: randomize agents into A (free), B (buyers), C (price testers).

    The best uniform-price revenue extractable from C -- given either A or B
    holding the good for free -- becomes the cost-sharing target charged to
    B; A wins for free, C never wins.  The partition depends only on the
    random source, never on bids, so for every fixed partition the run is a
    deterministic truthful mechanism.

    ``rng`` is a seed or a :class:`random.Random`; ``partition``, when given,
    replaces the draw and must partition the agents (else ``ValueError``).  A
    caller's generator is advanced exactly as :meth:`Partition3.sample` advances
    it.  An ``int`` seed draws ``Partition3.sample(n, random.Random(seed))``,
    and the last such draw is kept in a one-entry memo keyed by ``(n, seed)``:
    replaying one seed over many profiles of one size, as a deviation test does
    for the truthful run and every misreport, draws once.  Any other seed (a
    bool, a str, ``None``) builds its generator each run.
    """
    oracle = as_oracle(profile)
    if partition is not None:
        _check_partition(partition, oracle.full)
    elif type(rng) is int:
        partition = _seeded_partition(oracle.n, rng)
    else:
        partition = Partition3.sample(oracle.n, as_rng(rng))
    return _run_partitioned(oracle, partition, testers_revenue(oracle, partition))


def _check_partition(part: Partition3, full: int) -> None:
    """Raise ``ValueError`` unless ``part``'s masks are disjoint and their union is ``full``."""
    a, b, c = part
    if a & b or a & c or b & c or a | b | c != full:
        raise ValueError(f"{part!r} does not partition the {full.bit_length()} agents")


@functools.lru_cache(maxsize=1)
def _seeded_partition(n: int, seed: int) -> Partition3:
    """``Partition3.sample(n, random.Random(seed))``, read back while ``(n, seed)`` repeats.

    One entry only, so consecutive runs on one seed (a deviation test's
    truthful run and its misreports) share one draw, and nothing outlives
    the next seed.
    """
    return Partition3.sample(n, random.Random(seed))


def _quarter_floor(r_f_c: float) -> float:
    """The least ``r(C)`` that passes the quarter bound: ``r_F(C)/4``, less EPS."""
    return r_f_c / 4 - EPS


class Ledger(NamedTuple):
    """What one walk of the ``3^n`` partitions settles (:func:`_partition_ledger`).

    ``expected`` is the exact ``E[rev]``; ``checked``, ``skipped`` and
    ``failures`` are the quarter bound's counts and its failing partitions in
    :meth:`Partition3.all_partitions` order; ``optimum`` is the ``F^(3)``
    optimum the walk scanned.
    """

    expected: float
    checked: int
    skipped: int
    failures: tuple[Partition3, ...]
    optimum: BenchmarkResult


def _partition_ledger(oracle: Oracle) -> Ledger:
    """The :class:`Ledger` of one walk of the ``3^n`` partitions.

    The one entry to the exact path: it builds one :class:`_Tabulated`
    from ``oracle``, fills :func:`revenue_table` on it, then takes the
    ``F^(3)`` optimum, a :class:`~extauction.benchmark.BenchmarkResult`,
    from :func:`~extauction.benchmark.benchmark_bruteforce` on the same
    tabulated oracle, where every step of that subset scan is already
    stored and costs no query, and runs the fixpoints there too.  The
    walk's queries are added to ``oracle.queries`` and the result is kept
    in ``oracle.ledger``, while the tabulated oracle and the table are
    freed after the walk; a later call reads the ledger back and walks
    nothing.  The optimum is the one an exact caller reports
    (:func:`~extauction.experiments.revenue_guarantee_check`); another
    ``F^(k)`` scan on ``oracle`` costs what it costs on a fresh oracle.
    The table and the memo's lows are lists, read by int index, which
    CPython specialises for a ``list`` and not for an ``array``.  At n = 12
    the two, with the columns and the rest of the memo, held 10.2 MB
    during the walk (tracemalloc, on the instances :func:`revenue_table`
    cites), where ``array('d')`` stores held 10.1 MB.

    The partitions are walked as joined label halves, in
    :meth:`Partition3.all_partitions` order.  Each half-labelling carries
    its share of the three table keys, ``tern[C] + 2 tern[A]``,
    ``tern[C] + 2 tern[B]`` and ``tern[B] + 2 tern[A]``, of ``|B|`` and of
    ``|S* & C|``: all five add over the two disjoint halves, so a partition
    costs one addition per key.  Per partition ``r(C)``, the larger of
    ``r(C | A)`` and ``r(C | B)`` from :func:`revenue_table`, is read once
    and feeds both results:

    - the quarter bound checks it against ``r_F(C)/4 - EPS``
      (:func:`_quarter_floor`), and a ``Partition3`` is built only for a
      failure; with a zero benchmark every partition skips and none fails
      (``skipped == checked == 3^n``, ``failures == ()``);
    - the expectation adds B's payment, as
      :func:`main_mechanism_exact_expectation` states it.
    """
    ledger = oracle.ledger
    if ledger is not None:
        return ledger
    n = oracle.n
    tab = _Tabulated(oracle)
    table = revenue_table(tab)
    optimum = benchmark_bruteforce(tab, 3)
    quarter = not optimum.value <= EPS
    winners = optimum.winners
    floors = [_quarter_floor(optimum.price * m) for m in range(winners.bit_count() + 1)]
    tern, lows = tab.tern, tab._lows
    high, low = (
        [(a, b, c, tern[c] + 2 * tern[a], tern[c] + 2 * tern[b], tern[b] + 2 * tern[a],
          b.bit_count(), (winners & c).bit_count()) for a, b, c in half]
        for half in _label_halves(n)
    )
    slack, eps = n * n * EPS, EPS
    total = 0.0
    failures = []
    for ha, hb, hc, h_ca, h_cb, h_ba, h_k, h_w in high:
        for la, lb, lc, l_ca, l_cb, l_ba, l_k, l_w in low:
            r_c = table[h_ca + l_ca]
            r_cb = table[h_cb + l_cb]
            if r_cb > r_c:  # max(r(C|A), r(C|B)), as testers_revenue takes it
                r_c = r_cb
            if not r_c >= floors[h_w + l_w] and quarter:
                failures.append(Partition3(ha | la, hb | lb, hc | lc))
            k = h_k + l_k
            if not k or not r_c:
                continue
            key = h_ba + l_ba
            if r_c > 0 and table[key] < r_c - slack * (1.0 + r_c):
                continue
            share = r_c / k
            if lows[key] >= share - eps:  # B's first round drops nobody: B pays r(C)
                total += share * k
            else:
                part = Partition3(ha | la, hb | lb, hc | lc)
                total += _run_partitioned(tab, part, r_c).revenue
    oracle.queries += tab.queries
    checked = 3 ** n
    ledger = oracle.ledger = Ledger(
        total / checked, checked, 0 if quarter else checked, tuple(failures), optimum)
    return ledger


def main_mechanism_exact_expectation(profile) -> float:
    """Expected revenue of the tripartition auction, exactly.

    Averages the deterministic revenue over all ``3^n`` equally likely
    labeled partitions, in :meth:`Partition3.all_partitions` order;
    no sampling error, bit-reproducible.  Rejected for n > 12 by the
    walk's :class:`_Tabulated`.  A view of the oracle's partition ledger
    (:func:`_partition_ledger`), whose walk also settles the quarter bound,
    so after :func:`~extauction.experiments.quarter_bound_exhaustive` on
    the same oracle this reads the stored value and costs nothing.
    ``r(C | A)``, ``r(C | B)`` and ``r(B | A)`` are read from
    :func:`revenue_table`, so on a fresh oracle the queries are
    ``n * 3^(n-1)`` for the table plus those of the deletion fixpoints that
    the stored sweep step does not settle; a single run's ``10 n^2`` budget
    is not in play here.

    A partition that is not skipped (below) first reads B's sweep step
    ``(B, A)``, which the table's fill stores for every disjoint pair: its
    low is ``min_i b_i(A | B)`` over B's non-NaN bids, or NaN when B's
    lowest-id member bids NaN.  If ``low >= r/|B| - EPS``, the deletion
    loop's first round drops nobody, so B pays ``(r/|B|) * |B|``, the float
    expression :func:`_run_partitioned` computes, at no query.  A NaN low or
    ``r`` fails that test, and such a partition, like any whose first round
    drops someone, runs :func:`_run_partitioned` as a single run would.

    The deletion fixpoint runs only where B can pay.  A partition pays
    nothing, and is skipped, when B is empty, when ``r = r(C)`` is 0.0 or
    -0.0 (adding either leaves the sum as it is, since a sum that starts at
    0.0 is never -0.0), or when ``r > 0`` and B's own sweep value
    ``r(B | A)`` is under ``r - n^2 * EPS * (1 + r)``.

    Why that margin suffices: say the fixpoint keeps a non-empty ``S``,
    ``k = |S|``.  Each member of ``S`` bids at least ``r/k - EPS`` on
    ``A | S``.  Let ``T`` be the last set of B's sweep that contains ``S``
    (``t = |T| <= n - 1``, as C is non-empty).  The sweep deletes a member
    of ``S`` there, and a valid profile is monotone only up to EPS per
    added agent, so that step records
    ``t * low >= t * (r/k - (t - k + 1) * EPS) >= r - t * (t - k + 1) * EPS``.
    Each of the ``t`` steps from there on lowers the sweep's best by at
    most EPS (``_better`` takes ties within EPS), so
    ``r(B | A) >= r - t * (t - k + 2) * EPS >= r - n * (n - 1) * EPS``.
    Rounding in ``r/k``, ``bar - EPS``, ``t * low`` and the comparisons
    adds a few ulps of ``r`` per step: the relative term covers that, and
    an absolute margin alone does not (seven buyers bidding ``r/7`` with
    ``r = 6.5e10`` have ``r(B | A) = 7 * fl(r/7)``, 7.6e-6 under ``r``,
    and all seven pay).  A negative ``r``, which bids in ``[-EPS, 0)``
    make possible on a valid profile, is never skipped: B pays it.
    """
    return _partition_ledger(as_oracle(profile)).expected


def rsop(bids, rng=0, coins=None) -> Outcome:
    """Random sampling optimal price auction for plain (no-externality) bids.

    Each bidder is coin-flipped into one of two halves; each half is offered
    the other half's optimal uniform price.  An empty half prices the other
    at infinity (sells nothing).  ``coins`` may be supplied explicitly for
    deterministic replay, one int (or bool) 0 or 1 per bidder, else
    ``ValueError``; otherwise they come from the seeded generator.
    """
    bids = list(bids)
    n = len(bids)
    if coins is None:
        r = as_rng(rng)
        coins = [r.randrange(2) for _ in range(n)]
    elif len(coins) != n:
        raise ValueError("need one coin per bidder")
    elif not all(isinstance(c, int) and c in (0, 1) for c in coins):  # bools are ints
        raise ValueError("coins must be 0 or 1")
    prices = [classical_best_price([b for b, c in zip(bids, coins) if c == side])[1]
              for side in (0, 1)]
    payments = {}
    for i, side in enumerate(coins):
        offered = prices[1 - side]
        if not math.isinf(offered) and bids[i] >= offered - EPS:
            payments[i] = offered
    return Outcome(mask_of(payments), payments, sum(payments.values()), 0)


def _require_alpha(alpha: float):
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")


def require_additive(profile: ValuationProfile):
    """Refuse a profile unless every agent is an :class:`AdditiveModel`."""
    if not all(isinstance(m, AdditiveModel) for m in profile.models):
        raise ValueError("mechanism2 requires an additive profile")


def public_weight_vector(profile: ValuationProfile, s: int) -> list[float]:
    """Public additive weights ``w_i(S)`` of an additive profile, each weight
    bound to its agent's neighbours on every call."""
    require_additive(profile)
    pairs = enumerate(zip(profile.models, profile.neighbor_masks))
    return [m.weight.bind(i, nb)(s) for i, (m, nb) in pairs]


def mechanism2(profile, alpha: float = DEFAULT_ALPHA, m0=rsop, rng=0) -> Outcome:
    """Two-branch mixture for additive valuations ``v_i = t_i + w_i(S)``.

    With probability ``1/(1+alpha)``: everyone wins and pays the public
    ``w_i([n])`` (their threshold payment under an always-win rule).  With
    probability ``alpha/(1+alpha)``: the classical mechanism ``m0`` runs on
    the private bids ``t``, and winners pay its classical threshold price
    plus ``w_i`` of the allocated set.
    """
    _require_alpha(alpha)
    require_additive(profile)
    r = as_rng(rng)
    if r.random() < 1.0 / (1.0 + alpha):
        w_full = public_weight_vector(profile, profile.full)
        payments = {i: w_full[i] for i in range(profile.n)}
        return Outcome(profile.full, payments, sum(w_full), 0)
    t_bids = [m.t for m in profile.models]
    classical = m0(t_bids, r)
    w = public_weight_vector(profile, classical.winners)
    payments = {i: classical.payment(i) + w[i] for i in iter_members(classical.winners)}
    return Outcome(classical.winners, payments, sum(payments.values()), classical.queries_used)


def mechanism2_expected_revenue(profile, alpha: float, m0_expected_revenue: float) -> float:
    """Exact two-branch expectation given the classical branch's expected revenue."""
    _require_alpha(alpha)
    w_total = sum(public_weight_vector(profile, profile.full))
    p1 = 1.0 / (1.0 + alpha)
    return p1 * w_total + (1.0 - p1) * m0_expected_revenue
