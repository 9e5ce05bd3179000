"""Agent valuation models, the query-counted bid oracle, and validity checks.

An instance has ``n`` agents; agent ``i`` holds a set-valued valuation
``v_i(S)`` over winner sets ``S`` (bitmasks, see :mod:`extauction.sets`).
Every model enforces the domain conditions by construction:

  1. finite, nonnegative values,
  2. ``v_i(S) = 0`` whenever ``i`` is not in ``S``,
  3. monotonicity in ``S`` and subadditivity (``v_i(S | R) <= v_i(S) + v_i(R)``
     for ``i`` in both sets), or the L-relaxed variant thereof.

Profiles are immutable once built and safe to share; the only mutable state
(the query counter and the partition ledger) lives on a per-run
:class:`Oracle`, and the ``2^n`` value columns and the sweep-step memo of the
exact path on the oracle its ``3^n`` walk builds and frees
(:class:`~extauction.mechanisms._Tabulated`).  A profile only caches, on
its first sweep or deletion round of a large pool, a view of its own tables
(:meth:`ValuationProfile._degree_view`), the same whichever run builds it, with
masks kept for the last graph (:func:`_graph_masks`).
The exhaustive paths (n <= 12) read each agent's values from one table
instead of calling the model once per lookup, and each builds its own
behind its own cap: the checker one agent's at a time through
:meth:`ValuationProfile.value`, when :func:`_resolve_mode` picks the
exhaustive scan (it samples past n = 12), and the exact walk all of them,
past the refusal in :class:`~extauction.mechanisms._Tabulated`.

Every parametric model reads the winner set only through
``k = |S & N(i) \\ {i}|``.  Unless a weight is a table, binding such an agent
fills one tuple of its ``|N(i) \\ {i}| + 1`` values, each the model's own float
expression at ``k``, and a value query is one lookup in it: the same floats,
``-0.0`` included, with no shape or weight call per query.  The exhaustive
checker decides such an agent from that tuple in O(d^2) comparisons, ``d``
its neighbour count (:func:`_degree_table_holds`).  It decides any other agent
(a table model, or a model whose weight is a table) from its ``2^n`` column,
read through cached ``itemgetter`` gathers in plain ``zip`` loops, in stages,
the cheapest first: ``nonzero_outside``, then ``negative`` and ``nonfinite``,
then the one-step ``monotonicity`` pairs, then ``subadditivity`` on the
unordered splits, half the scan's ``3^(n-1)`` pairs (:func:`_column_holds`;
its caches hold about 0.4 MB at n = 10 and 2.9 MB at n = 12).  Either way it
walks the witness triples of an agent only when a test fails, so the
violations and their order are the walk's.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .sets import full_mask, iter_members, mask_of, members

EPS = 1e-9

#: shape functions for parametric weights; all are increasing, subadditive,
#: and zero at zero, which keeps every built-in model monotone subadditive.
SHAPES: dict[str, Callable[[int], float]] = {
    "linear": float,
    "sqrt": math.sqrt,
}


# ---------------------------------------------------------------------------
# explicit tables, and the public weights w_i(S) of the single-parameter models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableModel:
    """Explicit per-set table, serving as a valuation or as a weight.

    Keys are masks of sets containing the agent; unlisted sets are worth 0.
    The model keeps its own ``dict`` copy of ``values``, made once at
    construction, so editing the mapping passed in changes neither the model
    nor a profile built from it; ``bind`` copies nothing and reads that dict.
    """

    values: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def bind(self, i: int, neighbor_mask: int) -> Callable[[int], float]:
        get = self.values.get
        bit = 1 << i
        return lambda s: get(s, 0.0) if s & bit else 0.0


#: a table weight is the same per-set table
TableWeight = TableModel


@dataclass(frozen=True)
class DegreeWeight:
    """``w_i(S) = base + scale * shape(|S & N(i) \\ {i}|)`` for ``i`` in ``S``.

    ``base, scale >= 0`` and a subadditive shape keep it monotone subadditive.
    """

    base: float = 1.0
    scale: float = 1.0
    shape: str = "linear"

    def bind(self, i: int, neighbor_mask: int) -> Callable[[int], float]:
        f = SHAPES[self.shape]
        base, scale = self.base, self.scale
        nb = neighbor_mask & ~(1 << i)
        bit = 1 << i
        return lambda s: base + scale * f((s & nb).bit_count()) if s & bit else 0.0

    def on(self, ks: range) -> list[float]:
        """``w(k)`` for each ``k`` of ``ks``, the weight on a set holding ``k`` of
        the agent's neighbours."""
        f = SHAPES[self.shape]
        base, scale = self.base, self.scale
        return [base + scale * f(k) for k in ks]


Weight = Union[TableModel, DegreeWeight]


def _bind_by_degree(
    i: int, neighbor_mask: int, fill: Callable[[range], Sequence[float]]
) -> Callable[[int], float]:
    """Agent ``i``'s value function when ``v_i(S) = g[|S & N(i) \\ {i}|]`` for ``i`` in ``S``.

    ``fill`` is called here once, on ``ks = range(|N(i) \\ {i}| + 1)``, and
    returns ``g``: one float per ``k`` of ``ks``, each the model's own
    expression at ``k``.  A value query is one lookup in ``g``, and the
    checker reads the same tuple (:func:`_degree_table`).
    """
    nb = neighbor_mask & ~(1 << i)
    bit = 1 << i
    g = tuple(fill(range(nb.bit_count() + 1)))
    if len(g) != nb.bit_count() + 1:
        raise ValueError(f"agent {i} has {nb.bit_count()} neighbours but {len(g)} degree values")
    return lambda s: g[(s & nb).bit_count()] if s & bit else 0.0


_DEGREE_CODE = _bind_by_degree(0, 0, lambda ks: [0.0]).__code__
_G_CELL = _DEGREE_CODE.co_freevars.index("g")


def _degree_table(fn: Callable[[int], float]) -> tuple[float, ...] | None:
    """The tuple ``fn`` reads if :func:`_bind_by_degree` made it, else ``None``
    (a wrapper has other code, so it has none).

    Read from ``fn``'s closure, so that binding and ``replace`` pay nothing
    for it.
    """
    if getattr(fn, "__code__", None) is not _DEGREE_CODE:
        return None
    return fn.__closure__[_G_CELL].cell_contents


# ---------------------------------------------------------------------------
# per-agent valuation models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdditiveModel:
    """``v_i(t, S) = t + w_i(S)``; private ``t``, public weight ``w``."""

    t: float
    weight: Weight

    def bind(self, i, neighbor_mask):
        t = self.t
        if isinstance(self.weight, DegreeWeight):
            w = self.weight.on
            return _bind_by_degree(i, neighbor_mask, lambda ks: [t + x for x in w(ks)])
        wf = self.weight.bind(i, neighbor_mask)
        bit = 1 << i
        return lambda s: t + wf(s) if s & bit else 0.0


@dataclass(frozen=True)
class ScalarModel:
    """``v_i(t, S) = t * w_i(S)``."""

    t: float
    weight: Weight

    def bind(self, i, neighbor_mask):
        t = self.t
        if isinstance(self.weight, DegreeWeight):
            w = self.weight.on
            return _bind_by_degree(i, neighbor_mask, lambda ks: [t * x for x in w(ks)])
        wf = self.weight.bind(i, neighbor_mask)
        bit = 1 << i
        return lambda s: t * wf(s) if s & bit else 0.0


@dataclass(frozen=True)
class LinearModel:
    """``v_i(t, S) = t * w_i(S) + w'_i(S)``."""

    t: float
    weight: Weight
    offset: Weight

    def bind(self, i, neighbor_mask):
        t = self.t
        if isinstance(self.weight, DegreeWeight) and isinstance(self.offset, DegreeWeight):
            w, o = self.weight.on, self.offset.on
            return _bind_by_degree(
                i, neighbor_mask, lambda ks: [t * x + y for x, y in zip(w(ks), o(ks))])
        wf = self.weight.bind(i, neighbor_mask)
        of = self.offset.bind(i, neighbor_mask)
        bit = 1 << i
        return lambda s: t * wf(s) + of(s) if s & bit else 0.0


@dataclass(frozen=True)
class GraphConcaveModel:
    """Concave social-influence valuation on the agent graph, ``N(i)`` the list of ``i``.

    ``v_i(S) = t * (1 + beta * f(|N(i) & S \\ {i}|))`` for ``i`` in ``S``,
    with ``f`` concave increasing and ``f(0) = 0`` (default square root).
    The ``+1`` base term guarantees ``v_i({i}) = t > 0`` whenever ``t > 0``.
    This family is a concrete invention for experiments, not one of the
    standard additive/scalar/linear trio.
    """

    t: float
    beta: float = 1.0
    shape: str = "sqrt"

    def bind(self, i, neighbor_mask):
        t, beta = self.t, self.beta
        f = SHAPES[self.shape]
        return _bind_by_degree(
            i, neighbor_mask, lambda ks: [t * (1.0 + beta * f(k)) for k in ks])


Model = Union[TableModel, AdditiveModel, ScalarModel, LinearModel, GraphConcaveModel]

TABLE_MODEL_MAX_N = 10
EXHAUSTIVE_MAX_N = 12


def _check_agent(i: int, n: int, model: Model, neighbors) -> None:
    """Raise ``ValueError`` unless agent ``i`` of ``n`` fits a file: ``model`` has a
    callable ``bind`` and is not a :class:`DegreeWeight` (a weight, which no file names
    as a model), ``neighbors`` are ``int`` ids in ``range(n)`` (``i`` may be one), a
    table model needs n <= 10, a ``weight`` or ``offset`` is a :class:`DegreeWeight` or
    a :class:`TableModel`, each key of a table model, weight or offset is a mask below
    ``2^n`` holding ``i``, ``t``, ``beta``, ``base`` and ``scale`` are ``int`` or
    ``float``, not ``bool``, and a ``shape`` is a key of :data:`SHAPES`.  A model with
    none of these fields, only a ``bind``, passes."""
    if isinstance(model, DegreeWeight) or not callable(getattr(model, "bind", None)):
        raise ValueError(f"agent {i}: not a valuation model: {model!r}")
    for j in neighbors:
        if type(j) is not int or not 0 <= j < n:  # a bool is not an id
            raise ValueError(f"bad neighbor {j!r} of agent {i}")
    if isinstance(model, TableModel) and n > TABLE_MODEL_MAX_N:
        raise ValueError(f"table models are capped at n <= {TABLE_MODEL_MAX_N}")
    full, bit = 1 << n, 1 << i
    parts = [model]
    for name in ("weight", "offset"):
        w = getattr(model, name, parts)
        if w is not parts:  # the model has the field
            if type(w) is not DegreeWeight and type(w) is not TableModel:  # what a file names
                raise ValueError(f"agent {i}: {name} must be a DegreeWeight or a table, got {w!r}")
            parts.append(w)
    for part in parts:
        if isinstance(part, TableModel):
            try:
                for k in part.values:
                    if not (0 <= k < full and k & bit):
                        break
                else:
                    continue
            except TypeError:  # a key the chain cannot compare or mask: a str, a float, None
                pass
            raise ValueError(f"agent {i}: table key {k!r} is not a mask below 2^{n} "
                             f"that holds agent {i}")
        else:
            for name in ("t", "beta", "base", "scale"):
                x = getattr(part, name, 0.0)
                if type(x) is not float and type(x) is not int:  # a bool is not a number
                    raise ValueError(f"agent {i}: {name} must be a number, got {x!r}")
            shape = getattr(part, "shape", "linear")
            if type(shape) is not str or shape not in SHAPES:  # a list is unhashable
                raise ValueError(f"agent {i}: shape must be one of {sorted(SHAPES)}, got {shape!r}")


@functools.lru_cache(maxsize=1)
def _graph_masks(neighbor_masks: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(nbs, in_nbs)`` of a :class:`DegreeView` on ``neighbor_masks`` as given (directed, or
    naming the agent), kept while the graph repeats, as it does across ``replace``."""
    nbs = tuple(m & ~(1 << i) for i, m in enumerate(neighbor_masks))
    in_nbs = [0] * len(nbs)
    for i, nb in enumerate(nbs):
        for j in iter_members(nb):
            in_nbs[j] |= 1 << i
    return nbs, tuple(in_nbs)


class DegreeView(NamedTuple):
    """A profile's per-degree tables with the masks that index them.

    ``tables[i]`` is agent ``i``'s :func:`_degree_table` (``None`` for an
    agent without one) and ``mask`` the agents whose table is NaN-free: a
    NaN, or both infinities, whose sum is NaN too, would break the degree
    loops' order, so an agent whose table holds one is left out, like an
    agent without a table.  ``nbs[i]`` is ``N(i) \\ {i}``, so
    ``v_i(S) = tables[i][|S & nbs[i]|]`` for ``i`` in ``mask`` and in ``S``, and
    ``in_nbs[j]`` holds every ``i`` with ``j`` in ``nbs[i]``: the agents whose
    count drops when ``j`` leaves a set.
    """

    mask: int
    tables: tuple[tuple[float, ...] | None, ...]
    nbs: tuple[int, ...]
    in_nbs: tuple[int, ...]


class ValuationProfile:
    """Immutable collection of per-agent valuation models.

    ``graph`` is an optional adjacency list (used by degree weights and
    graph-concave models); absent, the complete graph is assumed.

    A profile neither builds nor keeps a table of an agent's values over all
    ``2^n`` masks: each exhaustive path builds its own behind its own n <= 12
    cap (the exact path's tabulated oracle,
    :class:`~extauction.mechanisms._Tabulated`, from the bound evaluators, or
    the checker for one agent's scan, through :meth:`value`).  What it does
    keep is each parametric agent's per-degree table, ``v_i`` at every
    ``k = 0 .. |N(i) \\ {i}|``: ``sum_i (|N(i) \\ {i}| + 1)`` floats at most,
    ``n^2`` on the complete graph (16,384 at n = 128).  Agents with a table
    model or a table weight keep their closures instead.  The first sweep or deletion round of a
    large pool reads those tables into a :class:`DegreeView` that the profile then keeps
    (:meth:`_degree_view`), with the neighbour and in-neighbour masks computed once per
    graph; building a profile computes none of it.

    Its structure is checked when built, so that it saves to a file the loader
    reads (:func:`_check_agent`; ``declared_L`` finite and >= 1 if given), and a
    graph may be directed; the valuation conditions are not.  On one that fails
    :func:`check_conditions`, the output of the benchmarks and mechanisms is
    unspecified.  The loader, the CLI and ``gen_instance`` run that check;
    code that builds a profile by hand runs it first.
    """

    def __init__(self, models: Sequence[Model], graph=None, declared_L: float | None = None):
        if not models:
            raise ValueError("empty market: need at least one agent")
        self.n = len(models)
        self.models = tuple(models)
        self.full = full_mask(self.n)
        if graph is not None and len(graph) != self.n:
            raise ValueError("adjacency list length does not match agent count")
        for i, m in enumerate(self.models):
            _check_agent(i, self.n, m, () if graph is None else graph[i])
        if declared_L is not None and not 1 <= declared_L < math.inf:  # NaN too
            raise ValueError(f"declared_L must be a finite number >= 1, got {declared_L!r}")
        self.graph = None if graph is None else tuple(tuple(sorted(nb)) for nb in graph)
        if self.graph is None:
            self.neighbor_masks = tuple(self.full for _ in range(self.n))
        else:
            self.neighbor_masks = tuple(mask_of(nb) for nb in self.graph)
        self._fns = tuple(
            [m.bind(i, nb) for i, (m, nb) in enumerate(zip(self.models, self.neighbor_masks))])
        self.declared_L = declared_L
        self._sweep_view: DegreeView | None = None

    def value(self, i: int, s: int) -> float:
        """Pure, uncounted ``v_i(S)``; ``s`` is a bitmask."""
        return self._fns[i](s)

    def oracle(self) -> "Oracle":
        return Oracle(self)

    def replace(self, i: int, model: Model) -> "ValuationProfile":
        """New profile where agent ``i`` reports ``model`` instead.

        Only agent ``i`` is bound anew, once ``model`` passes :func:`_check_agent`
        as in the constructor; its degree view is built when first needed.  The graph,
        the neighbour masks and the other agents' value functions are shared with this
        profile, which is safe because profiles are immutable and bound functions are pure.
        """
        i = range(self.n)[i]
        _check_agent(i, self.n, model, ())
        fn = model.bind(i, self.neighbor_masks[i])
        cls = type(self)
        new = cls.__new__(cls)
        new.__dict__.update(self.__dict__)
        new.models = (*self.models[:i], model, *self.models[i + 1:])
        new._fns = (*self._fns[:i], fn, *self._fns[i + 1:])
        new._sweep_view = None
        return new

    def _degree_view(self) -> DegreeView:
        """The per-degree tables and neighbour masks behind the incremental sweep and
        deletion rounds, built on the first call and kept, so a profile that never sweeps
        or deletes from a large pool pays nothing for it.  The tables are this profile's
        own, each summed once for the mask, which keeps those without a NaN; the masks
        (:func:`_graph_masks`) are computed once per graph.
        """
        view = self._sweep_view
        if view is None:
            tables = tuple(map(_degree_table, self._fns))
            mask = mask_of(i for i, g in enumerate(tables)
                           if g is not None and not math.isnan(sum(g)))
            view = self._sweep_view = DegreeView(mask, tables, *_graph_masks(self.neighbor_masks))
        return view

    def __repr__(self):
        kinds = ",".join(type(m).__name__ for m in self.models)
        return f"ValuationProfile(n={self.n}, models=[{kinds}])"


class Oracle:
    """Query-counted view of a profile; one per mechanism run.

    It holds the run's mutable state, the value-query count ``queries``, so
    profiles stay shareable across threads and runs: concurrent runs each
    hold their own.  ``ledger``, once
    :func:`~extauction.mechanisms._partition_ledger` has walked the ``3^n``
    partitions, holds its :class:`~extauction.mechanisms.Ledger`: the exact
    expectation, the quarter bound's counts with its failing partitions as a
    tuple, and the ``F^(3)`` optimum the walk scanned, each read by name, so
    the second of the two views, and the ``F^(3)`` that
    :func:`~extauction.experiments.revenue_guarantee_check` reports, read
    them and walk nothing.  The walk runs on a tabulated oracle of its own
    (:class:`~extauction.mechanisms._Tabulated`: the value columns and the
    sweep-step memo), adds that oracle's queries here, and frees it.

    ``queries`` counts logical queries: ``|T|`` per sweep step on ``T`` and
    per deletion round, one per other lookup.  A pool of more than 12
    members, disjoint from the free set, each with a degree table that holds
    no NaN, is swept (:func:`~extauction.benchmark._greedy_sweep`) and
    deleted from (:func:`~extauction.benchmark.deletion_fixpoint`) on
    neighbour counts read from the profile's tables; a sweep of a sparse
    such pool steps from its members' sorted ``(value, id)`` pairs, taking
    the member :meth:`argmin` would.  Those paths add the same ``|T|`` per
    step and per round, the last round that drops nobody included, without
    calling an evaluator, so a single run keeps within its ``10 n^2`` budget
    whichever path it takes.  Any other pool, one holding a NaN table
    included, steps through :meth:`argmin` and :meth:`below`, one evaluator
    call per query; they define what a NaN does.  The gate reads the
    profile's tables whatever this oracle's evaluators are; in the package
    only the exact path's tabulated oracle has others, and it holds at most
    12 agents.
    """

    __slots__ = ("profile", "n", "full", "queries", "_fns", "ledger")

    def __init__(self, profile: ValuationProfile):
        self.profile = profile
        self.n = profile.n
        self.full = profile.full
        self._fns = profile._fns
        self.queries = 0
        self.ledger: tuple | None = None  # a mechanisms.Ledger once walked

    def value(self, i: int, s: int) -> float:
        self.queries += 1
        return self._fns[i](s)

    def argmin(self, t: int, union: int) -> tuple[float, int]:
        """``(v_i(union), i)`` for the member ``i`` of non-empty ``t`` bidding least,
        ties to the smallest ``i`` (so the first member when every bid is inf or
        NaN): one sweep step, counted as ``|t|`` queries.  ``t`` lies inside
        ``union``."""
        self.queries += t.bit_count()
        fns = self._fns
        it = iter_members(t)
        arg = next(it)
        low = fns[arg](union)
        for i in it:
            v = fns[i](union)
            if v < low:
                low = v
                arg = i
        return low, arg

    def below(self, t: int, union: int, bar: float) -> int:
        """Mask of the members ``i`` of ``t`` with ``v_i(union) < bar``: one
        deletion round, counted as ``|t|`` queries."""
        self.queries += t.bit_count()
        fns = self._fns
        drop = 0
        for i in iter_members(t):
            if fns[i](union) < bar:
                drop |= 1 << i
        return drop


def as_oracle(profile_or_oracle) -> Oracle:
    if isinstance(profile_or_oracle, Oracle):
        return profile_or_oracle
    return profile_or_oracle.oracle()


# ---------------------------------------------------------------------------
# condition checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One failed inequality, with the witness triple and both sides."""

    kind: str  # negative | nonfinite | nonzero_outside | monotonicity | subadditivity
    agent: int
    sets: tuple[int, ...]  # witness masks
    lhs: float
    rhs: float

    def describe(self) -> str:
        sets = " ".join(str(set(members(m)) or "{}") for m in self.sets)
        return f"{self.kind}: agent {self.agent}, sets {sets}, {self.lhs:.12g} vs {self.rhs:.12g}"


def _resolve_mode(n: int, mode: str) -> str:
    """The checker's scan for ``mode`` at size ``n``: ``"sampled"`` when asked for or
    past n = 12, ``"exhaustive"`` otherwise, so no size is refused.

    Only ``"auto"`` and ``"sampled"`` are modes; ``"exhaustive"`` names a scan
    and raises like any unknown string.
    """
    if mode not in ("auto", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    return "sampled" if mode == "sampled" or n > EXHAUSTIVE_MAX_N else "exhaustive"


def _degree_table_holds(g: tuple[float, ...]) -> bool:
    """Whether no witness of the exhaustive scan fails on an agent bound to degree table ``g``.

    On sets holding ``i`` the agent's value is ``g[k]``, ``k`` its neighbours
    in the set, and each test below is the scan's own comparison on those
    floats, so ``True`` means the scan would yield nothing for this agent:
    ``nonzero_outside`` never fails (the value off the agent's sets is a
    literal ``0.0``); ``negative``/``nonfinite`` fail on ``g[k]``;
    ``monotonicity`` steps to ``g[k + 1]`` (a step to a non-neighbour compares
    ``x > x + EPS``, False for every float); a reduced subadditivity pair,
    ``i`` plus one of two disjoint sets holding ``a`` and ``b`` neighbours,
    compares ``g[a + b]`` with ``g[a] + g[b]``.  Entries no mask reaches are tested
    too, which can only send the agent to the scan.  O(d^2) for ``d + 1``
    entries.
    """
    d = len(g) - 1
    for a, x in enumerate(g):
        if x < -EPS or not x < math.inf or (a < d and x > g[a + 1] + EPS):
            return False
        for b in range(d - a + 1):
            if g[a + b] > x + g[b] + EPS:
                return False
    return True


def _gather(keys: Sequence[int]) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """``seq -> tuple(seq[k] for k in keys)``: an ``itemgetter``, which returns a bare
    item, not a tuple, for one key and takes no zero keys, so those two are wrapped."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda seq: tuple([seq[k] for k in keys])


@functools.cache
def _masks(n: int) -> tuple[int, ...]:
    """``0 .. 2^n - 1``, one int object each, shared by the gathers' keys at ``n``."""
    return tuple(range(1 << n))


@functools.cache
def _agent_gathers(n: int, i: int):
    """``(outside, inside)``: the gathers of a ``2^n`` column at the masks without
    agent ``i`` and at those with it, each in ascending order, so ``inside`` reads
    ``v_i`` on ``sub | {i}`` at index ``c``, ``sub`` the ``c``-th submask of the others
    (bit ``i`` squeezed out of ``c``)."""
    bit = 1 << i
    masks = _masks(n)
    return (_gather([s for s in masks if not s & bit]), _gather([s for s in masks if s & bit]))


@functools.cache
def _step_gathers(m: int):
    """``(low, up)``: the gathers of a ``2^m`` tuple at every one-step pair
    ``(c, c | 1 << j)``, ``j`` not in ``c``, ``m * 2^(m-1)`` of them."""
    ids = _masks(m)
    pairs = [(c, ids[c | 1 << j]) for c in ids for j in range(m) if not c >> j & 1]
    return _gather([a for a, _ in pairs]), _gather([b for _, b in pairs])


@functools.cache
def _split_gathers(m: int):
    """``(whole, part, rest)``: the gathers of a ``2^m`` tuple at every unordered split
    ``(u, x, y)``, ``x | y = u``, ``x & y = 0``, ``x >= y``: ``(3^m + 1) / 2`` of them."""
    ids = _masks(m)
    splits = []
    for u in ids:
        x = u
        while x >= u ^ x:  # descending x, ascending y = u ^ x; x = y only at u = 0
            splits.append((u, ids[x], ids[u ^ x]))
            if not x:
                break
            x = (x - 1) & u
    return tuple(_gather([t[k] for t in splits]) for k in range(3))


def _column_holds(v: Sequence[float], n: int, i: int) -> bool:
    """Whether no witness of the exhaustive scan fails on agent ``i`` of ``n`` with column ``v``.

    ``v[s]`` is ``v_i(S)`` at every mask below ``2^n``.  Each test below is the
    scan's own float expression on the same values, so ``True`` means the scan
    would yield nothing for this agent; the cheapest run first, and the first
    that fails stops it:
    ``nonzero_outside`` (``not abs(x) <= EPS``) on the masks without ``i``;
    ``negative``/``nonfinite`` (``x < -EPS``, ``not x < inf``) on those with it;
    ``monotonicity`` (``a > b + EPS``) on each one-step pair of those; and
    ``subadditivity`` (``u > a + b + EPS``) on each unordered split of the others
    into ``x`` and ``y``, ``i`` added to ``u = x | y``, ``x`` and ``y``: the scan
    tests each split twice, as ``(x, y)`` and ``(y, x)``, and IEEE addition
    commutes, so half of its ``3^(n-1)`` pairs decide it.

    The values are read through ``itemgetter`` gathers kept per ``(n, i)`` and
    per ``m = n - 1`` (:func:`_agent_gathers`, :func:`_step_gathers`,
    :func:`_split_gathers`), each built on first use, the split gathers only
    once an agent reaches that stage; no index list is built per call.  The
    caches hold about 0.4 MB at n = 10 (0.65 MB for every n <= 10) and 2.9 MB
    at n = 12, most of it the split gathers.
    """
    outside, inside = _agent_gathers(n, i)
    for x in outside(v):
        if not abs(x) <= EPS:  # NaN too
            return False
    w = inside(v)
    for x in w:
        if x < -EPS or not x < math.inf:
            return False
    low, up = _step_gathers(n - 1)
    for a, b in zip(low(w), up(w)):
        if a > b + EPS:
            return False
    whole, part, rest = _split_gathers(n - 1)
    for u, a, b in zip(whole(w), part(w), rest(w)):
        if u > a + b + EPS:
            return False
    return True  # no witness of the scan fails


def _violations(profile: ValuationProfile, mode: str, samples: int, seed: int):
    """Every violation of conditions 1-3, lazily, in scan order (``mode`` already resolved).

    The one walk over witness triples: :func:`check_conditions` stops it at
    its cap and :func:`estimate_L` reads its subadditivity witnesses.  The
    exhaustive scan first tries to certify each agent: an agent bound to a
    degree table from that table (:func:`_degree_table_holds`), any other
    from its ``2^n`` column (:func:`_column_holds`: ``nonzero_outside``, then
    ``negative``/``nonfinite``, ``monotonicity`` and ``subadditivity``, with
    gather caches of about 0.4 MB at n = 10 and 2.9 MB at n = 12).  It walks
    only an agent that does not certify.
    """
    n = profile.n
    fullm = profile.full
    if mode == "exhaustive":
        nmasks = 1 << n
        value = profile.value
        for i in range(n):
            g = _degree_table(profile._fns[i])
            if g is not None and _degree_table_holds(g):
                continue
            v = tuple([value(i, s) for s in range(nmasks)])
            if _column_holds(v, n, i):
                continue
            bit = 1 << i
            for s in range(nmasks):
                val = v[s]
                if not s & bit:
                    if not abs(val) <= EPS:  # NaN too
                        yield Violation("nonzero_outside", i, (s,), val, 0.0)
                    continue
                if val < -EPS:
                    yield Violation("negative", i, (s,), val, 0.0)
                elif not val < math.inf:  # NaN or +inf
                    yield Violation("nonfinite", i, (s,), val, 0.0)
                # single-element monotonicity steps imply the full condition
                for j in iter_members(fullm ^ s):
                    up = v[s | 1 << j]
                    if val > up + EPS:
                        yield Violation("monotonicity", i, (s, s | 1 << j), val, up)
            # Subadditivity witnesses (S, R) with i in both.  Given
            # monotonicity it suffices to check R = (U \ S) | {i} for every
            # U containing S: any other R' with S | R' = U has R' >= R, so
            # v(R') >= v(R) and the checked inequality is the tightest.  That
            # is 3^(n-1) pairs per agent instead of 4^n: S = sub | {i} and
            # R = d | {i} over sub within rest and d within rest \ sub, both
            # in descending submask order.
            rest = fullm ^ bit
            sub = rest
            while True:
                s = sub | bit
                vs = v[s]
                other = rest ^ sub
                d = other
                while True:
                    u = v[s | d]
                    bound = vs + v[d | bit]
                    if u > bound + EPS:
                        yield Violation("subadditivity", i, (s, d | bit), u, bound)
                    if not d:
                        break
                    d = (d - 1) & other
                if not sub:
                    break
                sub = (sub - 1) & rest
    else:
        v = profile.value
        rng = random.Random(seed)
        for _ in range(samples):
            i = rng.randrange(n)
            bit = 1 << i
            s = rng.getrandbits(n)
            if not s & bit:
                if not abs(v(i, s)) <= EPS:  # NaN too
                    yield Violation("nonzero_outside", i, (s,), v(i, s), 0.0)
                s |= bit
            val = v(i, s)
            if val < -EPS:
                yield Violation("negative", i, (s,), val, 0.0)
            elif not val < math.inf:
                yield Violation("nonfinite", i, (s,), val, 0.0)
            r = (rng.getrandbits(n) & fullm) | bit
            u = v(i, s | r)
            bound = val + v(i, r)
            if u > bound + EPS:
                yield Violation("subadditivity", i, (s, r), u, bound)
            grow = s | (rng.getrandbits(n) & fullm)
            if val > v(i, grow) + EPS:
                yield Violation("monotonicity", i, (s, grow), val, v(i, grow))


def check_conditions(
    profile: ValuationProfile,
    *,
    mode: str = "auto",
    samples: int = 10_000,
    seed: int = 0,
    max_violations: int = 100,
) -> list[Violation]:
    """Check conditions 1-3 and return the first ``max_violations`` violations
    (empty = valid).

    ``mode="auto"`` scans every (i, S, R) triple exhaustively for n <= 12 and
    ignores ``samples`` there; past n = 12, and always with ``mode="sampled"``,
    it draws ``samples`` seeded random triples, and raises ``ValueError`` when
    ``samples < 1``, since a check over no draws would pass any profile.
    Any other ``mode`` raises ``ValueError``; no size is refused.

    In the exhaustive scan an agent bound to a per-degree table ``g`` is first
    tested on ``g`` alone, with the scan's own comparisons: ``g[k] < -EPS``,
    ``not g[k] < inf``, ``g[k] > g[k + 1] + EPS`` and
    ``g[a + b] > g[a] + g[b] + EPS`` (``nonzero_outside`` cannot fail, the
    value off its sets being a literal ``0.0``).  Any other agent (a table
    model, or a weight that is a table) has its ``2^n`` column read and tested
    on it in stages, the cheapest first: ``nonzero_outside`` off its sets,
    ``negative`` and ``nonfinite`` on them, each one-step ``monotonicity``
    pair, then each unordered ``subadditivity`` split, half the scan's
    ``3^(n-1)`` pairs since IEEE addition commutes (:func:`_column_holds`;
    its index caches hold about 0.4 MB at n = 10 and 2.9 MB at n = 12).  An
    agent that passes has no violation and is not scanned; otherwise it is
    scanned in full, so the result is the same either way.  Sampled mode does
    not use these tests: its draws pair overlapping sets and grow a set by
    many agents at once, where the ``EPS`` tolerances add up, so one-step
    tests do not decide them.
    """
    mode = _resolve_mode(profile.n, mode)
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled check needs samples >= 1, got {samples}")
    return list(islice(_violations(profile, mode, samples, seed), max(max_violations, 0)))


def estimate_L(profile: ValuationProfile) -> float:
    """Smallest L with ``L * (v_i(A) + v_i(B)) >= v_i(A | B)`` over checked triples.

    Returns 1.0 for subadditive profiles; assumes monotonicity (use
    :func:`check_conditions` first), which justifies checking only the
    reduced witness pairs.  The triples are those of the default
    :func:`check_conditions`: every one for n <= 12, else 10,000 drawn with
    seed 0.
    """
    witnesses = _violations(profile, _resolve_mode(profile.n, "auto"), 10_000, 0)
    return max(
        (w.lhs / w.rhs if w.rhs > EPS else math.inf
         for w in witnesses if w.kind == "subadditivity"),
        default=1.0,
    )
