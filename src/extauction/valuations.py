"""Agent valuation models, the query-counted bid oracle, and validity checks.

An instance has ``n`` agents; agent ``i`` holds a set-valued valuation
``v_i(S)`` over winner sets ``S`` (bitmasks, see :mod:`extauction.sets`).
Every model enforces the domain conditions by construction:

  1. nonnegativity,
  2. ``v_i(S) = 0`` whenever ``i`` is not in ``S``,
  3. monotonicity in ``S`` and subadditivity (``v_i(S | R) <= v_i(S) + v_i(R)``
     for ``i`` in both sets), or the L-relaxed variant thereof.

Profiles are immutable once built and safe to share; the only mutable state
(the query counter and the ``r(C)`` memo) lives on a per-run :class:`Oracle`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Mapping, Sequence, Union

from .sets import full_mask, mask_of, members, submasks

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
    """

    values: Mapping[int, float]

    def bind(self, i: int, neighbor_mask: int) -> Callable[[int], float]:
        tbl = dict(self.values)
        bit = 1 << i
        return lambda s: tbl.get(s, 0.0) if s & bit else 0.0


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


Weight = Union[TableModel, DegreeWeight]


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
        wf = self.weight.bind(i, neighbor_mask)
        of = self.offset.bind(i, neighbor_mask)
        bit = 1 << i
        return lambda s: t * wf(s) + of(s) if s & bit else 0.0


@dataclass(frozen=True)
class GraphConcaveModel:
    """Concave social-influence valuation on an undirected agent graph.

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
        nb = neighbor_mask & ~(1 << i)
        bit = 1 << i
        return lambda s: t * (1.0 + beta * f((s & nb).bit_count())) if s & bit else 0.0


Model = Union[TableModel, AdditiveModel, ScalarModel, LinearModel, GraphConcaveModel]

TABLE_MODEL_MAX_N = 10
EXHAUSTIVE_MAX_N = 12


class ValuationProfile:
    """Immutable collection of per-agent valuation models.

    ``graph`` is an optional adjacency list (used by degree weights and
    graph-concave models); absent, the complete graph is assumed.
    """

    def __init__(self, models: Sequence[Model], graph=None, declared_L: float | None = None):
        if not models:
            raise ValueError("empty market: need at least one agent")
        self.n = len(models)
        self.models = tuple(models)
        self.full = full_mask(self.n)
        if graph is not None and len(graph) != self.n:
            raise ValueError("adjacency list length does not match agent count")
        self.graph = None if graph is None else tuple(tuple(sorted(nb)) for nb in graph)
        if self.graph is None:
            self.neighbor_masks = tuple(self.full for _ in range(self.n))
        else:
            self.neighbor_masks = tuple(mask_of(nb) for nb in self.graph)
        if any(isinstance(m, TableModel) for m in models) and self.n > TABLE_MODEL_MAX_N:
            raise ValueError(f"table models are capped at n <= {TABLE_MODEL_MAX_N}")
        self._fns = tuple(
            m.bind(i, self.neighbor_masks[i]) for i, m in enumerate(models)
        )
        self.declared_L = declared_L

    def value(self, i: int, s: int) -> float:
        """Pure, uncounted ``v_i(S)``; ``s`` is a bitmask."""
        return self._fns[i](s)

    def oracle(self) -> "Oracle":
        return Oracle(self)

    def replace(self, i: int, model: Model) -> "ValuationProfile":
        """New profile where agent ``i`` reports ``model`` instead."""
        models = list(self.models)
        models[i] = model
        return ValuationProfile(models, graph=self.graph, declared_L=self.declared_L)

    def __repr__(self):
        kinds = ",".join(type(m).__name__ for m in self.models)
        return f"ValuationProfile(n={self.n}, models=[{kinds}])"


class Oracle:
    """Query-counted view of a profile; one per mechanism run.

    It holds the run's mutable state, the value-query count ``queries`` and
    ``revenues``, the ``r(C)`` sweep values memoized per ``(C, free)`` by
    :func:`~extauction.mechanisms.testers_revenue`, so profiles stay
    shareable across threads and runs: concurrent runs each hold their own.
    """

    __slots__ = ("profile", "queries", "revenues", "_fns")

    def __init__(self, profile: ValuationProfile):
        self.profile = profile
        self._fns = profile._fns
        self.queries = 0
        self.revenues: dict[tuple[int, int], float] = {}

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def full(self) -> int:
        return self.profile.full

    def value(self, i: int, s: int) -> float:
        self.queries += 1
        return self._fns[i](s)


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

    kind: str  # negative | nonzero_outside | monotonicity | subadditivity
    agent: int
    sets: tuple[int, ...]  # witness masks
    lhs: float
    rhs: float

    def describe(self) -> str:
        sets = " ".join(str(set(members(m)) or "{}") for m in self.sets)
        return f"{self.kind}: agent {self.agent}, sets {sets}, {self.lhs:.12g} vs {self.rhs:.12g}"


def _pair_iter_exhaustive(n: int, i: int):
    """Witness pairs (S, R) covering all subadditivity constraints for agent i.

    Given monotonicity, it suffices to check pairs with R = (U \\ S) | {i}
    over all U containing S: any other R' with S | R' = U satisfies
    R' >= R, so v(R') >= v(R) and the checked inequality is the tightest.
    This costs 3^(n-1) pairs per agent instead of 4^n.
    """
    bit = 1 << i
    rest_all = full_mask(n) & ~bit
    for sub in submasks(rest_all):
        s = sub | bit
        other = rest_all & ~sub
        for d in submasks(other):
            yield s, d | bit


def _resolve_mode(n: int, mode: str) -> str:
    """``"auto"`` means exhaustive when n allows it; exhaustive is capped at n <= 12."""
    if mode == "auto":
        mode = "exhaustive" if n <= EXHAUSTIVE_MAX_N else "sampled"
    if mode == "exhaustive" and n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive mode rejected for n > {EXHAUSTIVE_MAX_N}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _violations(profile: ValuationProfile, mode: str, samples: int, seed: int):
    """Every violation of conditions 1-3, lazily, in scan order (``mode`` already resolved).

    The one walk over witness triples: :func:`check_conditions` stops it at
    its cap and :func:`estimate_L` reads its subadditivity witnesses.
    """
    n = profile.n
    v = profile.value
    if mode == "exhaustive":
        nmasks = 1 << n
        for i in range(n):
            bit = 1 << i
            for s in range(nmasks):
                val = v(i, s)
                if not s & bit:
                    if abs(val) > EPS:
                        yield Violation("nonzero_outside", i, (s,), val, 0.0)
                    continue
                if val < -EPS:
                    yield Violation("negative", i, (s,), val, 0.0)
                # single-element monotonicity steps imply the full condition
                for j in range(n):
                    jb = 1 << j
                    if s & jb:
                        continue
                    up = v(i, s | jb)
                    if val > up + EPS:
                        yield Violation("monotonicity", i, (s, s | jb), val, up)
            for s, r in _pair_iter_exhaustive(n, i):
                u = v(i, s | r)
                bound = v(i, s) + v(i, r)
                if u > bound + EPS:
                    yield Violation("subadditivity", i, (s, r), u, bound)
    else:
        rng = random.Random(seed)
        fullm = profile.full
        for _ in range(samples):
            i = rng.randrange(n)
            bit = 1 << i
            s = rng.getrandbits(n)
            if not s & bit:
                if abs(v(i, s)) > EPS:
                    yield Violation("nonzero_outside", i, (s,), v(i, s), 0.0)
                s |= bit
            val = v(i, s)
            if val < -EPS:
                yield Violation("negative", i, (s,), val, 0.0)
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

    ``mode="exhaustive"`` covers every (i, S, R) triple and is rejected for
    n > 12; ``mode="sampled"`` draws ``samples`` seeded random triples.
    ``"auto"`` picks exhaustive when n allows it.
    """
    mode = _resolve_mode(profile.n, mode)
    return list(islice(_violations(profile, mode, samples, seed), max(max_violations, 0)))


def estimate_L(
    profile: ValuationProfile,
    *,
    mode: str = "auto",
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Smallest L with ``L * (v_i(A) + v_i(B)) >= v_i(A | B)`` over checked triples.

    Returns 1.0 for subadditive profiles; assumes monotonicity (use
    :func:`check_conditions` first), which justifies checking only the
    reduced witness pairs.  The sampled mode reads the same seeded draws as
    :func:`check_conditions`.
    """
    mode = _resolve_mode(profile.n, mode)
    witnesses = _violations(profile, mode, samples, seed)
    return max(
        (w.lhs / w.rhs if w.rhs > EPS else math.inf
         for w in witnesses if w.kind == "subadditivity"),
        default=1.0,
    )
