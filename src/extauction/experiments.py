"""Instance generation, exact verification experiments, and demos.

The exact checks here have no sampling error: partition statistics come from
trinomial/binomial summation over rationals, expected mechanism revenue from
full ``3^n`` partition enumeration, and the quarter bound from exhaustive
partition scans.  Monte-Carlo campaigns scale the same measurements past the
exact range and report seeded, replayable rows.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from .benchmark import (  # noqa: F401  (_greedy_sweep stays bound for perfbench's tracer)
    BenchmarkResult,
    _greedy_sweep,
    benchmark_bruteforce,
    benchmark_sweep,
    classical_best_price,
)
from .mechanisms import (
    Partition3,
    _check_partition,
    _partition_ledger,
    _quarter_floor,
    main_mechanism,
    main_mechanism_exact_expectation,
    mechanism2_expected_revenue,
    require_additive,
    testers_revenue,
)
from .sets import iter_members
from .valuations import (
    EPS,
    EXHAUSTIVE_MAX_N,
    TABLE_MODEL_MAX_N,
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    ScalarModel,
    TableModel,
    TableWeight,
    ValuationProfile,
    as_oracle,
    check_conditions,
)

REVENUE_GUARANTEE_FACTOR = 324  # expected revenue >= F^(3) / 324

GEN_MODELS = ("table", "additive", "scalar", "linear", "graph_concave", "mixed")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from integer/string parts (documented splitting rule).

    Every piece of randomness in a campaign flows from one base seed through
    this hash, so runs replay exactly across processes and platforms.
    """
    h = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big")


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def _random_graph(n: int, rng: random.Random, kind: str = "er", p: float = 0.5):
    """Erdos-Renyi or preferential-attachment adjacency list."""
    adj = [set() for _ in range(n)]
    if kind == "er":
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i].add(j)
                    adj[j].add(i)
    elif kind == "pa":  # a stub per edge end, so a node is drawn by its degree
        if n >= 2:
            adj[0].add(1)
            adj[1].add(0)
        for i in range(2, n):
            targets = set()
            stubs = [j for j in range(i) for _ in adj[j]]
            targets.add(rng.choice(stubs))
            if rng.random() < 0.5 and len(stubs) > 1:
                targets.add(rng.choice(stubs))
            for j in targets:
                adj[i].add(j)
                adj[j].add(i)
    elif kind == "complete":
        for i in range(n):
            adj[i] = set(range(n)) - {i}
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return [sorted(s) for s in adj]


def _random_weight(rng: random.Random) -> DegreeWeight:
    return DegreeWeight(
        base=rng.uniform(0.5, 2.0),
        scale=rng.uniform(0.0, 2.0),
        shape=rng.choice(["linear", "sqrt"]),
    )


def _xos_table(i: int, n: int, rng: random.Random) -> TableModel:
    """Random max-of-additive table: monotone and subadditive by construction."""
    clauses = []
    for _ in range(rng.randrange(1, 4)):
        weights = [rng.uniform(0.0, 4.0) for _ in range(n)]
        weights[i] = rng.uniform(0.5, 4.0)
        clauses.append(weights)
    bit = 1 << i
    values = {}
    for s in range(1 << n):
        if not s & bit:
            continue
        values[s] = max(
            sum(w[j] for j in iter_members(s)) for w in clauses
        )
    return TableModel(values)


#: generated family -> ``(i, n, rng) -> model`` of agent i, in the order ``mixed`` draws
#: from; each draws ``t`` before its weights, an order the generated instances depend on
_FAMILIES = {
    "table": _xos_table,
    "additive": lambda i, n, rng: AdditiveModel(
        t=rng.uniform(1.0, 10.0), weight=_random_weight(rng)
    ),
    "scalar": lambda i, n, rng: ScalarModel(t=rng.uniform(1.0, 10.0), weight=_random_weight(rng)),
    "graph_concave": lambda i, n, rng: GraphConcaveModel(
        t=rng.uniform(1.0, 10.0), beta=rng.uniform(0.2, 2.0)
    ),
    "linear": lambda i, n, rng: LinearModel(
        t=rng.uniform(1.0, 10.0), weight=_random_weight(rng), offset=_random_weight(rng)
    ),
}


def gen_instance(
    model: str,
    n: int,
    seed: int = 0,
    graph: str | None = None,
    graph_p: float = 0.5,
) -> ValuationProfile:
    """Random valid profile of the requested family; conditions are verified.

    ``model="mixed"`` draws a model kind per agent.  The built-in families
    are valid by construction; for n <= 12 :func:`check_conditions` confirms
    it, and a failure raises.  ``graph_p``, the edge probability of an
    ``"er"`` graph, must lie in [0, 1] whatever the graph.
    """
    if n < 1:
        raise ValueError("empty market rejected: need n >= 1")
    if model not in GEN_MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {GEN_MODELS}")
    if model == "table" and n > TABLE_MODEL_MAX_N:
        raise ValueError(f"table instances are capped at n <= {TABLE_MODEL_MAX_N}")
    if not 0 <= graph_p <= 1:  # NaN fails every comparison
        raise ValueError(f"graph_p must be in [0, 1], got {graph_p!r}")
    mixed = [kind for kind in _FAMILIES if kind != "table" or n <= TABLE_MODEL_MAX_N]
    rng = random.Random(derive_seed("gen", model, n, seed, 0))
    kind_of = (lambda i: rng.choice(mixed)) if model == "mixed" else (lambda i: model)
    adjacency = None
    if graph is not None:
        adjacency = _random_graph(n, rng, graph, graph_p)
    models = [_FAMILIES[kind_of(i)](i, n, rng) for i in range(n)]
    profile = ValuationProfile(models, graph=adjacency)
    if n <= EXHAUSTIVE_MAX_N and check_conditions(profile):
        raise ValueError(f"generated {model} instance for n={n} violates the conditions")
    return profile


def standard_suite(total: int = 200) -> list[tuple[str, ValuationProfile]]:
    """Deterministic mixed suite of valid instances with n in [3, 9].

    The composition (sizes, families, graph shapes) is a choice of this
    artifact; nothing upstream prescribes concrete experiment distributions.
    """
    sizes = [3, 4, 5, 6, 7, 8, 9]
    weights = [4, 4, 3.5, 3, 2.5, 2, 1.5]
    counts = [max(1, round(total * w / sum(weights))) for w in weights]
    while sum(counts) > total:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < total:
        counts[0] += 1
    kinds = [*_FAMILIES, "mixed"]
    graphs = [None, "er", "pa"]
    out = []
    for n, cnt in zip(sizes, counts):
        for j in range(cnt):
            idx = len(out)
            kind = kinds[idx % len(kinds)]
            graph = graphs[idx % len(graphs)]
            profile = gen_instance(
                kind, n, seed=derive_seed("suite", 20240801, idx), graph=graph
            )
            out.append((f"{kind}-n{n}-{j}", profile))
    return out


# ---------------------------------------------------------------------------
# exact partition statistics
# ---------------------------------------------------------------------------

def partition_min_expectation(m: int) -> Fraction:
    """Exact ``E[min(a, b, c)]`` for m items dropped uniformly into three boxes.

    Trinomial summation in integers over one common denominator; no sampling.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    num = sum(  # boxes a, b, m - a - b; an empty box adds 0, so each range starts at 1
        math.comb(m, a) * sum(math.comb(m - a, b) * min(a, b, m - a - b) for b in range(1, m - a))
        for a in range(1, m + 1)
    )
    return Fraction(num, 3 ** m)


def binomial_low_tail(m: int, cutoff: int) -> Fraction:
    """Exact ``Pr(X <= cutoff)`` for ``X ~ Binomial(m, 1/3)``."""
    num = sum(math.comb(m, j) * 2 ** (m - j) for j in range(min(cutoff, m) + 1))
    return Fraction(num, 3 ** m)


def chernoff_tail_check(m: int) -> Fraction:
    """Exact ``Pr(a <= m/9)`` for one box count; must be < 1/9 once m >= 17."""
    if m < 1:
        raise ValueError("m must be >= 1")
    tail = binomial_low_tail(m, m // 9)
    if m >= 17 and not tail < Fraction(1, 9):  # raised, not asserted: ``python -O`` keeps it
        raise AssertionError(f"tail bound failed at m={m}: {tail}")
    return tail


# ---------------------------------------------------------------------------
# quarter bound (test-group revenue vs its benchmark share)
# ---------------------------------------------------------------------------

class QuarterBoundResult(NamedTuple):
    status: str  # pass | fail | skip
    r_c: float
    r_f_c: float


def quarter_bound_check(
    profile,
    partition: Partition3,
    optimum: BenchmarkResult | None = None,
) -> QuarterBoundResult:
    """Check ``r(C) >= r_F(C) / 4`` for one labeled partition.

    ``r(C)`` is the best revenue extractable from C given A or B free;
    ``r_F(C)`` is the canonical 3-winner benchmark optimum's take from C.
    Skips (never fails) when the benchmark is zero; a bad ``partition`` raises ``ValueError``.
    """
    oracle = as_oracle(profile)
    _check_partition(partition, oracle.full)
    if optimum is None:
        optimum = benchmark_bruteforce(oracle, 3)
    if optimum.value <= EPS:
        return QuarterBoundResult("skip", 0.0, 0.0)
    r_f_c = optimum.price * (optimum.winners & partition.c).bit_count()
    r_c = testers_revenue(oracle, partition)
    status = "pass" if r_c >= _quarter_floor(r_f_c) else "fail"
    return QuarterBoundResult(status, r_c, r_f_c)


def quarter_bound_exhaustive(profile) -> tuple[int, int, list[Partition3]]:
    """Run the quarter-bound check over all ``3^n`` partitions.

    Returns (checked, skipped, failures); all partitions skip when the
    benchmark optimum is zero, none otherwise.  Rejected for n > 12 by the
    walk's tabulated oracle, with the exact expectation, its twin view of
    the same ledger.

    Each partition gets :func:`quarter_bound_check`'s test: ``r(C)``, the
    larger of ``r(C | A)`` and ``r(C | B)`` read from
    :func:`~extauction.mechanisms.revenue_table`, against the floor
    ``r_F(C)/4 - EPS``, looked up by the number of benchmark winners in C.
    The failures come in :meth:`~extauction.mechanisms.Partition3.all_partitions`
    order.  A view of the oracle's partition ledger
    (:func:`~extauction.mechanisms._partition_ledger`), which walks the
    partitions once for this and the exact expectation together: the
    first of the two views on an oracle fills the table and walks, even on
    a zero benchmark, and the second reads the stored result, with no
    sweep and no query.
    """
    ledger = _partition_ledger(as_oracle(profile))
    return ledger.checked, ledger.skipped, list(ledger.failures)


# ---------------------------------------------------------------------------
# experiment reports
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict = field(default_factory=dict)

    def as_dicts(self):
        return [dict(zip(self.columns, r)) for r in self.rows]


def _ratio(benchmark: float, revenue: float) -> float:
    """Benchmark over revenue (>= 1 convention); inf sentinel on zero revenue."""
    if revenue <= EPS:
        return math.inf
    return benchmark / revenue


def _ratio_summary(ratios) -> dict:
    """``min_ratio`` and ``mean_ratio`` over the finite ratios, NaN when there are none."""
    finite = [r for r in ratios if math.isfinite(r)] or [math.nan]
    return {"min_ratio": min(finite), "mean_ratio": statistics.fmean(finite)}


GUARANTEE_COLUMNS = ("instance", "n", "f1", "f2", "f3", "expected_revenue", "ratio", "bound_ok")


def revenue_guarantee_check(profile) -> tuple[float, float, bool]:
    """``(E[rev], F^(3), E[rev] >= F^(3)/324 - EPS)``, exactly.

    Both numbers come from the oracle's partition ledger
    (:func:`~extauction.mechanisms._partition_ledger`): the expectation
    through :func:`~extauction.mechanisms.main_mechanism_exact_expectation`,
    and ``F^(3)`` as the optimum the ledger's walk scanned on its own stored
    steps, so no second subset scan runs.  n > 12 is refused by the walk's
    tabulated oracle (:class:`~extauction.mechanisms._Tabulated`).
    """
    oracle = as_oracle(profile)
    expected = main_mechanism_exact_expectation(oracle)
    f3 = _partition_ledger(oracle).optimum.value
    return expected, f3, expected >= f3 / REVENUE_GUARANTEE_FACTOR - EPS


def revenue_guarantee_suite(instances: Sequence[tuple[str, ValuationProfile]]) -> ExperimentReport:
    """Exact expected revenue vs ``F^(3)/324`` for every instance.

    Rows with a zero benchmark are recorded but marked skipped in the
    summary; the bound is checked exactly, no sampling error.
    """
    rows = []
    for name, profile in instances:
        oracle = as_oracle(profile)
        expected, f3, ok = revenue_guarantee_check(oracle)
        f1, f2 = (benchmark_bruteforce(oracle, k).value for k in (1, 2))
        ratio = _ratio(f3, expected) if f3 > EPS else math.nan
        rows.append((name, profile.n, f1, f2, f3, expected, ratio, ok))
    worst = min((expected / f3 for *_, f3, expected, _, _ in rows if f3 > EPS), default=None)
    return ExperimentReport(
        GUARANTEE_COLUMNS,
        rows,
        {
            "violations": sum(not ok for *_, ok in rows),
            "instances": len(rows),
            "worst_revenue_over_f3": worst,
            "required_fraction": 1 / REVENUE_GUARANTEE_FACTOR,
            **_ratio_summary(ratio for *_, ratio, _ in rows),
        },
    )


# ---------------------------------------------------------------------------
# additive-market decomposition bound
# ---------------------------------------------------------------------------

class DecompositionCheck(NamedTuple):
    """One additive-bound row after its instance name and n; the fields name its columns."""

    f2: float
    f2_classical: float
    sum_v_full: float
    mixture_expected: float
    decomposition_ok: bool
    mixture_ok: bool


def mechanism2_bound_check(profile: ValuationProfile, alpha: float = 1.0) -> DecompositionCheck:
    """Check ``F^(2) <= 2*F~^(2) + 2*sum_i v_i([n])`` on an additive profile.

    Also evaluates the exact two-branch mixture expectation with an exact
    classical-benchmark oracle as the plug-in mechanism and compares it to
    ``F^(2) / (2*(1+alpha))``.
    """
    require_additive(profile)
    f2 = benchmark_bruteforce(profile, 2).value
    t_bids = [m.t for m in profile.models]
    f2_classical = classical_best_price(t_bids, min_winners=2)[0]
    full = profile.full
    sum_v_full = sum(profile.value(i, full) for i in range(profile.n))
    decomposition_ok = f2 <= 2 * f2_classical + 2 * sum_v_full + EPS
    mixture = mechanism2_expected_revenue(profile, alpha, f2_classical)
    mixture_ok = mixture >= f2 / (2 * (1 + alpha)) - EPS
    return DecompositionCheck(f2, f2_classical, sum_v_full, mixture, decomposition_ok, mixture_ok)


ADDITIVE_BOUND_COLUMNS = ("instance", "n", *DecompositionCheck._fields)


def additive_bound_suite(
    instances: Sequence[tuple[str, ValuationProfile]], alpha: float = 1.0
) -> ExperimentReport:
    """Run the decomposition and mixture checks across additive instances."""
    rows = [(name, profile.n, *mechanism2_bound_check(profile, alpha=alpha))
            for name, profile in instances]
    violations = sum(not (ok and mixture_ok) for *_, ok, mixture_ok in rows)
    return ExperimentReport(
        ADDITIVE_BOUND_COLUMNS,
        rows,
        {"violations": violations, "instances": len(rows), "alpha": alpha},
    )


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

def two_agent_gap_instance(m_factor: float) -> ValuationProfile:
    """Two agents who value winning together ``m_factor`` times more than alone.

    Scalar valuations at ``t = 1``: ``v_i({i}) = 1`` and ``v_i({0,1}) = m_factor``.
    """
    both = 0b11
    models = []
    for i in range(2):
        weights = TableWeight({1 << i: 1.0, both: float(m_factor)})
        models.append(ScalarModel(t=1.0, weight=weights))
    return ValuationProfile(models)


#: the ``m`` values of the f2-gap demo when none are given
F2_GAP_M_VALUES = (1.0, 10.0, 100.0, 1000.0)

F2_GAP_COLUMNS = ("m_factor", "f2", "f3", "expected_revenue", "ratio_vs_f2")


def f2_gap_demo(m_values: Sequence[float]) -> ExperimentReport:
    """Exact demonstration that the tripartition auction is not ``F^(2)``-competitive.

    For each scale factor the two-agent instance's benchmark grows linearly
    while the tripartition auction's exact expected revenue stays put, so
    the ratio (inf sentinel once revenue hits zero) grows without bound.
    The 3-winner benchmark is zero here, so the main guarantee is untouched.
    This is not the theorem that no truthful mechanism is competitive
    against ``F^(2)``: the fixed price ``m`` is truthful and earns exactly
    ``F^(2) = 2m`` on every instance of this family.
    Each ``m`` must be finite and >= 1, or the instance is not monotone, and
    there must be at least one: a demo over no ``m`` shows nothing.
    """
    if not m_values:
        raise ValueError("the f2-gap demo needs at least one m value")
    rows = []
    for m in m_values:
        if not 1 <= m < math.inf:  # NaN fails every comparison
            raise ValueError(f"m values must be finite and >= 1, got {m!r}")
        oracle = two_agent_gap_instance(m).oracle()
        expected, f3, _ = revenue_guarantee_check(oracle)
        f2 = benchmark_bruteforce(oracle, 2).value
        rows.append((m, f2, f3, expected, _ratio(f2, expected)))
    return ExperimentReport(F2_GAP_COLUMNS, rows, {"x": 1.0})  # the instances' t


def losing_value_demo() -> dict:
    """Show that paying losers' externalities breaks the domain conditions.

    Builds the family ``v_i(S) = |S|`` on three agents, held even by losing agents;
    the validator must reject it (losers deriving value violates the
    zero-when-losing condition), while the truncated-to-winners variant is
    accepted.  No truthful competitive mechanism survives the unrestricted
    family, which is exactly why the condition is imposed.
    """
    n = 3
    size_value = {s: 1.0 * s.bit_count() for s in range(1 << n)}
    unguarded = SimpleNamespace(bind=lambda i, neighbor_mask: lambda s: size_value[s])
    invalid = ValuationProfile([unguarded] * n)
    invalid_violations = check_conditions(invalid)
    truncated = ValuationProfile(
        [TableModel({s: v for s, v in size_value.items() if s & (1 << i)}) for i in range(n)]
    )
    return {
        "invalid_violations": [v.describe() for v in invalid_violations],
        "invalid_rejected": bool(invalid_violations),
        "truncated_violations": [v.describe() for v in check_conditions(truncated)],
    }


# ---------------------------------------------------------------------------
# Monte-Carlo campaigns
# ---------------------------------------------------------------------------

CAMPAIGN_COLUMNS = (
    "instance",
    "seed",
    "n",
    "f3",
    "mean_revenue",
    "stderr",
    "ratio",
    "trials",
    "max_queries",
    "budget",
)


def ratio_campaign(
    instances: Sequence[tuple[str, ValuationProfile]],
    trials: int,
    seed: int = 0,
) -> ExperimentReport:
    """Monte-Carlo revenue vs the 3-winner benchmark across instances.

    The package's one seeded loop over :func:`main_mechanism`: run ``trial``
    of instance ``name`` takes seed ``derive_seed("campaign", seed, name, trial)``.
    A row's ``mean_revenue`` is the mean of its runs' revenues and ``stderr``
    their standard error of the mean, 0.0 for a single run.  Ratios use the
    >= 1 convention with an inf sentinel for zero revenue; the per-run query
    budget ``10 n^2`` is recorded and checked.
    """
    rows = []
    for name, profile in instances if trials > 0 else ():
        f3 = benchmark_sweep(profile, 3).value
        runs = [
            main_mechanism(profile, derive_seed("campaign", seed, name, trial))
            for trial in range(trials)
        ]
        revenues = [out.revenue for out in runs]
        mean = statistics.fmean(revenues)
        err = statistics.stdev(revenues) / math.sqrt(trials) if trials > 1 else 0.0
        max_q = max(out.queries_used for out in runs)
        budget = 10 * profile.n * profile.n
        rows.append(
            (name, seed, profile.n, f3, mean, err, _ratio(f3, mean), trials, max_q, budget)
        )
    summary = {
        "instances": len(rows),
        "trials": trials,
        "seed": seed,
        "within_query_budget": all(max_q <= budget for *_, max_q, budget in rows),
    }
    if rows:
        summary.update(_ratio_summary(ratio for *_, ratio, _, _, _ in rows))
    return ExperimentReport(CAMPAIGN_COLUMNS, rows, summary)
