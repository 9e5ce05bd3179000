"""Spans and counters recorded around the library's entry points.

Nothing under ``src/`` is edited: for a traced run the entry points are
replaced, as the calling modules bind them, by wrappers that record a span
(name, start, end, parent) and read ``Oracle.queries`` before and after the
call, and the originals are put back when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from extauction import benchmark as bm
from extauction import cli
from extauction import experiments as ex
from extauction import io as eio
from extauction import mechanisms as mech
from extauction import sets
from extauction import truthfulness as tr
from extauction import valuations as val


class Tracer:
    """In-memory spans plus per-name call counts, total and self seconds."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``after(state, args, result, seconds)`` sees ``before(args)``."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            self.open[name] += 1
            state = before(args) if before else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.open[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_s[name] += dur - frame[1]
                if len(self.spans) < self.max_spans:
                    self.spans.append((sid, name, start, end, parent))
                else:
                    self.dropped += 1
            if after:
                after(state, args, result, dur)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _queries_before(args):
    return getattr(args[0], "queries", 0)


def _add_queries(tracer, key):
    def after(q0, args, result, dur):
        tracer.counts[key] += getattr(args[0], "queries", 0) - q0
    return after


def _plan(tracer: Tracer):
    """(owner, attribute, wrapper) for every patched binding."""
    t = tracer
    counts = t.counts

    def sweep_after(q0, args, result, dur):
        oracle = args[0]
        used = oracle.queries - q0
        counts["benchmark.sweep.queries"] += used
        n = oracle.n
        counts["benchmark.sweep.max_queries"] = max(counts["benchmark.sweep.max_queries"], used)
        if used > n * (n + 1) // 2:
            counts["benchmark.sweep.over_budget"] += 1
        if t.open["mechanisms.exact_expectation"]:
            counts["rev_cache.sweeps"] += 1

    def expectation_before(args):
        n = args[0].n
        counts["rev_cache.requests"] += 2 * (3 ** n - 2 ** n)

    def check_after(state, args, result, dur):
        profile = args[0]
        if not result and profile.n <= val.EXHAUSTIVE_MAX_N:
            counts["check.triples"] += profile.n * 3 ** (profile.n - 1)
            t.total["check.complete"] += dur

    def load_before(args):
        counts["io.bytes_parsed"] += os.path.getsize(args[0])

    members = t.counter("sets.iter_members", sets.iter_members)
    sweep = t.span("benchmark.sweep", bm._greedy_sweep, _queries_before, sweep_after)
    brute = t.span("benchmark.brute", bm.benchmark_bruteforce, _queries_before,
                   _add_queries(t, "benchmark.brute.queries"))
    feasible = t.span("benchmark.feasible_set", bm.maximal_feasible_set)
    main = t.span("mechanisms.main", mech.main_mechanism)
    expectation = t.span("mechanisms.exact_expectation", mech.main_mechanism_exact_expectation,
                         expectation_before)
    check = t.span("valuations.check_conditions", val.check_conditions, after=check_after)
    load = t.span("io.load_instance", eio.load_instance, load_before)
    stats = "experiments.partition_stats"
    return [
        (sets, "iter_members", members), (bm, "iter_members", members),
        (mech, "iter_members", members), (ex, "iter_members", members),
        (bm, "_greedy_sweep", sweep), (mech, "_greedy_sweep", sweep), (ex, "_greedy_sweep", sweep),
        (bm, "benchmark_bruteforce", brute), (ex, "benchmark_bruteforce", brute),
        (bm, "maximal_feasible_set", feasible), (mech, "maximal_feasible_set", feasible),
        (mech, "_cost_share_survivors",
         t.span("mechanisms.cost_share", mech._cost_share_survivors, _queries_before,
                _add_queries(t, "mechanisms.cost_share.queries"))),
        (mech, "_run_partitioned", t.span("mechanisms.run", mech._run_partitioned)),
        (mech, "main_mechanism", main), (ex, "main_mechanism", main),
        (mech, "main_mechanism_exact_expectation", expectation),
        (ex, "main_mechanism_exact_expectation", expectation),
        (ex, "quarter_bound_exhaustive",
         t.span("experiments.quarter_bound", ex.quarter_bound_exhaustive)),
        (ex, "partition_min_expectation", t.span(stats, ex.partition_min_expectation)),
        (ex, "chernoff_tail_check", t.span(stats, ex.chernoff_tail_check)),
        (ex, "derive_seed", t.span("experiments.derive_seed", ex.derive_seed)),
        (ex, "gen_instance", t.span("experiments.gen_instance", ex.gen_instance)),
        (ex, "check_conditions", check), (eio, "check_conditions", check),
        (cli, "check_conditions", check),
        (cli, "estimate_L", t.span("valuations.estimate_L", val.estimate_L)),
        (val.ValuationProfile, "__init__",
         t.span("valuations.profile", val.ValuationProfile.__init__)),
        (val.ValuationProfile, "replace",
         t.span("truthfulness.replace", val.ValuationProfile.replace)),
        (tr, "misreport_plan", t.span("truthfulness.plan", tr.misreport_plan)),
        (tr, "deviation_test", t.span("truthfulness.deviation", tr.deviation_test)),
        (eio, "save_instance", t.span("io.save_instance", eio.save_instance)),
        (eio, "load_instance", load), (cli, "load_instance", load),
        (cli, "main", t.span("cli.main", cli.main)),
    ]


@contextmanager
def instrument(tracer: Tracer | None):
    """Patch every entry point for ``tracer`` (no-op for ``None``); restore on exit."""
    if tracer is None:
        yield
        return
    saved = []
    try:
        for owner, attr, wrapper in _plan(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: per-layer metric -> unit; counts and seconds are per pass of the workload
LAYER_UNITS = {
    "valuations.oracle.value_ns": "ns",
    "valuations.oracle.queries": "count",
    "sets.iter_members.calls": "count",
    "benchmark.sweep.calls": "count",
    "benchmark.sweep.self_s": "s",
    "benchmark.sweep.queries": "count",
    "mechanisms.rev_cache.hit_ratio": "ratio",
    "experiments.quarter_bound.self_s": "s",
    "experiments.partition_stats.self_s": "s",
    "mechanisms.partitions": "count",
    "mechanisms.run.self_s": "s",
    "mechanisms.exact_expectation.self_s": "s",
    "benchmark.brute.self_s": "s",
    "benchmark.brute.queries": "count",
    "valuations.profile.builds": "count",
    "valuations.profile.build_us": "us",
    "truthfulness.misreports": "count",
    "truthfulness.plan.self_s": "s",
    "truthfulness.replace.self_s": "s",
    "truthfulness.deviation.self_s": "s",
    "benchmark.feasible_set.self_s": "s",
    "mechanisms.cost_share.calls": "count",
    "mechanisms.cost_share.self_s": "s",
    "mechanisms.cost_share.queries": "count",
    "mechanisms.main.us_per_run": "us",
    "experiments.derive_seed.self_s": "s",
    "valuations.check_conditions.self_s": "s",
    "valuations.check.triples_per_s": "1/s",
    "valuations.estimate_L.self_s": "s",
    "io.load_instance.self_s": "s",
    "io.bytes_parsed": "count",
    "cli.main.self_s": "s",
    "experiments.gen_instance.s": "s",
    "io.save_instance.s": "s",
    "trace.overhead_frac": "ratio",
}


def _per(x, k):
    """``x / k``, kept an int when the division is exact."""
    return x // k if isinstance(x, int) and x % k == 0 else x / k


def layer_metrics(setup: Tracer, setup_reps: int, passes: Tracer, npasses: int,
                  queries: int, misreports: int, value_ns: float, overhead: float) -> dict:
    """Every per-layer metric; layers a workload never calls read 0."""
    c, calls, s = passes.counts, passes.calls, passes.self_s
    requests = c["rev_cache.requests"]
    values = {
        "valuations.oracle.value_ns": value_ns,
        "valuations.oracle.queries": queries,
        "sets.iter_members.calls": c["sets.iter_members"],
        "benchmark.sweep.calls": calls["benchmark.sweep"],
        "benchmark.sweep.self_s": s["benchmark.sweep"],
        "benchmark.sweep.queries": c["benchmark.sweep.queries"],
        "mechanisms.rev_cache.hit_ratio":
            1 - c["rev_cache.sweeps"] / requests if requests else 0.0,
        "experiments.quarter_bound.self_s": s["experiments.quarter_bound"],
        "experiments.partition_stats.self_s": s["experiments.partition_stats"],
        "mechanisms.partitions": calls["mechanisms.run"],
        "mechanisms.run.self_s": s["mechanisms.run"],
        "mechanisms.exact_expectation.self_s": s["mechanisms.exact_expectation"],
        "benchmark.brute.self_s": s["benchmark.brute"],
        "benchmark.brute.queries": c["benchmark.brute.queries"],
        "valuations.profile.builds": calls["valuations.profile"],
        "truthfulness.misreports": misreports,
        "truthfulness.plan.self_s": s["truthfulness.plan"],
        "truthfulness.replace.self_s": s["truthfulness.replace"],
        "truthfulness.deviation.self_s": s["truthfulness.deviation"],
        "benchmark.feasible_set.self_s": s["benchmark.feasible_set"],
        "mechanisms.cost_share.calls": calls["mechanisms.cost_share"],
        "mechanisms.cost_share.self_s": s["mechanisms.cost_share"],
        "mechanisms.cost_share.queries": c["mechanisms.cost_share.queries"],
        "experiments.derive_seed.self_s": s["experiments.derive_seed"],
        "valuations.check_conditions.self_s": s["valuations.check_conditions"],
        "valuations.estimate_L.self_s": s["valuations.estimate_L"],
        "io.load_instance.self_s": s["io.load_instance"],
        "io.bytes_parsed": c["io.bytes_parsed"],
        "cli.main.self_s": s["cli.main"],
    }
    per_pass = {k: _per(v, npasses) for k, v in values.items()
                if k not in ("valuations.oracle.value_ns", "valuations.oracle.queries",
                             "mechanisms.rev_cache.hit_ratio", "truthfulness.misreports")}
    values.update(per_pass)

    def mean_us(name):
        return passes.total[name] / calls[name] * 1e6 if calls[name] else 0.0

    complete = passes.total["check.complete"]
    values.update({
        "valuations.profile.build_us": mean_us("valuations.profile"),
        "mechanisms.main.us_per_run": mean_us("mechanisms.main"),
        "valuations.check.triples_per_s": c["check.triples"] / complete if complete else 0.0,
        "experiments.gen_instance.s": setup.total["experiments.gen_instance"] / setup_reps,
        "io.save_instance.s": setup.total["io.save_instance"] / setup_reps,
        "trace.overhead_frac": overhead,
    })
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
