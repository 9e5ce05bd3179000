"""The four workloads: instance set-up, one pass of timed work, and references.

A pass is a fixed sequence of timed steps built from the workload seed; some
steps are items, or contain them.  The timed phase repeats whole passes on
fresh profile objects, so every pass does identical work and no result
computed in one pass can be reused by the next.  All calls into the library go
through module attributes, so a traced run sees them.

Instance mixes rotate families and graph kinds as ``standard_suite`` does:
instance ``idx`` gets family ``idx % 6`` and graph kind ``idx % 3``, counting on
across sizes.  The number of instances per size falls as the cost of a size
rises, so that the largest sizes do not fill a pass on their own.
"""

from __future__ import annotations

import io as stdio
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from extauction import benchmark as bm
from extauction import cli
from extauction import experiments as ex
from extauction import io as eio
from extauction import mechanisms as mech
from extauction import truthfulness as tr
from extauction import valuations as val

import reference as ref
from clock import Clock

#: ``standard_suite``'s family and graph orders
KINDS = ("table", "additive", "scalar", "graph_concave", "linear", "mixed")
GRAPHS = (None, "er", "pa")
TABLE_MAX_N = 10
TOL = 1e-9


def rotation(counts: dict[int, int], kinds=KINDS, graphs=GRAPHS) -> list[tuple]:
    """(model, n, graph) per instance: ``counts[n]`` instances of each size n,
    families and graphs rotating over all of them as ``standard_suite`` does.

    ``gen_instance`` caps table profiles at n = 10; above it a table slot takes
    "mixed", which draws its agents from the parametric families there.
    """
    out = []
    for n, count in counts.items():
        for _ in range(count):
            idx = len(out)
            kind = kinds[idx % len(kinds)]
            if kind == "table" and n > TABLE_MAX_N:
                kind = "mixed"
            out.append((kind, n, graphs[idx % len(graphs)]))
    return out


class Pass:
    """What one pass did: step and item intervals, work, queries, outputs and failures."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.steps: list[tuple[float, float]] = []
        self.items: list[tuple[float, float]] = []
        self.units = 0
        self.queries = 0
        self.misreports = 0
        self.attempted = 0
        self.failed = 0
        self.outputs: dict = {}
        self.digests: dict = {}
        self.wall = 0.0

    def step(self, t0: float, item: bool = True) -> None:
        """End a timed step begun at ``t0``; an item step is also one item."""
        span = (t0, perf_counter())
        self.steps.append(span)
        if item:
            self.items.append(span)
        self.clock.tick()

    def output(self, key, value, items: int = 1) -> None:
        """Record an output to compare with the reference; it stands for ``items`` items."""
        self.outputs[key] = (value, items)
        self.attempted += items

    def digest(self, key, value, items: int) -> None:
        """An output with no reference: every pass must repeat the first pass's value."""
        self.digests[key] = (value, items)

    def check(self, ok: bool, items: int = 1) -> None:
        """A guarantee that must hold for ``items`` items already counted as attempted."""
        if not ok:
            self.failed += items


def _rebuild(p):
    return val.ValuationProfile(p.models, graph=p.graph, declared_L=p.declared_L)


class Workload:
    name = ""
    unit = ""
    #: seconds one pass takes on the seed code (2-vCPU VM, CPython 3.11): the
    #: run makes ``round(seconds / pass_s)`` passes whatever the code's speed
    pass_s = 1.0

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.profiles: list = []
        self.paths: list[Path] = []

    def instance_seed(self, j: int) -> int:
        return ref.derive_seed("perfbench", self.name, self.seed, j)

    def specs(self) -> list[tuple]:
        """(model, n, graph, graph_p) per instance."""
        raise NotImplementedError

    def setup(self, tmp: Path, clock: Clock) -> list[tuple[float, float]]:
        """Make every instance; returns the (start, end) of each."""
        self.profiles, self.paths, spans = [], [], []
        for j, spec in enumerate(self.specs()):
            t0 = perf_counter()
            profile, path = self.make(tmp, j, spec)
            spans.append((t0, perf_counter()))
            clock.tick()
            self.profiles.append(profile)
            self.paths.append(path)
        return spans

    def make(self, tmp: Path, j: int, spec: tuple):
        """Generate, save and load instance ``j``; returns its profile and file."""
        model, n, graph, graph_p = spec
        p = ex.gen_instance(model, n, seed=self.instance_seed(j), graph=graph, graph_p=graph_p)
        path = tmp / f"{j}.json"
        eio.save_instance(p, path)
        return eio.load_instance(path), path

    def docs(self) -> list[dict]:
        return [json.loads(path.read_text()) for path in self.paths]

    def run_pass(self, rec: Pass) -> None:
        raise NotImplementedError

    def reference(self) -> dict:
        """Expected value per output key of a pass."""
        raise NotImplementedError

    def extra_checks(self) -> tuple[int, int]:
        """(attempted, failed) of checks made once per run, outside the passes."""
        return 0, 0

    def counted_queries(self) -> int | None:
        """Valuation evaluations of one pass, when ``Oracle.queries`` cannot see them."""
        return None

    def value_ns(self) -> float:
        """Nanoseconds per ``Oracle.value`` call over this workload's instances and masks.

        2000 seeded (agent, mask) pairs per instance; the fastest of three rounds.
        """
        calls_per_instance = 2000
        rng = random.Random(self.seed)
        probes = []
        for p in self.profiles:
            pairs = []
            for _ in range(calls_per_instance):
                i = rng.randrange(p.n)
                pairs.append((i, rng.getrandbits(p.n) | (1 << i)))
            probes.append((p.oracle().value, pairs))
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            for value, pairs in probes:
                for i, s in pairs:
                    value(i, s)
            best = min(best, perf_counter() - t0)
        return best / (calls_per_instance * len(probes)) * 1e9


class ExactExpect(Workload):
    """Exact certification: F^(1..3), 3^n expected revenue, quarter bound, partition stats."""

    name = "exact_expect"
    unit = "labeled tripartitions evaluated"
    #: an n = 6 instance takes about 12 ms, and each size up about 3.5 times more
    COUNTS = {6: 76, 7: 16, 8: 5, 9: 2, 10: 1}
    pass_s = 7.5

    def specs(self):
        counts = {4: 2, 5: 1} if self.tiny else self.COUNTS
        return [(model, n, graph, 0.5) for model, n, graph in rotation(counts)]

    @property
    def max_m(self) -> int:
        return 20 if self.tiny else 70

    def run_pass(self, rec):
        for j, base in enumerate(self.profiles):
            t0 = perf_counter()
            o = _rebuild(base).oracle()
            f = [bm.benchmark_bruteforce(o, k).value for k in (1, 2, 3)]
            expected = mech.main_mechanism_exact_expectation(o)
            checked, skipped, failures = ex.quarter_bound_exhaustive(o)
            rec.step(t0)
            rec.queries += o.queries
            rec.units += 2 * 3 ** o.n
            rec.output(j, (*f, expected, checked, skipped, len(failures)))
            rec.check(expected >= f[2] / ex.REVENUE_GUARANTEE_FACTOR - TOL and not failures)
        ms = range(3, self.max_m + 1)
        t0 = perf_counter()
        try:
            stats = tuple(ex.partition_min_expectation(m) for m in ms)
            tails = tuple(ex.chernoff_tail_check(m) for m in ms)
            ok = all(e >= Fraction(2 * m, 27) for e, m in zip(stats, ms))
        except AssertionError:
            stats = tails = None
            ok = False
        rec.step(t0, item=False)
        rec.output("partition_stats", (stats, tails))
        rec.check(ok)

    def reference(self):
        out = {}
        for j, doc in enumerate(self.docs()):
            v = ref.Valuation(doc)
            f = [ref.best_fixed_price(v, k)[0] for k in (1, 2, 3)]
            out[j] = (*f, ref.expected_revenue(v), *ref.quarter_bound_counts(v))
        ms = range(3, self.max_m + 1)
        out["partition_stats"] = (tuple(ref.min_box_expectation(m) for m in ms),
                                  tuple(ref.low_tail(m) for m in ms))
        return out


class Deviation(Workload):
    """Criterion-5 truthfulness testing: one deviation_test call per (instance, mechanism)."""

    name = "deviation"
    unit = "misreport comparisons"
    pass_s = 0.6
    run_seeds = 2

    def specs(self):
        counts = {4: 1, 5: 1} if self.tiny else {8: 12, 9: 6, 10: 3}
        return [(model, n, graph, 0.5) for model, n, graph in rotation(counts)]

    @property
    def misreports(self) -> int:
        return 20 if self.tiny else 100

    def mechanisms(self, profile, price):
        out = [("main", lambda p, s: mech.main_mechanism(p, s)),
               ("fixed_price", lambda p, s: mech.fixed_price_mechanism(p, price))]
        if all(isinstance(m, val.AdditiveModel) for m in profile.models):
            out.append(("mechanism2", lambda p, s: mech.mechanism2(p, alpha=1.0, rng=s)))
        return out

    def run_pass(self, rec):
        for j, base in enumerate(self.profiles):
            t0 = perf_counter()
            profile = _rebuild(base)
            plan = tr.misreport_plan(profile, self.misreports, seed=self.instance_seed(j))
            o = profile.oracle()
            price = bm.benchmark_bruteforce(o, 1).price
            rec.step(t0, item=False)
            rec.queries += o.queries
            seeds = [ref.derive_seed("run", self.instance_seed(j), r) for r in range(self.run_seeds)]
            for label, fn in self.mechanisms(profile, price):
                stamps: list[float] = []
                outcomes: list = []

                def timed(p, s, fn=fn):
                    stamps.append(perf_counter())
                    out = fn(p, s)
                    rec.queries += out.queries_used
                    outcomes.append(out)
                    return out

                t0 = perf_counter()
                violations = tr.deviation_test(timed, profile, plan, seeds=seeds)
                stamps.append(perf_counter())
                rec.steps.append((t0, stamps[-1]))
                # stamps: per seed, the truthful run then one per misreport
                block = len(plan) + 1
                for b in range(len(seeds)):
                    first = b * block
                    rec.items.extend((stamps[k], stamps[k + 1])
                                     for k in range(first + 1, first + block))
                rec.clock.tick()
                compared = len(seeds) * len(plan)
                rec.units += compared
                rec.misreports += compared
                rec.output((j, label), len(stamps) - 1, items=compared)
                rec.digest((j, label), ref.rows_digest([(o.winners, sorted(o.payments.items()))
                                                        for o in outcomes]), items=compared)
                rec.check(not violations, items=len(violations))

    def reference(self):
        out = {}
        for j, p in enumerate(self.profiles):
            calls = self.run_seeds * (len(tr.misreport_plan(p, self.misreports,
                                                            seed=self.instance_seed(j))) + 1)
            for label, _ in self.mechanisms(p, 0.0):
                out[(j, label)] = calls
        return out

    def extra_checks(self):
        """Negative control: a first-price auction must be caught lying-profitable."""
        p = self.profiles[0]
        flagged = tr.deviation_test(tr.broken_first_price_mechanism, p,
                                    tr.misreport_plan(p, 50, seed=self.seed))
        return 1, 0 if flagged else 1


class MCLarge(Workload):
    """Monte-Carlo campaign runs at n = 32..128 on sparse graphs, as ratio_campaign does."""

    name = "mc_large"
    unit = "mechanism runs"
    pass_s = 0.6

    def specs(self):
        sizes = [16, 20] if self.tiny else [32, 40, 48, 64, 80, 96, 128]
        # the parametric families (tables stop at n = 10) on the sparse graph kinds
        plan = rotation(dict.fromkeys(sizes, 1), kinds=KINDS[1:], graphs=GRAPHS[1:])
        return [(model, n, graph, 4 / n) for model, n, graph in plan]

    @property
    def trials(self) -> int:
        return 3 if self.tiny else 80

    def names(self):
        return [f"{model}-n{n}-{j}" for j, (model, n, _, _) in enumerate(self.specs())]

    def run_pass(self, rec):
        self.max_run = self.max_sweep = (0, 0)
        self.rows = []
        for j, (base, name) in enumerate(zip(self.profiles, self.names())):
            t0 = perf_counter()
            profile = _rebuild(base)
            n = profile.n
            o = profile.oracle()
            f3 = bm.benchmark_sweep(o, 3).value
            rec.step(t0, item=False)
            rec.queries += o.queries
            sweep_budget = n * (n + 1) // 2
            self.max_sweep = max(self.max_sweep, (o.queries, sweep_budget))
            rec.check(o.queries <= sweep_budget, items=self.trials)
            revenues = []
            for t in range(self.trials):
                run_seed = ex.derive_seed("campaign", self.seed, name, t)
                t0 = perf_counter()
                out = mech.main_mechanism(profile, run_seed)
                rec.step(t0)
                revenues.append(out.revenue)
                rec.queries += out.queries_used
                self.max_run = max(self.max_run, (out.queries_used, 10 * n * n))
                rec.check(out.queries_used <= 10 * n * n)
            rec.units += self.trials
            self.rows.append(ref.campaign_row(name, self.seed, n, f3, revenues))
            rec.output(("row", j), self.rows[-1], items=self.trials)

    def row_digest(self) -> str:
        """Digest of the last pass's Monte-Carlo rows (all passes repeat the first)."""
        return ref.rows_digest(self.rows)

    def reference(self):
        rows = ref.campaign_rows(self.docs(), self.names(), self.seed, self.trials)
        return {("row", j): row for j, row in enumerate(rows)}


class Validate(Workload):
    """``extauction check`` through cli.main on saved files, about 10% of them invalid."""

    name = "validate"
    unit = "instance files"
    #: invalid file kind -> (exit code, valid flag): "outside" fails in the
    #: loader, "negative" after the checker's first 100 violations, and
    #: "nonmonotone" only when the scan reaches the full set
    INVALID = {"outside": (2, None), "negative": (1, False), "nonmonotone": (1, False)}
    #: a valid n = 6 file takes about 11 ms to check, and each size up about 3 times more
    COUNTS = {6: 62, 7: 24, 8: 9, 9: 2, 10: 1, 11: 1, 12: 1}
    pass_s = 4.5

    def specs(self):
        """(model, n, graph, invalid kind or None) per file."""
        if self.tiny:
            counts, bad = {4: 2, 5: 2, 6: 1, 7: 1}, {0: "nonmonotone", 1: "outside", 5: "negative"}
        else:
            # every tenth file, and the n = 12 one, whose check stops early
            counts, kinds = self.COUNTS, list(self.INVALID)
            bad = {j: kinds[k % 3] for k, j in enumerate(range(5, 95, 10))} | {99: "negative"}
        return [(model, n, graph, bad.get(j))
                for j, (model, n, graph) in enumerate(rotation(counts))]

    @staticmethod
    def corrupt(doc: dict, kind: str) -> None:
        """Replace agent 0 with one that breaks a condition."""
        n = doc["n"]
        if kind == "outside":
            agent = {"model": "table", "values": {str(n - 1): 1.0}}
        elif kind == "negative":
            agent = {"model": "graph_concave", "t": -1.0}
        else:
            # every set at 1 but the full set, the last one scanned
            agent = {"model": "table", "values": {
                ",".join(str(i) for i in range(n) if (s >> i) & 1): 0.0 if s == (1 << n) - 1 else 1.0
                for s in range(1, 1 << n) if s & 1}}
        doc["agents"][0] = agent

    def make(self, tmp, j, spec):
        """Generate and save file ``j``; loading it is the timed work."""
        model, n, graph, kind = spec
        if n > TABLE_MAX_N:
            # gen_instance would run the whole n >= 11 check, seconds long, in
            # every set-up; graph-concave profiles are valid by construction
            rng = random.Random(self.instance_seed(j))
            p = val.ValuationProfile([val.GraphConcaveModel(rng.uniform(1.0, 10.0),
                                                            rng.uniform(0.2, 2.0))
                                      for _ in range(n)])
        else:
            p = ex.gen_instance(model, n, seed=self.instance_seed(j), graph=graph)
        path = tmp / f"{j}.json"
        eio.save_instance(p, path)
        if kind:
            doc = json.loads(path.read_text())
            self.corrupt(doc, kind)
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return p, path

    def run_pass(self, rec):
        for j, path in enumerate(self.paths):
            out, err = stdio.StringIO(), stdio.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter()
                code = cli.main(["check", "--instance", str(path)])
                rec.step(t0)
            doc = json.loads(out.getvalue()) if code in (0, 1) else {}
            rec.units += 1
            rec.output(j, (code, doc.get("valid"), doc.get("n"), doc.get("estimated_L")))

    def reference(self):
        out = {}
        for j, (_, n, _, kind) in enumerate(self.specs()):
            if kind is None:
                out[j] = (0, True, n, 1.0)
            else:
                code, valid = self.INVALID[kind]
                out[j] = (code, valid, n if code != 2 else None, None)
        return out

    def counted_queries(self):
        """The checker calls the uncounted ``ValuationProfile.value``; count it for one pass."""
        cls = val.ValuationProfile
        original = cls.__dict__["value"]
        count = [0]

        def value(profile, i, s):
            count[0] += 1
            return original(profile, i, s)

        cls.value = value
        try:
            self.run_pass(Pass(Clock()))
        finally:
            cls.value = original
        return count[0]


WORKLOADS = {w.name: w for w in (ExactExpect, Deviation, MCLarge, Validate)}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
