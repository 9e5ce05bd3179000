"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload exact_expect --seed 1 --seconds 12 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The line before it holds provenance and guard details.
``--out FILE`` also appends both, as one JSON line, to a results file that
``perfbench/compare.py`` reads.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import NOMINAL_S, Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: set-up repeats: at least SETUP_REPS, more while they total under SETUP_MIN_S
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 15
#: timed passes per run, at the least
MIN_PASSES = 2


def load_library() -> None:
    """Import the library from this checkout's ``src/``; raise ImportError otherwise."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import extauction

    if SRC not in Path(extauction.__file__).resolve().parents:
        raise ImportError(f"extauction was imported from {extauction.__file__}, not {SRC}")


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Timed:
    """Timed passes, folded as each one ends so memory does not grow with their number.

    Step and item times are scaled to the calibrated speed (``clock.py``).
    Throughput and item percentiles are taken per pass and reported as their
    median over passes, which a burst of contention during one pass does not
    move.  The number of passes is fixed for a workload and ``--seconds``, so
    every commit does the same work.  An output must match the reference and
    repeat in every pass.
    """

    def __init__(self):
        self.first = None
        self.passes = 0
        self.wall = 0.0
        self.items = 0
        self.step_s = 0.0
        self.raw_step_s = 0.0
        self.rates: list[float] = []
        self.p50: list[float] = []
        self.p90: list[float] = []
        self.speeds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.repeats: dict = {}

    def add(self, rec) -> None:
        clock = rec.clock
        step_s = sum(clock.scaled(start, end) for start, end in rec.steps)
        latencies = [clock.scaled(start, end) for start, end in rec.items]
        self.passes += 1
        self.wall += rec.wall
        self.items += len(latencies)
        self.step_s += step_s
        self.raw_step_s += sum(end - start for start, end in rec.steps)
        self.rates.append(rec.units / step_s)
        self.p50.append(statistics.median(latencies))
        self.p90.append(statistics.quantiles(latencies, n=10)[8])
        self.speeds.extend(clock.durations[1:])
        self.attempted += rec.attempted
        self.failed += rec.failed
        if self.first is None:
            self.first = rec
            self.repeats = dict.fromkeys(rec.outputs, 1)
            return
        for key, (value, items) in rec.digests.items():
            if value != self.first.digests[key][0]:
                self.failed += items
        for key, (value, items) in rec.outputs.items():
            if value == self.first.outputs[key][0]:
                self.repeats[key] += 1
            else:
                self.failed += items

    def verify(self, expected: dict) -> None:
        """Fail every pass whose output equals a first-pass output that is wrong."""
        for key, (value, items) in self.first.outputs.items():
            if value != expected.get(key):
                self.failed += items * self.repeats[key]


def _timed_passes(wl, passes: int, tracer=None) -> Timed:
    import tracing
    from workloads import Pass

    timed = Timed()
    clock = Clock()
    clock.calibrate()
    for _ in range(passes):
        rec = Pass(clock)
        t0 = perf_counter()
        with tracing.instrument(tracer):
            wl.run_pass(rec)
        rec.wall = perf_counter() - t0
        clock.calibrate()
        timed.add(rec)
        clock.restart()
    return timed


def _setup_s(wl, tmp: Path, tracer) -> float:
    """One set-up of ``wl`` in an emptied ``tmp``, timed at the calibrated speed."""
    import tracing
    import workloads

    workloads.fresh_dir(tmp)
    clock = Clock()
    clock.calibrate()
    with tracing.instrument(tracer):
        spans = wl.setup(tmp, clock)
    clock.calibrate()
    return sum(clock.scaled(start, end) for start, end in spans)


def pass_count(wl, seconds: float) -> int:
    """Passes of ``wl`` that take about ``seconds`` on the seed code, independent of the code."""
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and verify one workload; returns the result and its details.

    ``tiny`` shrinks every instance set to a size the smoke test can afford.
    """
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, tiny=tiny)
    tmp = workloads.fresh_dir(OUT / f"{name}-{seed}-{os.getpid()}")
    setup_tracer = tracing.Tracer() if trace else None
    pass_tracer = tracing.Tracer() if trace else None
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPS or (sum(setup_times) < SETUP_MIN_S
                                                and len(setup_times) < SETUP_MAX_REPS):
            setup_times.append(_setup_s(wl, tmp, setup_tracer))
        if trace:
            value_ns = wl.value_ns()
            untraced = _timed_passes(wl, pass_count(wl, seconds)).step_s
            timed = _timed_passes(wl, pass_count(wl, seconds), pass_tracer)
        else:
            timed = _timed_passes(wl, pass_count(wl, seconds))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed.verify(wl.reference())
        extra_attempted, extra_failed = wl.extra_checks()
        attempted, failed = timed.attempted + extra_attempted, timed.failed + extra_failed
        first = timed.first
        queries = first.queries if trace else wl.counted_queries() or first.queries
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        overhead = (timed.step_s - untraced) / untraced
        metrics = tracing.layer_metrics(setup_tracer, len(setup_times), pass_tracer, timed.passes,
                                        queries, first.misreports, value_ns, overhead)
        trace_file = OUT / f"trace-{name}-seed{seed}.jsonl"
        pass_tracer.write(trace_file)
    else:
        metrics = {
            "work_per_s": _metric(statistics.median(timed.rates), "1/s"),
            "item_ms_p50": _metric(statistics.median(timed.p50) * 1e3, "ms"),
            "item_ms_p90": _metric(statistics.median(timed.p90) * 1e3, "ms"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "value_queries": _metric(queries, "count"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "ok_frac": _metric(1 - failed / attempted, "ratio"),
        }
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "work_unit": wl.unit,
        "passes": timed.passes,
        "nominal_pass_s": wl.pass_s,
        "items": timed.items,
        "timed_s": timed.wall,
        "raw_work_per_s": first.units * timed.passes / timed.raw_step_s,
        "speed": NOMINAL_S / statistics.median(timed.speeds),
        "setup_runs_s": setup_times,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    if name == "mc_large":
        details["row_digest"] = wl.row_digest()
        details["max_run_queries"], details["run_budget"] = wl.max_run
        details["max_sweep_queries"], details["sweep_budget"] = wl.max_sweep
    if trace:
        details["trace_file"] = str(trace_file.relative_to(ROOT))
        details["spans_kept"] = len(pass_tracer.spans)
        details["spans_dropped"] = pass_tracer.dropped
        details["max_sweep_queries"] = pass_tracer.counts["benchmark.sweep.max_queries"]
        details["sweeps_over_budget"] = pass_tracer.counts["benchmark.sweep.over_budget"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="extauction benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["exact_expect", "deviation", "mc_large", "validate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append this run to a JSON-lines results file")
    args = parser.parse_args(argv)
    try:
        load_library()
    except ImportError as e:
        print(f"error: cannot import the library: {e}", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(run) + "\n")
    print(json.dumps(run["details"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
