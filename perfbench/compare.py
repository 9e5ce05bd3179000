"""Compare two results files written by ``run.py --out``.

    python3 perfbench/compare.py parent.jsonl change.jsonl

For each (workload, metric) it prints the median and quartiles of each side,
the pairs the change won, and a verdict.  Runs pair up by workload, trace mode
and seed, in the order they were recorded.  The verdicts follow the rule for
claiming a gain on a small, noisy machine:

* ``improved``: at least 10 pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ, in the better
  direction, by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound, and the parent's spread is within the bound or every run of
  the change reads worse than every run of the parent.  On ``ok_frac`` any fall
  of the median or of the worst run is worse: a wrong output is never noise;
* ``no worse``: the change's median is not worse by more than the bound, and
  the parent's spread is within the bound or every run of the change reads
  better than every run of the parent;
* ``unresolved``: anything else, including per-layer metrics (which have no
  bound) that are neither improved nor worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: metrics on which any fall reads "worse", whatever their bound
STRICT = {"ok_frac"}


def load_spec() -> dict:
    """metric name -> (better, bound or None), from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}
    spec.update({m["name"]: (m["better"], None) for m in doc["per_layer"]})
    return spec


def load_runs(path) -> dict:
    """(workload, metric) -> {(trace, seed): [values in file order]}."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        d = run["details"]
        for name, m in run["result"]["metrics"].items():
            runs[(d["workload"], name)][(d["trace"], d["seed"])].append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a: list, b: list, pairs: list, better: str, bound: float | None,
            strict: bool = False) -> tuple[str, int]:
    """Verdict for change ``b`` against parent ``a``, and the pairs ``b`` won."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    ma, mb = statistics.median(a), statistics.median(b)
    qa = quartiles(a)
    spread = qa[1] - qa[0]
    gain = sign * (mb - ma)
    if strict and (gain < 0 or min(sign * y for y in b) < min(sign * x for x in a)):
        return "worse", wins
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", wins
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", wins
        return "unresolved", wins
    steady = abs(ma) > 0 and spread / abs(ma) <= bound
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    all_worse = max(sign * y for y in b) < min(sign * x for x in a)
    if -gain > bound * abs(ma) and (steady or all_worse):
        return "worse", wins
    if -gain <= bound * abs(ma) and (steady or all_better):
        return "no worse", wins
    return "unresolved", wins


def compare(parent_path, change_path) -> list[dict]:
    spec = load_spec()
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in spec:
            continue
        pa, pb = parent[key], change[key]
        pairs = [xy for k in sorted(set(pa) & set(pb)) for xy in zip(pa[k], pb[k])]
        a = [x for v in pa.values() for x in v]
        b = [y for v in pb.values() for y in v]
        better, bound = spec[metric]
        v, wins = verdict(a, b, pairs, better, bound, strict=metric in STRICT)
        rows.append({"workload": workload, "metric": metric,
                     "parent": (statistics.median(a), *quartiles(a)),
                     "change": (statistics.median(b), *quartiles(b)),
                     "pairs": len(pairs), "won": wins, "verdict": v})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py PARENT_RESULTS CHANGE_RESULTS", file=sys.stderr)
        return 2
    print(f"{'workload':13} {'metric':36} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'won':>7}  verdict")
    for r in compare(*argv):
        pa = "{:.6g} [{:.6g}, {:.6g}]".format(*r["parent"])
        ch = "{:.6g} [{:.6g}, {:.6g}]".format(*r["change"])
        print(f"{r['workload']:13} {r['metric']:36} {pa:34} {ch:34} "
              f"{r['won']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
