"""Command-line harness.

Subcommands: ``check``, ``benchmark``, ``run``, ``expect``, ``verify``,
``experiment``, ``demo``.  Each returns its document and whether its checks
passed; ``main`` alone prints the document as strict JSON on stdout and exits
0 (all pass), 1 (a property violation was found) or 2 (a usage or IO error,
or a result that is not finite).  Identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import benchmark as bm
from . import experiments as ex
from . import mechanisms as mech
from . import truthfulness as tr
from .io import instance_digest, is_number, load_instance, require_keys, require_valid, write_report
from .valuations import EXHAUSTIVE_MAX_N, check_conditions, estimate_L


class UsageError(Exception):
    """Usage error signalled from a subcommand."""


def _count(text: str) -> int:
    """A count argument: an integer >= 1, since a check over zero cases checks nothing."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _load(path):
    """An instance file a command runs on, validated at every n."""
    profile = load_instance(path, validate=False)
    require_valid(profile, path)
    return profile


def _mechanism(args):
    """``fn(profile, seed)`` for ``--mechanism``, shared by ``run`` and ``verify``;
    ``--price -0`` runs at 0.0, so no payment prints ``-0.0``."""
    if args.mechanism == "fixed-price" and args.price is None:
        raise UsageError("--price is required for the fixed-price mechanism")
    mechanisms = {
        "main": lambda p, s: mech.main_mechanism(p, s),
        "fixed-price": lambda p, s: mech.fixed_price_mechanism(p, args.price + 0.0),
        "mechanism2": lambda p, s: mech.mechanism2(p, alpha=args.alpha, rng=s),
        "broken": tr.broken_first_price_mechanism,
    }
    if args.mechanism not in mechanisms:
        raise UsageError(f"unknown mechanism {args.mechanism!r}")
    return mechanisms[args.mechanism]


def _cmd_check(args) -> tuple[dict, bool]:
    profile = load_instance(args.instance, validate=False)
    mode = "sampled" if args.sampled else "auto"
    violations = check_conditions(profile, mode=mode, samples=args.samples, seed=args.seed)
    out = {
        "n": profile.n,
        "violations": [v.describe() for v in violations],
        "valid": not violations,
    }
    if not violations and profile.n <= EXHAUSTIVE_MAX_N:
        # a clean exhaustive check has passed every witness pair, so L = 1
        out["estimated_L"] = estimate_L(profile) if args.sampled else 1.0
    return out, not violations


def _cmd_benchmark(args) -> tuple[dict, bool]:
    profile = _load(args.instance)
    oracle = profile.oracle()
    fn = bm.benchmark_bruteforce if args.method == "brute" else bm.benchmark_sweep
    res = fn(oracle, args.k)
    out = res.to_json()
    out["method"] = args.method
    out["queries"] = oracle.queries
    return out, True


def _cmd_run(args) -> tuple[dict, bool]:
    profile = _load(args.instance)
    mechanism = _mechanism(args)
    out = mechanism(profile, args.seed).to_json()
    out["mechanism"] = args.mechanism
    out["seed"] = args.seed
    return out, True


def _cmd_expect(args) -> tuple[dict, bool]:
    expected, f3, bound_ok = ex.revenue_guarantee_check(_load(args.instance))
    bound = f3 / ex.REVENUE_GUARANTEE_FACTOR
    return {"expected_revenue": expected, "f3": f3, "bound": bound, "bound_ok": bound_ok}, bound_ok


def _cmd_verify(args) -> tuple[dict, bool]:
    profile = _load(args.instance)
    mechanism = _mechanism(args)
    plan = tr.misreport_plan(profile, args.misreports, seed=args.seed)
    violations = tr.deviation_test(mechanism, profile, plan, seeds=range(args.runs))
    return {
        "mechanism": args.mechanism,
        "misreports": len(plan),
        "runs": args.runs,
        "violations": [
            {"agent": v.agent, "seed": v.seed, "label": v.label, "gain": v.gain}
            for v in violations[:20]
        ],
        "truthful": not violations,
    }, not violations


#: experiment config field -> (type test, what it must be), for the top level
#: and each instance entry alike
_CONFIG_TYPES = {
    "instances": (lambda x: type(x) is list and all(type(e) is dict for e in x),
                  "a list of objects"),
    "model": (lambda x: type(x) is str, "a string"),
    "name": (lambda x: type(x) is str, "a string"),
    "n": (lambda x: type(x) is int, "an integer"),
    "seed": (lambda x: type(x) is int, "an integer"),
    "trials": (lambda x: type(x) is int and x >= 1, "an integer >= 1"),
    "alpha": (is_number, "a number"),
    "graph_p": (lambda x: is_number(x) and 0 <= x <= 1, "a number in [0, 1]"),
    "m_values": (lambda x: type(x) is list and all(map(is_number, x)), "a list of numbers"),
}


#: experiment mode -> (the config keys it reads besides ``seed`` and ``mode``,
#: ``(config.get, seed, instances) -> report``); a key the mode does not read is refused
_MODES = {
    "exact": ({"instances"}, lambda get, seed, inst: ex.revenue_guarantee_suite(inst)),
    "monte-carlo": ({"instances", "trials"},
                    lambda get, seed, inst: ex.ratio_campaign(inst, get("trials", 100), seed)),
    "additive-bound": ({"instances", "alpha"},
                       lambda get, seed, inst: ex.additive_bound_suite(inst, get("alpha", 1.0))),
    "f2-gap": ({"m_values"},
               lambda get, seed, inst: ex.f2_gap_demo(get("m_values", ex.F2_GAP_M_VALUES))),
}
_INSTANCE_KEYS = {"model", "n", "name", "graph", "graph_p"}


def _check_config(obj: dict, allowed: set[str], where: str) -> None:
    """Unknown keys are rejected, as in instance files; known ones must have their types."""
    require_keys(obj, allowed, set(), where)
    for key, (ok, want) in _CONFIG_TYPES.items():
        if key in obj and not ok(obj[key]):
            raise UsageError(f"{where}: {key!r} must be {want}, got {obj[key]!r}")


def _cmd_experiment(args) -> tuple[dict, bool]:
    try:
        config = json.loads(Path(args.config).read_text())
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, huge int literal, deep nesting
        raise UsageError(f"{args.config} is not valid JSON: {e}") from e
    if not isinstance(config, dict):
        raise UsageError(f"{args.config}: experiment config must be a JSON object")
    mode = config.get("mode", "exact")
    if not isinstance(mode, str) or mode not in _MODES:
        raise UsageError(f"unknown experiment mode {mode!r}")
    keys, suite = _MODES[mode]
    _check_config(config, {"seed", "mode", *keys}, args.config)
    if "instances" in keys and not config.get("instances"):
        raise UsageError(f"{args.config}: mode {mode!r} needs a non-empty 'instances' list")
    seed = config.get("seed", 0)
    instances = {}
    for j, spec in enumerate(config.get("instances", [])):
        _check_config(spec, _INSTANCE_KEYS, f"{args.config}: instances[{j}]")
        if not {"model", "n"} <= spec.keys():
            raise UsageError(f"{args.config}: instances[{j}] needs 'model' and 'n'")
        name = spec.get("name") or f"{spec['model']}-n{spec['n']}"
        if name in instances:  # the name seeds the instance, so a repeat is the same one
            raise UsageError(f"{args.config}: instances[{j}] repeats the name {name!r}")
        instances[name] = ex.gen_instance(
            spec["model"],
            spec["n"],
            seed=ex.derive_seed(seed, name),
            graph=spec.get("graph"),
            graph_p=spec.get("graph_p", 0.5),
        )
    report = suite(config.get, seed, list(instances.items()))
    report.summary["seed"] = seed
    report.summary["mode"] = mode
    report.summary["instance_digests"] = {name: instance_digest(p) for name, p in instances.items()}
    write_report(report, args.out)  # only now, so a failed suite leaves no directory
    out = {"rows": len(report.rows), "out": str(Path(args.out)), "mode": mode}
    # a campaign checks its query budget instead of counting violations
    ok = not report.summary.get("violations") and report.summary.get("within_query_budget", True)
    return out, ok


def _cmd_demo(args) -> tuple[dict, bool]:
    if args.which == "losing-value":  # the parser allows only these two demos
        return ex.losing_value_demo(), True
    report = ex.f2_gap_demo(args.m_values)
    return {
        "columns": list(report.columns),
        "rows": [[str(x) for x in row] for row in report.rows],
        "note": "ratio vs the 2-winner benchmark grows without bound",
    }, True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    ``parse_args`` leaves it unchanged, and each ``fn`` default is a module
    function that looks its library calls up when it runs, so reuse changes
    no output.
    """
    p = argparse.ArgumentParser(
        prog="extauction",
        description="Truthful competitive auctions for digital goods with positive externalities",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="validate an instance file against the valuation conditions")
    c.add_argument("--instance", required=True)
    c.add_argument("--sampled", action="store_true", help="force sampled checking")
    c.add_argument("--samples", type=_count, default=10_000)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_check)

    c = sub.add_parser("benchmark", help="compute the best fixed-price revenue F^(k)")
    c.add_argument("--instance", required=True)
    c.add_argument("--k", type=int, default=3)
    c.add_argument("--method", choices=["brute", "sweep"], default="sweep")
    c.set_defaults(fn=_cmd_benchmark)

    c = sub.add_parser("run", help="run one seeded mechanism")
    c.add_argument("--mechanism", choices=["main", "fixed-price", "mechanism2"], required=True)
    c.add_argument("--instance", required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--price", type=float, default=None)
    c.add_argument("--alpha", type=float, default=mech.DEFAULT_ALPHA)
    c.set_defaults(fn=_cmd_run)

    c = sub.add_parser("expect", help="exact 3^n expected revenue of the tripartition auction")
    c.add_argument("--instance", required=True)
    c.set_defaults(fn=_cmd_expect)

    c = sub.add_parser("verify", help="deviation-test a mechanism for truthfulness")
    c.add_argument("--mechanism", required=True)
    c.add_argument("--instance", required=True)
    c.add_argument("--misreports", type=_count, default=200)
    c.add_argument("--runs", type=_count, default=3)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--price", type=float, default=None)
    c.add_argument("--alpha", type=float, default=mech.DEFAULT_ALPHA)
    c.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("experiment", help="run a configured campaign, emit CSV + JSON")
    c.add_argument("--config", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_experiment)

    c = sub.add_parser("demo", help="adversarial demonstrations")
    c.add_argument("--which", choices=["f2-gap", "losing-value"], required=True)
    c.add_argument("--m-values", type=float, nargs="*", default=ex.F2_GAP_M_VALUES)
    c.set_defaults(fn=_cmd_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return e.code
    # the library rejects bad arguments with ValueError (InstanceError and
    # JSONDecodeError are ValueErrors too), so each of them is a usage error
    try:
        document, ok = args.fn(args)
        try:
            text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as e:  # inf or NaN, which JSON cannot hold
            raise UsageError(f"the result is not finite ({e})") from e
        print(text)
    except (ValueError, UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
