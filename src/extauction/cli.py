"""Command-line harness.

Subcommands: ``check``, ``benchmark``, ``run``, ``expect``, ``verify``,
``experiment``, ``demo``.  Exit codes: 0 success / all checks pass,
1 a property violation was found, 2 usage or IO error.  All output is
structured JSON on stdout; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import benchmark as bm
from . import experiments as ex
from . import mechanisms as mech
from . import truthfulness as tr
from .io import emit_report, instance_digest, is_number, load_instance, require_keys, require_valid
from .valuations import EPS, EXHAUSTIVE_MAX_N, check_conditions, estimate_L


class UsageError(Exception):
    """Usage error signalled from a subcommand."""


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


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


def _cmd_check(args) -> int:
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
    _print(out)
    return 0 if not violations else 1


def _cmd_benchmark(args) -> int:
    profile = _load(args.instance)
    oracle = profile.oracle()
    fn = bm.benchmark_bruteforce if args.method == "brute" else bm.benchmark_sweep
    res = fn(oracle, args.k)
    out = res.to_json()
    out["method"] = args.method
    out["queries"] = oracle.queries
    _print(out)
    return 0


def _cmd_run(args) -> int:
    profile = _load(args.instance)
    mechanism = _mechanism(args)
    out = mechanism(profile, args.seed).to_json()
    out["mechanism"] = args.mechanism
    out["seed"] = args.seed
    _print(out)
    return 0


def _cmd_expect(args) -> int:
    profile = _load(args.instance)
    expected = mech.main_mechanism_exact_expectation(profile)
    f3 = bm.benchmark_bruteforce(profile, 3).value
    bound = f3 / ex.REVENUE_GUARANTEE_FACTOR
    out = {
        "expected_revenue": expected,
        "f3": f3,
        "bound": bound,
        "bound_ok": expected >= bound - EPS,
    }
    _print(out)
    return 0 if out["bound_ok"] else 1


def _cmd_verify(args) -> int:
    profile = _load(args.instance)
    mechanism = _mechanism(args)
    count = args.misreports * (4 if args.exhaustive else 1)
    plan = tr.misreport_plan(profile, count, seed=args.seed)
    violations = tr.deviation_test(mechanism, profile, plan, seeds=range(args.runs))
    _print(
        {
            "mechanism": args.mechanism,
            "misreports": len(plan),
            "runs": args.runs,
            "violations": [
                {"agent": v.agent, "seed": v.seed, "label": v.label, "gain": v.gain}
                for v in violations[:20]
            ],
            "truthful": not violations,
        }
    )
    return 0 if not violations else 1


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


#: the keys an experiment config may hold, at the top level and in each instance entry
_CONFIG_KEYS = {"seed", "mode", "instances", "trials", "alpha", "m_values"}
_INSTANCE_KEYS = {"model", "n", "name", "graph", "graph_p"}


def _check_config(obj: dict, allowed: set[str], where: str) -> None:
    """Unknown keys are rejected, as in instance files; known ones must have their types."""
    require_keys(obj, allowed, set(), where)
    for key, (ok, want) in _CONFIG_TYPES.items():
        if key in obj and not ok(obj[key]):
            raise UsageError(f"{where}: {key!r} must be {want}, got {obj[key]!r}")


def _cmd_experiment(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, huge int literal, deep nesting
        raise UsageError(f"{args.config} is not valid JSON: {e}") from e
    if not isinstance(config, dict):
        raise UsageError(f"{args.config}: experiment config must be a JSON object")
    _check_config(config, _CONFIG_KEYS, args.config)
    seed = config.get("seed", 0)
    suites = {
        "exact": ex.revenue_guarantee_suite,
        "monte-carlo": lambda inst: ex.ratio_campaign(inst, config.get("trials", 100), seed),
        "additive-bound": lambda inst: ex.additive_bound_suite(inst, config.get("alpha", 1.0)),
        "f2-gap": lambda inst: ex.f2_gap_demo(config.get("m_values", ex.F2_GAP_M_VALUES)),
    }
    mode = config.get("mode", "exact")
    if not isinstance(mode, str) or mode not in suites:
        raise UsageError(f"unknown experiment mode {mode!r}")
    if mode != "f2-gap" and not config.get("instances"):
        raise UsageError(f"{args.config}: mode {mode!r} needs a non-empty 'instances' list")
    instances = []
    for j, spec in enumerate(config.get("instances", [])):
        _check_config(spec, _INSTANCE_KEYS, f"{args.config}: instances[{j}]")
        if not {"model", "n"} <= spec.keys():
            raise UsageError(f"{args.config}: instances[{j}] needs 'model' and 'n'")
        name = spec.get("name") or f"{spec['model']}-n{spec['n']}"
        profile = ex.gen_instance(
            spec["model"],
            spec["n"],
            seed=ex.derive_seed(seed, name),
            graph=spec.get("graph"),
            graph_p=spec.get("graph_p", 0.5),
        )
        instances.append((name, profile))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = suites[mode](instances)
    report.summary["seed"] = seed
    report.summary["mode"] = mode
    report.summary["instance_digests"] = {name: instance_digest(p) for name, p in instances}
    emit_report(report, "csv", outdir / "rows.csv")
    emit_report(report, "json", outdir / "summary.json")
    _print({"rows": len(report.rows), "out": str(outdir), "mode": mode})
    return 1 if report.summary.get("violations") else 0


def _cmd_demo(args) -> int:
    if args.which == "f2-gap":
        report = ex.f2_gap_demo(args.m_values)
        _print(
            {
                "columns": list(report.columns),
                "rows": [[str(x) for x in row] for row in report.rows],
                "note": "ratio vs the 2-winner benchmark grows without bound",
            }
        )
        return 0
    _print(ex.losing_value_demo())  # the parser allows only these two demos
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    c.add_argument("--exhaustive", action="store_true")
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
        return args.fn(args)
    except (ValueError, UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
