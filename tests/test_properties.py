"""Fuzzed contracts (loader, CLI) and metamorphic guarantees (relabel, scale).

Hypothesis runs derandomized, so every tier-1 run tries the same examples.
"""

import contextlib
import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from extauction import (
    TableModel,
    ValuationProfile,
    benchmark_bruteforce,
    benchmark_sweep,
)
from extauction import mechanisms as mech
from extauction.cli import main
from extauction.experiments import gen_instance, quarter_bound_exhaustive
from extauction.io import InstanceError, load_instance, save_instance
from extauction.mechanisms import main_mechanism_exact_expectation

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# --- loader fuzzing ------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "0", "1", "0,1", "2.5", "sqrt", "linear", "table", "degree", "scalar"]),
)
_ANY = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NUMBER = st.floats(-1.0, 8.0) | st.integers(0, 4) | _SCALARS
_TABLE = st.dictionaries(
    st.sampled_from(["0", "1", "2", "0,1", "0,2", "1,2", "0,1,2", "", "x", "-1", "0,9"]),
    _NUMBER,
    max_size=5,
) | _ANY
_WEIGHT = st.fixed_dictionaries(
    {"kind": st.sampled_from(["degree", "table"]) | _ANY},
    optional={"base": _NUMBER, "scale": _NUMBER, "shape": st.sampled_from(["sqrt", "linear"]) | _ANY,
              "values": _TABLE},
)
_AGENT = st.fixed_dictionaries(
    {"model": st.sampled_from(["table", "additive", "scalar", "linear", "graph_concave"]) | _ANY},
    optional={"t": _NUMBER, "weight": _WEIGHT | _ANY, "offset": _WEIGHT, "values": _TABLE,
              "beta": _NUMBER, "shape": _SCALARS},
)
_GRAPH = st.lists(st.lists(st.integers(-1, 3) | _SCALARS, max_size=3), max_size=4) | _ANY
_DOC = st.fixed_dictionaries(
    {"schema": st.just(1) | _SCALARS, "n": st.integers(1, 3) | _SCALARS,
     "agents": st.lists(_AGENT, max_size=3) | _ANY},
    optional={"graph": _GRAPH, "declared_L": _NUMBER, "name": _SCALARS},
) | _ANY


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _loads_or_rejects(path):
    try:
        profile = load_instance(path)
    except InstanceError:
        return
    assert isinstance(profile, ValuationProfile)


@FUZZ
@given(doc=_DOC)
def test_fuzz_loader_returns_a_profile_or_raises_instance_error(fuzz_dir, doc):
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc))
    _loads_or_rejects(path)


@FUZZ
@given(content=st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
def test_fuzz_loader_on_raw_bytes(fuzz_dir, content):
    path = fuzz_dir / "raw.json"
    path.write_bytes(content)
    _loads_or_rejects(path)


# --- CLI fuzzing -----------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Paths the fuzzed argv may name: valid, invalid, missing and hostile inputs."""
    d = tmp_path_factory.mktemp("cli")
    save_instance(gen_instance("additive", 3, seed=1), d / "additive.json")
    save_instance(gen_instance("mixed", 3, seed=2, graph="er"), d / "mixed.json")
    (d / "invalid.json").write_text(json.dumps({
        "schema": 1, "n": 2, "agents": [{"model": "table", "values": {"0": 5.0, "0,1": 1.0}},
                                        {"model": "table", "values": {"1": 1.0}}]}))
    (d / "garbage.json").write_bytes(b"\xff{")
    configs = {
        "exact": {"mode": "exact", "instances": [{"model": "scalar", "n": 3}]},
        "mc": {"mode": "monte-carlo", "trials": 2, "instances": [{"model": "mixed", "n": 3}]},
        "gap": {"mode": "f2-gap", "m_values": [1.0, math.nan]},
        "names": {"mode": "exact", "instances": [{"model": "scalar", "n": 2, "name": 5},
                                                 {"model": "scalar", "n": 2}]},
        "graph": {"mode": "exact", "instances": [{"model": "scalar", "n": 3, "graph": 7}]},
        "mode": {"mode": ["exact"], "seed": [1]},
        "list": [1, 2],
    }
    for name, config in configs.items():
        (d / f"{name}.cfg").write_text(json.dumps(config))
    files = [str(p) for p in sorted(d.iterdir())] + [str(d / "missing.json")]
    return files, [str(d / "additive.json"), str(d / "mixed.json")], str(d / "out")


#: per command, optional (flag, value) pairs: mostly well formed, some out of range or
#: of the wrong type
_VALUES = {
    "--k": ["0", "1", "3", "x"], "--method": ["brute", "sweep"], "--seed": ["0", "7", "-1"],
    "--price": ["0", "0.5", "-1", "nan", "inf"], "--alpha": ["0", "1", "nan", "inf"],
    "--samples": ["0", "3", "x"], "--runs": ["0", "1", "-1"], "--misreports": ["0", "2"],
    "--m-values": ["1", "2.5", "0.5", "nan", "inf", "-1"],
}
_FLAGS = {
    "check": ["--samples", "--seed"], "benchmark": ["--k", "--method"],
    "run": ["--seed", "--price", "--alpha"], "verify": ["--misreports", "--runs", "--seed", "--price"],
    "demo": ["--m-values"],
}
_PAIRS = {cmd: [(f, v) for f in flags for v in _VALUES[f]] for cmd, flags in _FLAGS.items()}
_STRAY = ["--exhaustive", "--sampled", "--help", "bogus", "1", "--k"]


@FUZZ
@given(data=st.data())
def test_fuzz_cli_exits_0_1_or_2_and_never_raises(cli_files, data):
    files, instances, out = cli_files
    draw = data.draw
    cmd = draw(st.sampled_from(["check", "benchmark", "run", "expect", "verify", "experiment",
                                "demo", "bogus"]))
    # the arguments each command requires, then optional pairs and now and then a stray token
    if cmd == "experiment":
        argv = [cmd, "--config", draw(st.sampled_from(files)), "--out", out]
    elif cmd == "demo":
        argv = [cmd, "--which", draw(st.sampled_from(["f2-gap", "losing-value"]))]
    else:
        argv = [cmd, "--instance", draw(st.sampled_from(instances) | st.sampled_from(files))]
    if cmd in ("run", "verify"):
        argv += ["--mechanism", draw(st.sampled_from(["main", "fixed-price", "mechanism2", "broken"]))]
    # a command without options of its own gets one it must reject
    for pair in draw(st.lists(st.sampled_from(_PAIRS.get(cmd, [("--k", "1")])), max_size=3)):
        argv += pair
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(_STRAY)))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    assert code in (0, 1, 2), argv


# --- metamorphic guarantees ---------------------------------------------------------

def _tabulated(profile, perm=None, scale=1.0):
    """Table copy of ``profile`` with agent ``i`` renamed ``perm[i]`` and values times ``scale``."""
    n = profile.n
    perm = perm or list(range(n))

    def rename(s):
        return sum(1 << perm[j] for j in range(n) if s >> j & 1)

    tables = [None] * n
    for i in range(n):
        tables[perm[i]] = TableModel(
            {rename(s): scale * profile.value(i, s) for s in range(1 << n) if s >> i & 1})
    return ValuationProfile(tables)


_INSTANCES = [("table", 4, None), ("scalar", 5, "er"), ("mixed", 5, "pa"), ("linear", 6, "er"),
              ("graph_concave", 6, None), ("additive", 5, "pa")]


@pytest.mark.parametrize("model, n, graph", _INSTANCES)
def test_relabeling_agents_keeps_the_exact_expected_revenue(model, n, graph):
    profile = gen_instance(model, n, seed=11, graph=graph)
    expected = main_mechanism_exact_expectation(profile)
    for seed in range(2):
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        relabeled = main_mechanism_exact_expectation(_tabulated(profile, perm))
        # the same 3^n revenues summed in another order
        assert relabeled == pytest.approx(expected, rel=1e-12, abs=1e-12), perm


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("model, n, graph", _INSTANCES)
def test_scaling_values_keeps_sweep_equal_to_brute(model, n, graph, scale):
    scaled = _tabulated(gen_instance(model, n, seed=5, graph=graph), scale=scale)
    for k in (1, 2, 3):
        sweep, brute = benchmark_sweep(scaled, k), benchmark_bruteforce(scaled, k)
        assert (sweep.value, sweep.price, sweep.winners) == (brute.value, brute.price, brute.winners)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("model, n, graph", _INSTANCES)
def test_scaling_values_keeps_the_expectation_equal_to_the_run_sum(model, n, graph, scale):
    """The exact expectation skips partitions where B cannot pay, with a margin
    partly relative to ``r(C)``; at every scale it still equals, bit for bit,
    the sum of the ``3^n`` single runs."""
    scaled = _tabulated(gen_instance(model, n, seed=5, graph=graph), scale=scale)
    oracle = scaled.oracle()
    total = 0.0
    for part in mech.Partition3.all_partitions(n):
        total += mech.main_mechanism(oracle, partition=part).revenue
    assert main_mechanism_exact_expectation(scaled) == total / 3**n


# --- the r(C) memo ------------------------------------------------------------------

def test_second_quarter_bound_scan_on_one_oracle_sweeps_nothing(monkeypatch):
    profile = gen_instance("mixed", 5, seed=3, graph="er")
    oracle = profile.oracle()
    first = quarter_bound_exhaustive(oracle)
    sweeps = []
    sweep = mech._greedy_sweep
    monkeypatch.setattr(mech, "_greedy_sweep", lambda *a: sweeps.append(a) or sweep(*a))
    before = oracle.queries
    assert quarter_bound_exhaustive(oracle) == first
    # only the benchmark's subset scan queries again; every r(C) comes from the memo
    assert sweeps == []
    assert oracle.queries - before == _bruteforce_queries(profile)


def test_expectation_after_the_quarter_bound_reuses_its_sweeps(monkeypatch):
    profile = gen_instance("scalar", 5, seed=4, graph="pa")
    expected = main_mechanism_exact_expectation(profile)
    oracle = profile.oracle()
    quarter_bound_exhaustive(oracle)
    sweeps = []
    sweep = mech._greedy_sweep
    monkeypatch.setattr(mech, "_greedy_sweep", lambda *a: sweeps.append(a) or sweep(*a))
    assert main_mechanism_exact_expectation(oracle) == expected
    assert sweeps == []


def test_empty_a_and_b_sweep_the_testers_once():
    profile = gen_instance("scalar", 4, seed=2)
    part = mech.Partition3(0, 0, profile.full)
    out = mech.main_mechanism(profile, partition=part)
    assert out.queries_used == _sweep_queries(profile, profile.full, 0)


def _bruteforce_queries(profile):
    oracle = profile.oracle()
    benchmark_bruteforce(oracle, 3)
    return oracle.queries


def _sweep_queries(profile, pool, free):
    oracle = profile.oracle()
    mech._greedy_sweep(oracle, pool, free, 1)
    return oracle.queries
