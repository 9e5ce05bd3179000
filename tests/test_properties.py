"""Fuzzed contracts (loader, CLI, save-load round trip) and metamorphic guarantees
(relabel, scale).

Hypothesis runs derandomized, so every tier-1 run tries the same examples.
"""

import contextlib
import functools
import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from extauction import (
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    ScalarModel,
    TableModel,
    ValuationProfile,
    benchmark_bruteforce,
    benchmark_sweep,
)
from extauction import mechanisms as mech
from extauction.cli import main
from extauction.experiments import gen_instance, quarter_bound_exhaustive
from extauction.io import InstanceError, is_number, load_instance, save_instance
from extauction.mechanisms import main_mechanism_exact_expectation
from extauction.valuations import SHAPES

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


# --- the structural gate: a profile the library builds is a file the loader reads ---

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: a shape: now and then one that is not a key of ``SHAPES``
_SHAPE = st.integers(0, 15).flatmap(
    lambda k: st.sampled_from(["cube", 1, None]) if k == 0 else st.sampled_from(sorted(SHAPES)))
#: a number field of a model or weight: now and then a bool, a str or None
_NUMBER_FIELD = st.integers(0, 15).flatmap(
    lambda k: st.sampled_from([True, False, "2", None]) if k == 0 else _FINITE)
#: a table value: now and then a bool, which saves as JSON true
_TABLE_VALUE = st.integers(0, 15).flatmap(lambda k: st.booleans() if k == 0 else _FINITE)


def _table(n, i):
    """Tables of agent ``i``: keys mostly masks holding ``i``, now and then one that is
    negative, past n, without ``i`` or not an ``int``, so most refused tables have one
    bad key."""
    held = [s for s in range(1 << n) if s >> i & 1]
    bad = [-1, 0, 1 << n | 1 << i, (1 << n) - 1 - (1 << i), 1.5, "1", None]
    keys = st.sampled_from(held * (40 // len(held)) + bad)
    return st.dictionaries(keys, _TABLE_VALUE, max_size=4).map(TableModel)


@functools.cache  # built once per (n, i): building a strategy costs more than drawing
def _model(n, i):
    good = st.builds(DegreeWeight, _NUMBER_FIELD, _NUMBER_FIELD, _SHAPE) | _table(n, i)
    # now and then not a weight: nothing, or a model, which binds as a weight would
    weight = st.integers(0, 15).flatmap(
        lambda k: st.sampled_from([None, GraphConcaveModel(1.0)]) if k == 0 else good)
    model = st.one_of(
        _table(n, i),
        st.builds(AdditiveModel, _NUMBER_FIELD, weight),
        st.builds(ScalarModel, _NUMBER_FIELD, weight),
        st.builds(LinearModel, _NUMBER_FIELD, weight, weight),
        st.builds(GraphConcaveModel, _NUMBER_FIELD, _NUMBER_FIELD, _SHAPE),
    )
    # now and then not a model: nothing, a name, or a weight, which binds as a model would
    return st.integers(0, 15).flatmap(
        lambda k: st.sampled_from([None, "scalar"]) | good if k == 0 else model)


@st.composite
def _profile_inputs(draw):
    """``(models, graph, declared_L)``: graphs directed, with self-loops, and now and
    then an id past n, a negative one or a bool."""
    n = draw(st.integers(1, 5))
    models = [draw(_model(n, i)) for i in range(n)]
    return models, draw(_graph(n)), draw(st.none() | st.floats(-1.0, 4.0))


@functools.cache
def _graph(n):
    ids = st.sampled_from([*range(n)] * (24 // n) + [-1, n, False, True])
    return st.none() | st.lists(st.lists(ids, max_size=n + 1), min_size=n, max_size=n)


def _weights(m):
    """The weight and offset fields of model ``m``, those it has."""
    return [getattr(m, f) for f in ("weight", "offset") if hasattr(m, f)]


def _parts(models):
    """``(i, part)`` for each model, weight and offset of the agents."""
    return [(i, p) for i, m in enumerate(models) for p in (m, *_weights(m)) if p is not None]


#: the models a file can name
_MODELS = (TableModel, AdditiveModel, ScalarModel, LinearModel, GraphConcaveModel)


def _well_formed(models, graph, declared_L):
    """The structure a file can hold, stated over the inputs."""
    n = len(models)
    parts = _parts(models)
    return all(type(m) in _MODELS for m in models) \
        and (graph is None or all(type(j) is int and 0 <= j < n for nb in graph for j in nb)) \
        and all(type(w) in (DegreeWeight, TableModel) for m in models for w in _weights(m)) \
        and all(p.shape in SHAPES for _, p in parts if hasattr(p, "shape")) \
        and all(type(k) is int and 0 <= k < 1 << n and k >> i & 1
                for i, t in parts if isinstance(t, TableModel) for k in t.values) \
        and all(is_number(getattr(p, f)) for _, p in parts
                for f in ("t", "beta", "base", "scale") if hasattr(p, f)) \
        and (declared_L is None or declared_L >= 1)


@FUZZ
@given(inputs=_profile_inputs())
def test_a_profile_the_library_builds_is_a_file_the_loader_reads(fuzz_dir, inputs):
    """Every profile the constructor accepts, its table values numbers, saves and reloads
    with the same models, graph, ``declared_L`` and values; every input it refuses raises
    ``ValueError`` at build, and a bool table value raises it at save, before any file."""
    models, graph, declared_L = inputs
    if not _well_formed(models, graph, declared_L):
        with pytest.raises(ValueError):
            ValuationProfile(models, graph=graph, declared_L=declared_L)
        return
    profile = ValuationProfile(models, graph=graph, declared_L=declared_L)
    path = fuzz_dir / "built.json"
    path.unlink(missing_ok=True)
    if not all(is_number(v) for _, t in _parts(models) if isinstance(t, TableModel)
               for v in t.values.values()):
        with pytest.raises(ValueError, match="^table value (True|False) is not a number$"):
            save_instance(profile, path)
        assert not path.exists()
        return
    save_instance(profile, path)
    loaded = load_instance(path, validate=False)
    assert (loaded.models, loaded.graph, loaded.declared_L) == \
        (profile.models, profile.graph, profile.declared_L)
    for i in range(profile.n):
        for s in range(1 << profile.n):
            a, b = profile.value(i, s), loaded.value(i, s)
            assert a == b or (a != a and b != b), (i, s)  # NaN only where NaN


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
    n = 5
    profile = gen_instance("mixed", n, seed=3, graph="er")
    oracle = profile.oracle()
    first = quarter_bound_exhaustive(oracle)
    # the subset scan's steps are sweep steps too, each computed once
    assert oracle.queries == n * 3 ** (n - 1)
    sweeps = []
    sweep = mech._greedy_sweep
    monkeypatch.setattr(mech, "_greedy_sweep", lambda *a: sweeps.append(a) or sweep(*a))
    assert quarter_bound_exhaustive(oracle) == first
    # every r(C) comes from the revenue table and every scan step from the step memo
    assert sweeps == []
    assert oracle.queries == n * 3 ** (n - 1)


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


def _sweep_queries(profile, pool, free):
    oracle = profile.oracle()
    mech._greedy_sweep(oracle, pool, free, 1)
    return oracle.queries
