import csv
import dataclasses
import json
import math
import re

import pytest

from extauction import (
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    ScalarModel,
    TableModel,
    TableWeight,
    ValuationProfile,
    check_conditions,
)
from extauction import benchmark as bm
from extauction import experiments as ex
from extauction import mechanisms as mech
from extauction.cli import build_parser, main
from extauction.experiments import GEN_MODELS, ExperimentReport, f2_gap_demo, gen_instance
from extauction.io import InstanceError, load_instance, save_instance, write_report
from conftest import size_scalar_profile, values


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _valid_doc():
    return {
        "schema": 1,
        "n": 2,
        "agents": [
            {"model": "additive", "t": 1.5, "weight": {"kind": "degree", "base": 1.0, "scale": 0.5, "shape": "sqrt"}},
            {"model": "table", "values": {"1": 2.0, "0,1": 3.0}},
        ],
    }


def test_round_trip_all_model_kinds(tmp_path):
    for kind in ("table", "additive", "scalar", "linear", "graph_concave", "mixed"):
        profile = gen_instance(kind, 4, seed=3, graph="er")
        path = tmp_path / f"{kind}.json"
        save_instance(profile, path)
        loaded = load_instance(path)
        for i in range(4):
            for s in range(16):
                assert loaded.value(i, s) == profile.value(i, s), (kind, i, s)


def test_load_valid_doc(tmp_path):
    profile = load_instance(_write(tmp_path, _valid_doc()))
    assert profile.n == 2
    assert profile.value(1, 0b11) == 3.0


def test_load_rejects_monotonicity_violation(tmp_path):
    doc = {
        "schema": 1,
        "n": 2,
        "agents": [
            {"model": "table", "values": {"0": 5.0, "0,1": 1.0}},
            {"model": "table", "values": {"1": 1.0, "0,1": 1.0}},
        ],
    }
    with pytest.raises(InstanceError, match="monotonicity"):
        load_instance(_write(tmp_path, doc))


def test_load_rejects_unknown_fields(tmp_path):
    doc = _valid_doc()
    doc["surprise"] = 1
    with pytest.raises(InstanceError, match="unknown fields"):
        load_instance(_write(tmp_path, doc))


def test_load_rejects_wrong_schema(tmp_path):
    doc = _valid_doc()
    doc["schema"] = 99
    with pytest.raises(InstanceError, match="schema"):
        load_instance(_write(tmp_path, doc))


@pytest.mark.parametrize("schema", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_load_wants_the_int_schema_version(tmp_path, capsys, schema):
    doc = _valid_doc()
    doc["schema"] = schema
    path = _write(tmp_path, doc)
    message = f"schema version {schema!r} unsupported (want 1)"
    with pytest.raises(InstanceError, match=re.escape(message) + "$"):
        load_instance(path)
    assert main(["check", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_load_rejects_bad_set_key(tmp_path):
    doc = _valid_doc()
    doc["agents"][1]["values"] = {"0,7": 1.0}
    with pytest.raises(InstanceError, match="out of range"):
        load_instance(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: _agent_table(doc, {"": 1.0}), "empty set key"),
        (lambda doc: _agent_table(doc, {" ": 1.0}), "empty set key"),
        (lambda doc: _agent_table(doc, {"0,x": 1.0}), "bad set key"),
        (lambda doc: _agent_table(doc, {"0,,1": 1.0}), "bad set key"),
        (lambda doc: doc.update(graph=[[1], [0], []]),
         "adjacency list length does not match agent count"),
        (lambda doc: doc["agents"][0].update(t=10**400), "numbers must be finite"),
        *[
            (lambda doc, k=k: _agent_table(doc, {"1": 2.0, k: 5.0, "0,1": 3.0}),
             f"table key {k!r} names the set '1' again")
            for k in ("1,1", " 1", "+1", "01", "0_1", "\u0661")
        ],
        (lambda doc: _agent_table(doc, {"0,1": 3.0, "1": 2.0, "1,0": 5.0}),
         "table key '1,0' names the set '0,1' again"),
        (lambda doc: _weight_table(doc, {"0": 1.0, "0,0": 5.0}),
         "table key '0,0' names the set '0' again"),
    ],
    ids=["empty-key", "blank-key", "non-int-key", "double-comma-key", "graph-length",
         "int-beyond-float", "repeat-1,1", "repeat-space-1", "repeat-plus-1", "repeat-01",
         "repeat-0_1", "repeat-arabic-indic-1", "repeat-1,0", "weight-repeat-0,0"],
)
def test_load_names_the_guard_it_fails(tmp_path, capsys, change, message):
    doc = _valid_doc()
    change(doc)
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError, match=re.escape(message)):
        load_instance(path)
    assert main(["check", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: _agent_table(doc, {"0": 1.0, "0,1": 3.0}),
         "agent 1: table key 1 is not a mask below 2^2 that holds agent 1"),
        (lambda doc: _weight_table(doc, {"1": 1.0, "0,1": 2.0}),
         "agent 0: table key 2 is not a mask below 2^2 that holds agent 0"),
    ],
    ids=["agent-table", "weight-table"],
)
def test_load_rejects_table_key_without_agent(tmp_path, capsys, change, message):
    """A weight table is held to its agent's sets as an agent table is."""
    doc = _valid_doc()
    change(doc)
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError, match=re.escape(message) + "$"):
        load_instance(path)
    assert main(["check", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("graph", [[[1], []], [[0, 1], [1]], [[], [1, 0, 1]]],
                         ids=["one-way", "self-loops", "self-loop-and-repeat"])
def test_directed_graph_loads(tmp_path, graph):
    """A graph need not be symmetric and may list an agent itself: each agent
    reads its own list, less itself, as the library does."""
    doc = {**_valid_doc(), "graph": graph}
    doc["agents"][0]["weight"]["scale"] = 1.0
    profile = load_instance(_write(tmp_path, doc))
    assert profile.graph == tuple(tuple(sorted(nb)) for nb in graph)
    k = int(1 in graph[0])  # agent 1 counts for agent 0 only if agent 0 lists it; sqrt(k) = k
    assert profile.value(0, 0b11) == 2.5 + k and profile.value(0, 0b01) == 2.5


def test_directed_graph_with_self_loops_round_trips(tmp_path):
    graph = [[0, 1, 3], [2], [2, 0], [], [4, 0, 1, 2, 3]]
    models = [GraphConcaveModel(2.0), ScalarModel(1.5, DegreeWeight(1.0, 0.5, "sqrt")),
              LinearModel(1.0, DegreeWeight(), DegreeWeight(0.5, 0.25)),
              TableModel({s: float(s.bit_count()) for s in range(32) if s & 0b1000}),
              AdditiveModel(1.0, DegreeWeight(0.0, 2.0, "sqrt"))]
    profile = ValuationProfile(models, graph=graph)
    path = tmp_path / "directed.json"
    save_instance(profile, path)
    loaded = load_instance(path)
    assert loaded.graph == profile.graph and loaded.models == profile.models
    assert [values(loaded, i) for i in range(5)] == [values(profile, i) for i in range(5)]


@pytest.mark.parametrize(
    "model, message",
    [(ScalarModel(math.nan, DegreeWeight()), "not JSON compliant"),
     (ScalarModel(1.0, DegreeWeight(math.inf)), "not JSON compliant"),
     (AdditiveModel(1.0, TableWeight({1: -math.inf})), "not JSON compliant"),
     (TableModel({1: True}), "^table value True is not a number$"),
     (ScalarModel(1.0, TableWeight({1: 2.0, 3: False})), "^table value False is not a number$")],
    ids=["nan-t", "inf-base", "inf-table-value", "bool-table-value", "bool-weight-value"],
)
def test_save_refuses_numbers_the_loader_refuses(tmp_path, model, message):
    """Saving writes strict JSON of numbers: a NaN or infinite field, or a bool table
    value, raises before any file exists."""
    path = tmp_path / "p.json"
    with pytest.raises(ValueError, match=message):
        save_instance(ValuationProfile([model, GraphConcaveModel(1.0)]), path)
    assert not path.exists()


def test_load_missing_file():
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance("/nonexistent/instance.json")


# --- schema ------------------------------------------------------------------------

def _table_weight_doc():
    return {
        "schema": 1,
        "n": 2,
        "agents": [
            {"model": "scalar", "t": 2.0,
             "weight": {"kind": "table", "values": {"0": 1.0, "0,1": 3.0}}},
            {"model": "linear", "t": 1.0,
             "weight": {"kind": "table", "values": {"1": 1.0, "0,1": 2.0}},
             "offset": {"kind": "table", "values": {"0,1": 0.5}}},
        ],
    }


def _defaults_doc():
    return {
        "schema": 1,
        "n": 3,
        "agents": [
            {"model": "graph_concave", "t": 2.0},
            {"model": "scalar", "t": 1.5, "weight": {"kind": "degree"}},
            {"model": "graph_concave", "t": 1.0, "shape": "linear"},
        ],
    }


def test_load_table_weight(tmp_path):
    profile = load_instance(_write(tmp_path, _table_weight_doc()))
    assert profile.models[0] == ScalarModel(2.0, TableWeight({0b01: 1.0, 0b11: 3.0}))
    assert profile.value(0, 0b01) == 2.0
    assert profile.value(0, 0b11) == 6.0
    assert profile.value(1, 0b10) == 1.0
    assert profile.value(1, 0b11) == 2.5
    assert profile.value(1, 0b01) == 0.0


def test_load_optional_fields_take_defaults(tmp_path):
    profile = load_instance(_write(tmp_path, _defaults_doc()))
    assert profile.models[0] == GraphConcaveModel(2.0, 1.0, "sqrt")
    assert profile.models[1] == ScalarModel(1.5, DegreeWeight(1.0, 1.0, "linear"))
    assert profile.models[2] == GraphConcaveModel(1.0, 1.0, "linear")
    assert profile.value(0, 0b111) == 2.0 * (1.0 + math.sqrt(2))
    assert profile.value(1, 0b111) == 1.5 * 3.0


@pytest.mark.parametrize(
    "agent, missing",
    [
        ({"model": "additive", "t": 1.0}, "['weight']"),
        ({"model": "linear", "t": 1.0, "weight": {"kind": "degree"}}, "['offset']"),
        ({"model": "scalar", "weight": {"kind": "degree"}}, "['t']"),
        ({"model": "graph_concave"}, "['t']"),
        ({"model": "table"}, "['values']"),
        ({"model": "scalar", "t": 1.0, "weight": {"kind": "table"}}, "['values']"),
    ],
)
def test_load_rejects_missing_field(tmp_path, agent, missing):
    doc = _valid_doc()
    doc["agents"][0] = agent
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError, match=re.escape(f"{path}: agents[0]: missing fields {missing}")):
        load_instance(path)


def test_load_rejects_missing_top_level_field(tmp_path):
    doc = _valid_doc()
    del doc["agents"]
    with pytest.raises(InstanceError, match=r"missing fields \['agents'\]"):
        load_instance(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "agent, message",
    [
        ({"model": "cubic", "t": 1.0}, "unknown model 'cubic'"),
        ({"model": "scalar", "t": 1.0, "weight": {"kind": "cubic"}}, "unknown weight kind 'cubic'"),
        ([1.0], "agent entry must be an object with a 'model'"),
        ({"model": "scalar", "t": 1.0, "weight": 2.0}, "weight must be an object with a 'kind'"),
        ({"model": "graph_concave", "t": 1.0, "beta": 1.0, "extra": 1}, "unknown fields"),
        ({"model": "scalar", "t": 1.0, "weight": {"kind": "degree", "slope": 1}}, "unknown fields"),
    ],
)
def test_load_rejects_unknown_kinds_and_fields(tmp_path, agent, message):
    doc = _valid_doc()
    doc["agents"][0] = agent
    with pytest.raises(InstanceError, match=message):
        load_instance(_write(tmp_path, doc))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["table value", "t", "degree base"])
def test_load_rejects_non_finite_numbers(tmp_path, bad, field):
    doc = _valid_doc()
    if field == "table value":
        doc["agents"][1]["values"] = {"1": bad, "0,1": bad}
    elif field == "t":
        doc["agents"][0]["t"] = bad
    else:
        doc["agents"][0]["weight"]["base"] = bad
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError, match="numbers must be finite"):
        load_instance(path)
    assert main(["check", "--instance", str(path)]) == 2
    assert main(["run", "--mechanism", "main", "--instance", str(path)]) == 2


def _strings_and_booleans_doc():
    return {
        "schema": 1,
        "n": 1,
        "agents": [{"model": "scalar", "t": "2.5", "weight": {"kind": "degree", "base": True}}],
    }


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: None,
        lambda doc: doc["agents"][0].update(t=2.5),
        lambda doc: doc["agents"][0]["weight"].update(base=1.0),
        lambda doc: doc["agents"][0].update(t=False, weight={"kind": "degree"}),
        lambda doc: doc["agents"][0].update(
            t=1.0, weight={"kind": "table", "values": {"0": "1"}}),
        lambda doc: doc.update(declared_L=True),
    ],
    ids=["string-t-and-bool-base", "bool-base", "string-t", "bool-t", "string-table-value",
         "bool-declared_L"],
)
def test_load_rejects_strings_and_booleans_as_numbers(tmp_path, capsys, change):
    doc = _strings_and_booleans_doc()
    change(doc)
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError, match="expected a number"):
        load_instance(path)
    assert main(["check", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a number" in captured.err
    assert captured.err.startswith(f"error: {path}: ")  # the file is named, as in every load error


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100_000, b"[1" + b"0" * 5000 + b"]"],
                         ids=["bad-utf8", "deep-nesting", "huge-int-literal"])
def test_load_rejects_undecodable_files(tmp_path, content):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    with pytest.raises(InstanceError, match="not valid JSON"):
        load_instance(path)
    assert main(["check", "--instance", str(path)]) == 2


def _agent_table(doc, values):
    doc["agents"][1]["values"] = values


def _weight_table(doc, values):
    doc["agents"][0]["weight"] = {"kind": "table", "values": values}


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc.update(agents=5),
        lambda doc: _agent_table(doc, [1]),
        lambda doc: _weight_table(doc, [1]),
        lambda doc: doc.update(graph=5),
        lambda doc: doc.update(graph=[1, [0]]),
        lambda doc: doc.update(graph=[[True], [0]]),
        lambda doc: doc.update(n=True, agents=doc["agents"][:1]),
        lambda doc: doc["agents"][0]["weight"].update(shape=["sqrt"]),
    ],
    ids=["agents-int", "agent-table-list", "weight-table-list", "graph-int", "graph-entry-int",
         "graph-bool-neighbor", "n-bool", "shape-list"],
)
def test_load_rejects_malformed_structure(tmp_path, capsys, change):
    doc = _valid_doc()
    change(doc)
    path = _write(tmp_path, doc)
    with pytest.raises(InstanceError):
        load_instance(path)
    assert main(["check", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_load_rejects_table_model_past_its_cap(tmp_path):
    doc = {
        "schema": 1,
        "n": 11,
        "agents": [{"model": "table", "values": {str(i): 1.0}} for i in range(11)],
    }
    with pytest.raises(InstanceError, match="capped"):
        load_instance(_write(tmp_path, doc))


@pytest.mark.parametrize("bad", ["abc", 0.5, 0, -2.0, [2.0], float("nan")])
def test_load_rejects_bad_declared_L(tmp_path, capsys, bad):
    path = _write(tmp_path, {**_valid_doc(), "declared_L": bad})
    with pytest.raises(InstanceError, match="declared_L"):
        load_instance(path)
    assert main(["check", "--instance", str(path)]) == 2
    assert "declared_L" in capsys.readouterr().err


@pytest.mark.parametrize("good", [1, 1.0, 2.5])
def test_load_reads_declared_L_as_float(tmp_path, good):
    path = _write(tmp_path, {**_valid_doc(), "declared_L": good})
    profile = load_instance(path)
    assert profile.declared_L == float(good) and isinstance(profile.declared_L, float)
    again = tmp_path / "again.json"
    save_instance(profile, again)
    assert load_instance(again).declared_L == float(good)


@pytest.mark.parametrize("model", GEN_MODELS)
@pytest.mark.parametrize("graph", [None, "er", "pa", "complete"])
def test_save_load_save_is_byte_identical(tmp_path, model, graph):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_instance(gen_instance(model, 4, seed=5, graph=graph), first)
    save_instance(load_instance(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("make_doc", [_table_weight_doc, _defaults_doc, _valid_doc])
def test_hand_written_doc_round_trips_byte_identically(tmp_path, make_doc):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_instance(load_instance(_write(tmp_path, make_doc())), first)
    save_instance(load_instance(first), second)
    assert first.read_bytes() == second.read_bytes()


# --- report emission -------------------------------------------------------------

def test_emit_report_deterministic(tmp_path):
    report = ExperimentReport(("a", "b"), [(1, 2.5), (3, float("inf"))], {"seed": 7})
    write_report(report, tmp_path / "r1")
    write_report(report, tmp_path / "r2")
    p1, p2 = tmp_path / "r1" / "rows.csv", tmp_path / "r2" / "rows.csv"
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "a,b"
    assert "inf" in p1.read_text()


def test_emit_report_empty_is_header_only(tmp_path):
    report = ExperimentReport(("x", "y"), [])
    write_report(report, tmp_path)
    assert (tmp_path / "rows.csv").read_text() == "x,y\n"


def test_emit_report_json_has_seed_and_schema(tmp_path):
    report = ExperimentReport(("a",), [(1,)], {"seed": 11})
    write_report(report, tmp_path)
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["schema"] == 1
    assert doc["summary"]["seed"] == 11


def test_emit_report_twelve_significant_digits(tmp_path):
    report = ExperimentReport(("v",), [(0.1234567890123456789,)])
    write_report(report, tmp_path)
    assert (tmp_path / "rows.csv").read_text().splitlines()[1] == "0.123456789012"


def test_emit_report_renders_non_finite_and_signed_floats(tmp_path):
    """NaN of either sign, inf and -inf keep their names; -0.0 keeps its sign."""
    assert math.copysign(1.0, -math.nan) == -1.0
    row = (math.nan, math.inf, -math.inf, -math.nan, -0.0)
    report = ExperimentReport(("a", "b", "c", "d", "e"), [row], {"worst": -math.inf})
    write_report(report, tmp_path)
    assert (tmp_path / "rows.csv").read_text().splitlines()[1] == "nan,inf,-inf,nan,-0"
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["rows"] == [["nan", "inf", "-inf", "nan", "-0"]]
    assert doc["summary"] == {"worst": "-inf"}


class _UnnamedModel(ScalarModel):
    """A model class the instance schema has no name for."""


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: save_instance(ValuationProfile([_UnnamedModel(1.0, DegreeWeight())]),
                                   tmp / "inst.json"),
         InstanceError, r"^unserializable model entry "),
        (lambda tmp: write_report(ExperimentReport(("a",), []), (tmp / "rows.csv").mkdir() or tmp),
         OSError, r"^cannot write report to "),
    ],
    ids=["save-unnamed-model", "emit-to-a-directory"],
)
def test_save_and_emit_refuse_what_they_cannot_write(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


# --- CLI ---------------------------------------------------------------------------

@pytest.fixture
def instance_path(tmp_path):
    save_instance(size_scalar_profile(3), tmp_path / "size3.json")
    return str(tmp_path / "size3.json")


def test_cli_check_valid(instance_path, capsys):
    assert main(["check", "--instance", instance_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] and out["estimated_L"] == 1.0


def test_cli_reuses_one_parser(instance_path, capsys):
    """Every call of a process parses with the same parser, and no call leaves a
    trace on it: a usage error, another command's defaults and a refused run in
    between leave a repeated ``check`` byte-identical."""
    assert build_parser() is build_parser()
    check = ["check", "--instance", instance_path]
    first = main(check), capsys.readouterr().out
    assert first[0] == 0
    assert main([*check, "--samples", "0"]) == 2
    assert main(["demo", "--which", "f2-gap"]) == 0
    assert main(["run", "--mechanism", "fixed-price", "--instance", instance_path]) == 2
    capsys.readouterr()
    assert (main(check), capsys.readouterr().out) == first


def test_cli_check_sampled_prints_the_exhaustive_L(tmp_path, capsys):
    # agent 0 breaks subadditivity only at {0, 1} | {0, 2}: 3 > 1 + 1, which
    # 20 samples miss; the exhaustive estimate still sees it
    values = {s: 1.0 if s in (0b001, 0b011, 0b101) else 3.0 for s in range(1 << 5) if s & 1}
    profile = ValuationProfile([TableWeight(values)] + [size_scalar_profile(4).models[0]] * 4)
    save_instance(profile, tmp_path / "gap.json")
    argv = ["check", "--instance", str(tmp_path / "gap.json")]
    assert main(argv) == 1
    capsys.readouterr()
    assert main([*argv, "--sampled", "--samples", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["estimated_L"] == 1.5


def test_cli_check_invalid_exit_code(tmp_path, capsys):
    doc = {
        "schema": 1,
        "n": 2,
        "agents": [
            {"model": "table", "values": {"0": 5.0, "0,1": 1.0}},
            {"model": "table", "values": {"1": 1.0, "0,1": 1.0}},
        ],
    }
    assert main(["check", "--instance", str(_write(tmp_path, doc))]) == 1
    assert not json.loads(capsys.readouterr().out)["valid"]


def test_cli_benchmark_both_methods(instance_path, capsys):
    assert main(["benchmark", "--instance", instance_path, "--k", "3", "--method", "brute"]) == 0
    brute = json.loads(capsys.readouterr().out)
    assert main(["benchmark", "--instance", instance_path, "--k", "3", "--method", "sweep"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    assert brute["value"] == sweep["value"] == 9.0
    assert sweep["queries"] <= 6


def test_cli_run_and_expect(instance_path, capsys):
    assert main(["run", "--mechanism", "main", "--instance", instance_path, "--seed", "4"]) == 0
    run1 = capsys.readouterr().out
    assert main(["run", "--mechanism", "main", "--instance", instance_path, "--seed", "4"]) == 0
    assert capsys.readouterr().out == run1  # byte-identical replay
    assert main(["expect", "--instance", instance_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound_ok"] and out["expected_revenue"] == pytest.approx(21 / 27)


def test_cli_expect_takes_f3_from_the_ledger(tmp_path, capsys, monkeypatch):
    """``expect`` makes no ``F^(3)`` scan of its own: the one subset scan it runs
    is the partition ledger's, on the walk's tabulated oracle, and the printed
    ``f3`` is ``repr``-equal to a fresh oracle's scan."""
    profile = gen_instance("graph_concave", 8, seed=1, graph="er")
    path = tmp_path / "gc8.json"
    save_instance(profile, path)
    scan = bm.benchmark_bruteforce
    scans = []

    def watched(oracle, k):
        scans.append((type(oracle), k))
        return scan(oracle, k)

    for module in (bm, ex, mech):
        monkeypatch.setattr(module, "benchmark_bruteforce", watched)
    assert main(["expect", "--instance", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert scans == [(mech._Tabulated, 3)]
    assert repr(out["f3"]) == repr(scan(load_instance(path).oracle(), 3).value)


def _signed_zero_path(tmp_path):
    """A valid 3-agent scalar file whose agent 0 has ``t = -0.0``."""
    degree = {"kind": "degree", "base": 1.0, "scale": 1.0, "shape": "linear"}
    doc = {
        "schema": 1,
        "n": 3,
        "agents": [{"model": "scalar", "t": t, "weight": degree} for t in (-0.0, 2.0, 3.0)],
    }
    assert '"t": -0.0' in json.dumps(doc)
    return str(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "argv",
    [
        lambda path: ["run", "--mechanism", "main", "--instance", path],
        lambda path: ["run", "--mechanism", "fixed-price", "--instance", path, "--price", "-0.0"],
        lambda path: ["run", "--mechanism", "fixed-price", "--instance", path, "--price", "-0"],
    ],
    ids=["main-on-a-negative-zero-t", "fixed-price-minus-0.0", "fixed-price-minus-0"],
)
def test_cli_prints_no_negative_zero(tmp_path, capsys, argv):
    """A negative zero read from a file or ``--price`` runs as 0.0."""
    path = _signed_zero_path(tmp_path)
    assert main(["check", "--instance", path]) == 0
    capsys.readouterr()
    for seed in range(10):
        assert main([*argv(path), "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out, (seed, out)


def test_cli_run_fixed_price_requires_price(instance_path, capsys):
    assert main(["run", "--mechanism", "fixed-price", "--instance", instance_path]) == 2
    assert main([
        "run", "--mechanism", "fixed-price", "--instance", instance_path, "--price", "3.0",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["revenue"] == 9.0


@pytest.mark.parametrize("cmd", ["run", "verify"])
def test_cli_fixed_price_without_price_is_exit_2(instance_path, capsys, cmd):
    assert main([cmd, "--mechanism", "fixed-price", "--instance", instance_path]) == 2
    assert "--price is required" in capsys.readouterr().err


def test_cli_verify_fixed_price_tests_the_given_price(instance_path, monkeypatch):
    prices = []
    fixed_price = mech.fixed_price_mechanism
    monkeypatch.setattr(
        mech, "fixed_price_mechanism", lambda p, c: prices.append(c) or fixed_price(p, c)
    )
    assert main([
        "verify", "--mechanism", "fixed-price", "--instance", instance_path,
        "--price", "0", "--misreports", "6",
    ]) == 0
    assert prices and set(prices) == {0.0}


def _n13_instance(tmp_path):
    path = tmp_path / "n13.json"
    save_instance(ValuationProfile([GraphConcaveModel(1.0) for _ in range(13)]), path)
    return str(path)


def _config_without_model(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "exact", "instances": [{"n": 3}]}))
    return str(path)


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp, inst: ["benchmark", "--instance", inst, "--k", "0"], "k must be >= 1"),
        (
            lambda tmp, inst: [
                "experiment", "--config", _config_without_model(tmp), "--out", str(tmp / "out"),
            ],
            "instances[0] needs 'model' and 'n'",
        ),
        (lambda tmp, inst: ["expect", "--instance", _n13_instance(tmp)], "rejected for n > 12"),
        (
            lambda tmp, inst: ["run", "--mechanism", "fixed-price", "--instance", inst, "--price", "-1"],
            "price must be nonnegative",
        ),
        (
            lambda tmp, inst: ["run", "--mechanism", "mechanism2", "--instance", inst],
            "requires an additive profile",
        ),
    ],
    ids=["benchmark-k0", "experiment-no-model", "expect-n13", "run-negative-price", "mechanism2-scalar"],
)
def test_cli_usage_errors_exit_2(tmp_path, instance_path, capsys, argv, message):
    assert main(argv(tmp_path, instance_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"mode": "exact", "instances": [{"model": "scalar", "n": "4"}]}, "n"),
        ({"mode": "exact", "instances": [{"model": "scalar", "n": True}]}, "n"),
        ({"mode": "exact", "instances": [{"model": 5, "n": 4}]}, "model"),
        ({"mode": "exact", "instances": [{"model": "scalar", "n": 4, "graph_p": "1"}]}, "graph_p"),
        ({"mode": "exact", "instances": [{"model": "scalar", "n": 4, "graph_p": 7.0}]}, "graph_p"),
        ({"mode": "exact", "instances": [{"model": "scalar", "n": 4, "graph_p": -1.0}]}, "graph_p"),
        ({"mode": "exact", "instances": [{"model": "scalar", "n": 4, "graph_p": math.nan}]},
         "graph_p"),
        ({"mode": "exact", "instances": 3}, "instances"),
        ({"mode": "exact", "instances": [3]}, "instances"),
        ({"mode": "monte-carlo", "trials": "5", "instances": []}, "trials"),
        ({"mode": "additive-bound", "alpha": "x", "instances": [{"model": "additive", "n": 3}]},
         "alpha"),
        ({"mode": "f2-gap", "m_values": ["a"]}, "m_values"),
        ({"mode": "f2-gap", "m_values": 10}, "m_values"),
        ({"mode": "exact", "instances": [{"model": "scalar", "n": 2, "name": 5},
                                         {"model": "scalar", "n": 2}]}, "name"),
        ({"mode": "exact", "instances": [{"model": "scalar", "n": 2, "name": ["a"]}]}, "name"),
        ({"mode": "exact", "seed": "1", "instances": []}, "seed"),
    ],
    ids=["n-str", "n-bool", "model-int", "graph_p-str", "graph_p-above-1", "graph_p-negative",
         "graph_p-nan", "instances-int", "instances-entry-int",
         "trials-str", "alpha-str", "m_values-entry-str", "m_values-number", "name-int",
         "name-list", "seed-str"],
)
def test_cli_experiment_config_types_exit_2(tmp_path, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"{key!r} must be" in captured.err


@pytest.mark.parametrize("graph_p", [7.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("graph", [None, "er"])
def test_gen_instance_rejects_graph_p_outside_the_unit_interval(graph, graph_p):
    with pytest.raises(ValueError, match=r"^graph_p must be in \[0, 1\], got "):
        gen_instance("scalar", 4, seed=1, graph=graph, graph_p=graph_p)


@pytest.mark.parametrize("graph_p", [0, 0.0, 1, 1.0])
def test_gen_instance_accepts_graph_p_at_the_ends(graph_p):
    edges = sum(map(len, gen_instance("scalar", 4, seed=1, graph="er", graph_p=graph_p).graph))
    assert edges == 12 * graph_p


def test_cli_experiment_deeply_nested_config_exits_2(tmp_path, capsys):
    """Deep nesting makes ``json.loads`` recurse past the limit; like a bad instance
    file, that is an input error, not a crash."""
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not valid JSON: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, instances",
    [
        ("bogus", [{"model": "additive", "n": 3}]),
        ("bogus", [{"model": "no-such-family", "n": 3}]),
        (["exact"], [{"model": "additive", "n": 3}]),
    ],
    ids=["valid-instance", "instance-that-would-fail", "unhashable-mode"],
)
def test_cli_experiment_unknown_mode_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                             mode, instances):
    """The mode is looked up first: no instance is generated and ``--out`` is never made."""

    def no_generation(*args, **kwargs):
        raise AssertionError("an instance was generated for an unknown mode")

    monkeypatch.setattr(ex, "gen_instance", no_generation)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": mode, "instances": instances}))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown experiment mode {mode!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("trials", [0, -1])
def test_cli_experiment_trials_below_one_exit_2(tmp_path, capsys, trials):
    """Like ``--runs`` and ``--samples``: a campaign over zero trials checks nothing."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"mode": "monte-carlo", "trials": trials, "instances": [{"model": "scalar", "n": 3}]}
    ))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: 'trials' must be an integer >= 1, got {trials}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "monte-carlo", "additive-bound"])
@pytest.mark.parametrize("instances", [None, []], ids=["missing", "empty"])
def test_cli_experiment_without_instances_exits_2(tmp_path, capsys, mode, instances):
    """A campaign over no instances checks nothing, like one over zero trials."""
    config = {"mode": mode} if instances is None else {"mode": mode, "instances": instances}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: mode {mode!r} needs a non-empty 'instances' list\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "config, where, unknown",
    [
        ({"mode": "exact", "trails": 5, "instances": [{"model": "scalar", "n": 3}]}, "", "trails"),
        ({"mode": "exact", "instances": [{"model": "scalar", "n": 3, "grahp": "er", "seed": 99}]},
         ": instances[0]", "grahp', 'seed"),
        ({"mode": "f2-gap", "x": 1.0}, "", "x"),
        ({"mode": "exact", "trials": 5, "instances": [{"model": "scalar", "n": 3}]}, "", "trials"),
        ({"mode": "exact", "alpha": 2.0, "instances": [{"model": "scalar", "n": 3}]}, "", "alpha"),
        ({"mode": "exact", "m_values": [1.0], "instances": [{"model": "scalar", "n": 3}]}, "",
         "m_values"),
        ({"mode": "monte-carlo", "alpha": 2.0, "instances": [{"model": "scalar", "n": 3}]}, "",
         "alpha"),
        ({"mode": "monte-carlo", "m_values": [1.0], "instances": [{"model": "scalar", "n": 3}]},
         "", "m_values"),
        ({"mode": "additive-bound", "trials": 5, "instances": [{"model": "additive", "n": 3}]}, "",
         "trials"),
        ({"mode": "additive-bound", "m_values": [1.0],
          "instances": [{"model": "additive", "n": 3}]}, "", "m_values"),
        ({"mode": "f2-gap", "instances": [{"model": "scalar", "n": 3}]}, "", "instances"),
        ({"mode": "f2-gap", "trials": 5}, "", "trials"),
        ({"mode": "f2-gap", "alpha": 2.0}, "", "alpha"),
    ],
    ids=["top-level", "instance", "f2-gap", "exact-trials", "exact-alpha", "exact-m_values",
         "monte-carlo-alpha", "monte-carlo-m_values", "additive-bound-trials",
         "additive-bound-m_values", "f2-gap-instances", "f2-gap-trials", "f2-gap-alpha"],
)
def test_cli_experiment_unknown_config_keys_exit_2(tmp_path, capsys, config, where, unknown):
    """Config keys follow the instance files' strict schema: a misspelt key is an error,
    not a default silently taken."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}{where}: unknown fields ['{unknown}'] (strict schema)\n"
    assert not out.exists()


@pytest.mark.parametrize("config", [[{"mode": "exact"}], "exact", 3, None])
def test_cli_experiment_config_that_is_not_an_object_exits_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: experiment config must be a JSON object\n"
    assert not out.exists()


def test_cli_verify_unknown_mechanism_exits_2(instance_path, capsys):
    """``verify`` takes any ``--mechanism`` string (it also knows ``broken``), so the
    mechanism table, not argparse, refuses an unknown name."""
    assert main(["verify", "--mechanism", "nope", "--instance", instance_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown mechanism 'nope'\n"


def test_cli_verify_truthful_and_broken(instance_path):
    assert main([
        "verify", "--mechanism", "main", "--instance", instance_path, "--misreports", "60",
    ]) == 0
    assert main([
        "verify", "--mechanism", "broken", "--instance", instance_path, "--misreports", "60",
    ]) == 1


def test_cli_usage_error_is_exit_2(tmp_path):
    assert main(["check", "--instance", str(tmp_path / "missing.json")]) == 2


def test_cli_experiment_pipeline_deterministic(tmp_path, capsys):
    config = {
        "seed": 3,
        "mode": "exact",
        "instances": [
            {"model": "scalar", "n": 3},
            {"model": "additive", "n": 4, "name": "add4"},
        ],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "rows.csv").read_bytes() == (out2 / "rows.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    doc = json.loads((out1 / "summary.json").read_text())
    assert doc["summary"]["violations"] == 0
    assert doc["summary"]["seed"] == 3


@pytest.mark.parametrize(
    "instances, name",
    [
        ([{"model": "scalar", "n": 3}, {"model": "scalar", "n": 3}], "scalar-n3"),
        ([{"model": "scalar", "n": 3}, {"model": "scalar", "n": 4, "name": "scalar-n3"}],
         "scalar-n3"),
        ([{"model": "scalar", "n": 3, "name": "a"}, {"model": "additive", "n": 4, "name": "a"}],
         "a"),
    ],
    ids=["default-twice", "explicit-equals-default", "explicit-twice"],
)
def test_cli_experiment_repeated_instance_name_exits_2(tmp_path, capsys, instances, name):
    """The name seeds the instance: two entries under one name would be one instance run
    twice, with one digest for two rows."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "mode": "exact", "instances": instances}))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: instances[1] repeats the name {name!r}\n"
    assert not out.exists()


def test_cli_experiment_rows_csv_quotes_names(tmp_path, capsys):
    names = ["a,b", 'say "hi"', "two\nlines", "carriage\rreturn", "plain"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 1, "mode": "exact",
        "instances": [{"model": "scalar", "n": 2, "name": name} for name in names],
    }))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "rows.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(ex.GUARANTEE_COLUMNS)
    assert [len(row) for row in rows] == [8] * (1 + len(names))
    assert [row[0] for row in rows[1:]] == names


def test_cli_monte_carlo_over_the_query_budget_exits_1(tmp_path, capsys, monkeypatch):
    """The campaign records ``within_query_budget``; a broken budget fails the experiment,
    with its files written, as a violation does in ``exact``."""
    real = ex.main_mechanism
    monkeypatch.setattr(
        ex, "main_mechanism",
        lambda *a, **kw: dataclasses.replace(real(*a, **kw), queries_used=10**9),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"seed": 6, "mode": "monte-carlo", "trials": 3, "instances": [{"model": "scalar", "n": 4}]}
    ))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["rows"] == 1
    assert json.loads((out / "summary.json").read_text())["summary"]["within_query_budget"] is False
    assert (out / "rows.csv").read_text().splitlines()[1].endswith(",1000000000,160")


def _config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["demo", "--which", "f2-gap", "--m-values"],
        lambda tmp: ["experiment", "--config", _config(tmp, {"mode": "f2-gap", "m_values": []}),
                     "--out", str(tmp / "out")],
    ],
    ids=["demo", "experiment"],
)
def test_f2_gap_over_no_m_values_exits_2(tmp_path, capsys, argv):
    """A demo over no ``m`` checks nothing, like a campaign over no instances."""
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the f2-gap demo needs at least one m value\n"
    assert not (tmp_path / "out").exists()


def test_cli_demo_f2_gap(capsys):
    assert main(["demo", "--which", "f2-gap", "--m-values", "1", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["rows"]) == 2


def test_cli_demo_losing_value(capsys):
    assert main(["demo", "--which", "losing-value"]) == 0
    assert json.loads(capsys.readouterr().out)["invalid_rejected"]


def test_instance_digest_tracks_content(tmp_path):
    from extauction.io import instance_digest

    a = gen_instance("scalar", 4, seed=1)
    b = gen_instance("scalar", 4, seed=1)
    c = gen_instance("scalar", 4, seed=2)
    assert instance_digest(a) == instance_digest(b)
    assert instance_digest(a) != instance_digest(c)


def test_experiment_summary_embeds_digests(tmp_path):
    config = {"seed": 1, "mode": "exact", "instances": [{"model": "scalar", "n": 3}]}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["summary"]["seed"] == 1
    assert list(doc["summary"]["instance_digests"].values())[0]


def test_load_rejects_unknown_shape(tmp_path, capsys):
    """The profile's constructor is the one shape check: loading refuses the file with
    its message, and so does every command that runs on it."""
    doc = _valid_doc()
    doc["agents"][0]["weight"]["shape"] = "cube"
    path = _write(tmp_path, doc)
    message = f"{path}: agent 0: shape must be one of ['linear', 'sqrt'], got 'cube'"
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        load_instance(path)
    for cmd in (["check"], ["benchmark"], ["run", "--mechanism", "main"], ["expect"],
                ["verify", "--mechanism", "main"]):
        assert main([*cmd, "--instance", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def _invalid_n13_instance(tmp_path):
    path = tmp_path / "n13-negative.json"
    save_instance(ValuationProfile([GraphConcaveModel(-1.0) for _ in range(13)]), path)
    return str(path)


@pytest.mark.parametrize("cmd", [
    ["run", "--mechanism", "main"], ["benchmark"], ["verify", "--mechanism", "main"],
])
def test_cli_validates_files_past_the_exhaustive_range(tmp_path, capsys, cmd):
    path = _invalid_n13_instance(tmp_path)
    assert main([*cmd, "--instance", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "violates the valuation conditions" in captured.err
    assert main(["check", "--instance", path]) == 1


_COUNT = "must be an integer >= 1"
_M_VALUE = "m values must be finite and >= 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp, inst: ["check", "--instance", _invalid_n13_instance(tmp), "--samples", "0"],
         _COUNT),
        (lambda tmp, inst: ["check", "--instance", inst, "--sampled", "--samples", "-3"], _COUNT),
        (lambda tmp, inst: ["verify", "--mechanism", "broken", "--instance", inst, "--runs", "0"],
         _COUNT),
        (lambda tmp, inst: ["verify", "--mechanism", "main", "--instance", inst, "--runs", "x"],
         _COUNT),
        (lambda tmp, inst: ["verify", "--mechanism", "main", "--instance", inst,
                            "--misreports", "0"], _COUNT),
        (lambda tmp, inst: ["verify", "--mechanism", "main", "--instance", inst,
                            "--misreports", "-5"], _COUNT),
        (lambda tmp, inst: ["demo", "--which", "f2-gap", "--m-values", "nan"], _M_VALUE),
        (lambda tmp, inst: ["demo", "--which", "f2-gap", "--m-values", "10", "inf"], _M_VALUE),
        (lambda tmp, inst: ["demo", "--which", "f2-gap", "--m-values", "-1"], _M_VALUE),
        (lambda tmp, inst: ["demo", "--which", "f2-gap", "--m-values", "0.5"], _M_VALUE),
    ],
    ids=["check-samples-0", "check-samples-negative", "verify-runs-0", "verify-runs-not-int",
         "verify-misreports-0", "verify-misreports-negative",
         "demo-m-nan", "demo-m-inf", "demo-m-negative", "demo-m-below-1"],
)
def test_cli_checks_that_check_nothing_exit_2(tmp_path, instance_path, capsys, argv, message):
    assert main(argv(tmp_path, instance_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err and message in captured.err


@pytest.mark.parametrize("m", [math.nan, math.inf, -1.0, 0.0])
def test_f2_gap_config_rejects_m_values_outside_the_domain(tmp_path, capsys, m):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "f2-gap", "m_values": [1.0, m]}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert _M_VALUE in capsys.readouterr().err
    with pytest.raises(ValueError, match="finite and >= 1"):
        f2_gap_demo([m])


def _additive_instance(tmp_path):
    path = tmp_path / "additive3.json"
    save_instance(gen_instance("additive", 3, seed=0), path)
    return str(path)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--mechanism", "fixed-price", "--price", "nan"], "price must be nonnegative"),
        (["run", "--mechanism", "fixed-price", "--price", "inf"], "price must be nonnegative"),
        (["verify", "--mechanism", "fixed-price", "--price", "nan", "--misreports", "4"],
         "price must be nonnegative"),
        (["run", "--mechanism", "mechanism2", "--alpha", "nan"], "alpha must be positive"),
        (["run", "--mechanism", "mechanism2", "--alpha", "inf"], "alpha must be positive"),
        (["verify", "--mechanism", "mechanism2", "--alpha", "nan", "--misreports", "4"],
         "alpha must be positive"),
    ],
    ids=["run-price-nan", "run-price-inf", "verify-price-nan", "run-alpha-nan", "run-alpha-inf",
         "verify-alpha-nan"],
)
def test_cli_non_finite_price_and_alpha_exit_2(tmp_path, capsys, argv, message):
    assert main([*argv, "--instance", _additive_instance(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan, math.inf])
def test_additive_bound_config_rejects_alpha_outside_the_domain(tmp_path, capsys, alpha):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "additive-bound", "alpha": alpha,
                                "instances": [{"model": "additive", "n": 3}]}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "alpha must be positive" in captured.err


@pytest.mark.parametrize("model", ["table", "mixed"])
def test_additive_bound_config_rejects_non_additive_instances(tmp_path, capsys, model):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "additive-bound",
                                "instances": [{"model": model, "n": 3}]}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mechanism2 requires an additive profile\n"


@pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
def test_fixed_price_rejects_prices_outside_the_domain(c):
    with pytest.raises(ValueError, match="price must be nonnegative"):
        mech.fixed_price_mechanism(size_scalar_profile(3), c)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_mechanism2_rejects_alpha_outside_the_domain(alpha):
    profile = gen_instance("additive", 3, seed=0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        mech.mechanism2(profile, alpha=alpha)
    with pytest.raises(ValueError, match="alpha must be positive"):
        mech.mechanism2_expected_revenue(profile, alpha, 1.0)


# --- valuations that overflow: v_i(S) = inf, or 0 * inf = NaN ------------------------

def _overflow_profiles():
    return {
        "inf": ValuationProfile([ScalarModel(1e308, DegreeWeight(10.0, 1.0))] * 3),
        "nan": ValuationProfile([ScalarModel(0.0, DegreeWeight(1e308, 1e308))]
                                + [ScalarModel(1.0, DegreeWeight())] * 2),
    }


@pytest.mark.parametrize("name", ["inf", "nan"])
@pytest.mark.parametrize("mode", ["auto", "sampled"])
def test_checker_flags_non_finite_values(name, mode):
    profile = _overflow_profiles()[name]
    found = check_conditions(profile, mode=mode, samples=200, max_violations=10_000)
    nonfinite = [v for v in found if v.kind == "nonfinite"]
    assert nonfinite
    assert all(v.sets[0] >> v.agent & 1 for v in nonfinite)
    assert all(not v.lhs < math.inf for v in nonfinite)


def test_minus_inf_stays_a_negative_violation():
    profile = ValuationProfile([ScalarModel(-1e308, DegreeWeight(10.0, 1.0))] * 3)
    assert profile.value(0, 0b111) == -math.inf
    assert {v.kind for v in check_conditions(profile)} == {"negative"}


@pytest.mark.parametrize("name", ["inf", "nan"])
def test_cli_rejects_non_finite_values(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    save_instance(_overflow_profiles()[name], path)
    assert main(["check", "--instance", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"] and any(v.startswith("nonfinite") for v in out["violations"])
    assert main(["check", "--instance", str(path), "--sampled"]) == 1
    capsys.readouterr()
    with pytest.raises(InstanceError, match="nonfinite"):
        load_instance(path)
    for argv in (["run", "--mechanism", "main"], ["run", "--mechanism", "fixed-price", "--price", "1"],
                 ["expect"], ["benchmark", "--method", "brute"], ["benchmark", "--method", "sweep"]):
        assert main([*argv, "--instance", str(path)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "nonfinite" in captured.err, argv


def _overflowing_file(tmp_path):
    """Three valid agents at ``1e308`` on every set: sums of their bids overflow."""
    flat = {"kind": "degree", "base": 1.0, "scale": 0.0}
    doc = {"schema": 1, "n": 3, "agents": [{"model": "scalar", "t": 1e308, "weight": flat}] * 3}
    return str(_write(tmp_path, doc, "overflow.json"))


def _unbounded_L_file(tmp_path):
    """Agent 0 is worth 0.0 on every set but the full one (1.0), the others 1.0
    everywhere, so ``estimate_L`` is inf; 20 samples miss the violation."""
    full = (1 << 6) - 1
    agents = [
        {"model": "table", "values": {
            ",".join(str(j) for j in range(6) if s >> j & 1): float(i > 0 or s == full)
            for s in range(1 << 6) if s >> i & 1
        }}
        for i in range(6)
    ]
    return str(_write(tmp_path, {"schema": 1, "n": 6, "agents": agents}, "unbounded-L.json"))


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["run", "--mechanism", "fixed-price", "--price", "1e308",
                     "--instance", _overflowing_file(tmp)],
        lambda tmp: ["benchmark", "--k", "3", "--instance", _overflowing_file(tmp)],
        lambda tmp: ["expect", "--instance", _overflowing_file(tmp)],
        lambda tmp: ["check", "--sampled", "--samples", "20", "--instance", _unbounded_L_file(tmp)],
    ],
    ids=["run-revenue", "benchmark-value", "expect-revenue", "check-estimated-L"],
)
def test_cli_result_that_is_not_finite_exits_2(tmp_path, capsys, argv):
    """A result can overflow to inf, which JSON cannot hold: the command prints
    nothing rather than a non-JSON ``Infinity``.  The overflowing file passes
    ``check``; the other passes only the sampled check that then prints its L."""
    argv = argv(tmp_path)
    if argv[0] != "check":
        assert main(["check", "--instance", argv[-1]]) == 0
        capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the result is not finite")


@pytest.mark.parametrize(
    "config, message",
    [
        ({"mode": "exact", "instances": [{"model": "scalar", "n": 13}]},
         "exact 3^n path rejected for n > 12"),
        ({"mode": "additive-bound", "instances": [{"model": "scalar", "n": 4}]},
         "mechanism2 requires an additive profile"),
    ],
    ids=["exact-n13", "additive-bound-on-scalar"],
)
def test_cli_experiment_that_fails_leaves_no_out_directory(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def _expect_on_file(oracle, tmp_path):
    path = tmp_path / "n13.json"
    save_instance(oracle.profile, path)
    return main(["expect", "--instance", str(path)])


def _exact_experiment(oracle, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "exact", "instances": [{"model": "graph_concave", "n": 13}]}))
    return main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "caller, through_cli",
    [
        (lambda oracle, tmp: ex.quarter_bound_exhaustive(oracle), False),
        (lambda oracle, tmp: mech.main_mechanism_exact_expectation(oracle), False),
        (lambda oracle, tmp: ex.revenue_guarantee_check(oracle), False),
        (lambda oracle, tmp: ex.revenue_guarantee_suite([("n13", oracle)]), False),
        (_expect_on_file, True),
        (_exact_experiment, True),
    ],
    ids=["quarter-bound", "exact-expectation", "guarantee-check", "guarantee-suite",
         "cli-expect", "cli-exact-experiment"],
)
def test_every_exact_caller_refuses_n13_with_one_message_and_no_query(
        tmp_path, capsys, monkeypatch, caller, through_cli):
    """The walk's one cap (``mechanisms._Tabulated``) is every exact caller's refusal:
    the same message, before the walk evaluates any agent's value.  ``expect``
    first runs the sampled condition check on the file it loads, and no more."""
    evaluations = [0]
    bind = GraphConcaveModel.bind

    def counted_bind(model, i, neighbor_mask):
        fn = bind(model, i, neighbor_mask)

        def counted(s):
            evaluations[0] += 1
            return fn(s)

        return counted

    monkeypatch.setattr(GraphConcaveModel, "bind", counted_bind)
    oracle = ValuationProfile([GraphConcaveModel(1.0) for _ in range(13)]).oracle()
    assert check_conditions(oracle.profile) == []
    checked, evaluations[0] = evaluations[0], 0
    assert checked > 0
    message = "exact 3^n path rejected for n > 12"
    if through_cli:
        assert caller(oracle, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            caller(oracle, tmp_path)
    assert oracle.queries == 0 and oracle.ledger is None
    assert evaluations[0] == (checked if caller is _expect_on_file else 0)
