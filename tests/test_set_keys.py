"""Table set keys: canonical keys read by lookup, every other key by the parser,
with the same result; a profile holds only the entries a value query can read."""

import json
import re
import sys
import threading

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
from extauction import io as eio
from extauction.cli import main
from extauction.experiments import gen_instance
from extauction.io import InstanceError, load_instance, save_instance
from extauction.sets import MEMBER_TABLE_SIZE

TABLE = "Mapping[int, float]"


@pytest.fixture
def fresh_keys():
    """Start with no key table built, as a new process does."""
    eio._canonical_keys.cache_clear()


def _built(*sizes):
    """Whether exactly the key tables of these sizes are built (reading them builds none)."""
    info = eio._canonical_keys.cache_info
    misses = info().misses
    lengths = [len(eio._canonical_keys(size)[0]) for size in sizes]
    return (lengths, info().currsize, info().misses) == (list(sizes), len(sizes), misses)


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _additive_table(values):
    return {"model": "additive", "t": 1.0, "weight": {"kind": "table", "values": values}}


def test_canonical_table_matches_the_parser():
    for n in range(1, 13):
        keys, masks = eio._canonical_keys(1 << n)
        assert len(keys) == 1 << n and len(masks) == 1 << n
        spelled = {",".join(str(i) for i in range(n) if (m >> i) & 1): m for m in range(1, 1 << n)}
        for key, m in spelled.items():
            assert keys[m] == key and masks[key] == m
            assert eio._parse_set_key(key, n, "t") == m
        values = {key: float(m) for key, m in spelled.items()}
        assert eio._field(TABLE, values, n, "t") == {m: float(m) for m in spelled.values()}


def test_canonical_keys_skip_the_parser(tmp_path, monkeypatch, fresh_keys):
    path = tmp_path / "t.json"
    profile = gen_instance("table", 6, seed=5)
    save_instance(profile, path)

    def refuse(key, n, where):
        raise AssertionError(f"parsed {key!r}")

    monkeypatch.setattr(eio, "_parse_set_key", refuse)
    assert load_instance(path).models == profile.models


def test_table_grows_only_for_tables(tmp_path, fresh_keys):
    doc = {"schema": 1, "n": 9, "agents": [{"model": "graph_concave", "t": 1.0}] * 9}
    load_instance(_write(tmp_path, doc))
    assert _built()
    save_instance(gen_instance("graph_concave", 9, seed=1), tmp_path / "g.json")
    assert _built()
    save_instance(gen_instance("table", 5, seed=1), tmp_path / "t.json")
    assert _built(32)
    load_instance(tmp_path / "t.json")
    assert _built(32)
    doc["agents"][0] = _additive_table({"0": 1.0})
    load_instance(_write(tmp_path, doc), validate=False)
    assert _built(32, 512)
    doc = {"schema": 1, "n": 13, "agents": [_additive_table({str(i): 1.0}) for i in range(13)]}
    load_instance(_write(tmp_path, doc), validate=False)
    assert _built(32, 512, MEMBER_TABLE_SIZE)


@pytest.mark.parametrize("n, key", [(2, "0,7"), (11, "11"), (3, "1,3")])
def test_canonical_key_past_n_is_out_of_range(tmp_path, n, key):
    assert key in eio._canonical_keys(MEMBER_TABLE_SIZE)[1]  # a canonical key, of a larger n
    assert key not in eio._canonical_keys(1 << n)[1]
    doc = {"schema": 1, "n": n, "agents": [_additive_table({key: 1.0})] * n}
    with pytest.raises(InstanceError, match=f"set key {key!r} out of range for n={n}$"):
        load_instance(_write(tmp_path, doc))


def test_past_the_table_keys_go_through_the_parser(tmp_path, monkeypatch):
    n = 13
    top = 1 << 12
    weight = TableModel({top: 1.0, top | 1: 1.5, top | 0b110: 2.0, (1 << n) - 1: 2.5})
    models = [GraphConcaveModel(1.0 + i) for i in range(12)] + [AdditiveModel(0.5, weight)]
    profile = ValuationProfile(models)
    path = tmp_path / "a.json"
    save_instance(profile, path)
    assert set(json.loads(path.read_text())["agents"][12]["weight"]["values"]) == {
        "12", "0,12", "1,2,12", ",".join(map(str, range(n)))}
    parsed = []
    parse = eio._parse_set_key

    def counting(key, n, where):
        parsed.append(key)
        return parse(key, n, where)

    monkeypatch.setattr(eio, "_parse_set_key", counting)
    loaded = load_instance(path)
    assert len(parsed) == 4
    assert loaded.models == profile.models
    again = tmp_path / "b.json"
    save_instance(loaded, again)
    assert again.read_text() == path.read_text()


def test_non_canonical_keys_load_as_their_canonical_twin(tmp_path):
    base = {"schema": 1, "n": 3, "agents": [
        {"model": "graph_concave", "t": 2.0},
        {"model": "table", "values": {"1": 1.0, "0,1": 2.0, "1,2": 2.0, "0,1,2": 3.0}},
        {"model": "table", "values": {"2": 1.0, "0,2": 2.0, "1,2": 2.0, "0,1,2": 3.0}},
    ]}
    twin = json.loads(json.dumps(base))
    twin["agents"][1]["values"] = {"1": 1.0, "1,0": 2.0, "2,1": 2.0, "2,0,1": 3.0}
    twin["agents"][2]["values"] = {" 2": 1.0, "0, 2": 2.0, "1,2": 2.0, "0,1,2 ": 3.0}
    canonical = load_instance(_write(tmp_path, base, "c.json"))
    other = load_instance(_write(tmp_path, twin, "o.json"))
    assert other.models == canonical.models
    save_instance(other, tmp_path / "o2.json")
    save_instance(canonical, tmp_path / "c2.json")
    assert (tmp_path / "o2.json").read_text() == (tmp_path / "c2.json").read_text()


def test_threads_loading_at_once_each_get_the_serial_profile(tmp_path, fresh_keys):
    paths = []
    for n in (3, 5, 7, 9):
        path = tmp_path / f"{n}.json"
        save_instance(gen_instance("table", n, seed=n), path)
        paths.append(path)
    want = [load_instance(p, validate=False).models for p in paths]
    wrong, stop = [], threading.Event()

    def load(offset):
        for k in range(4 * len(paths)):
            k = (k + offset) % len(paths)
            if load_instance(paths[k], validate=False).models != want[k]:
                wrong.append(k)

    def shrink():  # keep the loaders rebuilding the tables
        while not stop.is_set():
            eio._canonical_keys.cache_clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shrinker = threading.Thread(target=shrink)
        shrinker.start()
        threads = [threading.Thread(target=load, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        stop.set()
        shrinker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [*threads, shrinker])
    assert wrong == []


@pytest.mark.parametrize(
    "models, message",
    [
        # agent 1's key '0' lacks it
        ([TableModel({1: 2.0, 3: 2.0}), TableModel({2: 1.0, 3: 1.0, 1: 7.0})],
         "agent 1: table key 1 is not a mask below 2^2 that holds agent 1"),
        # the empty set, which no agent is in
        ([AdditiveModel(1.0, TableModel({1: 1.0, 0: 5.0}))],
         "agent 0: table key 0 is not a mask below 2^1 that holds agent 0"),
        # a set past n, which no value query names
        ([TableModel({1: 1.0, 3: 1.0}), AdditiveModel(1.0, TableModel({2: 1.0, 3: 1.0, 6: 9.0}))],
         "agent 1: table key 6 is not a mask below 2^2 that holds agent 1"),
        # a negative mask
        ([TableModel({1: 1.0, -1: 2.0})],
         "agent 0: table key -1 is not a mask below 2^1 that holds agent 0"),
        # a weight and an offset are held to their agent's sets too
        ([ScalarModel(1.0, TableWeight({1: 1.0, 3: 2.0})),
          LinearModel(1.0, TableWeight({2: 1.0}), TableWeight({3: 0.5, 1: 0.5}))],
         "agent 1: table key 1 is not a mask below 2^2 that holds agent 1"),
        # keys that are not ints: the mask test cannot read them
        ([TableModel({1: 1.0, 1.5: 1.0})],
         "agent 0: table key 1.5 is not a mask below 2^1 that holds agent 0"),
        ([TableModel({1: 1.0}), AdditiveModel(1.0, TableModel({"2": 1.0}))],
         "agent 1: table key '2' is not a mask below 2^2 that holds agent 1"),
        ([TableModel({None: 1.0})],
         "agent 0: table key None is not a mask below 2^1 that holds agent 0"),
    ],
    ids=["key-without-agent", "empty-key", "key-past-n", "negative-key", "offset-key",
         "float-key", "str-key", "none-key"],
)
def test_unreadable_table_entries_are_refused_at_build(models, message):
    """A key no value query can read would be dropped by, or break, a saved file,
    so the profile refuses it."""
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        ValuationProfile(models)


@pytest.mark.parametrize(
    "graph, message",
    [
        ([[1], [[0]]], "bad neighbor [0] of agent 1"),
        ([[1], [0.0]], "bad neighbor 0.0 of agent 1"),
        ([[1], [{"a": 0}]], "bad neighbor {'a': 0} of agent 1"),
        ([[1], [False]], "bad neighbor False of agent 1"),
    ],
    ids=["unhashable-list", "float-id", "unhashable-object", "bool-id"],
)
def test_graph_check_keeps_its_first_error(tmp_path, graph, message):
    doc = {"schema": 1, "n": 2, "agents": [{"model": "graph_concave", "t": 1.0}] * 2,
           "graph": graph}
    with pytest.raises(InstanceError, match=re.escape(message) + "$"):
        load_instance(_write(tmp_path, doc))


def test_dense_graph_loads(tmp_path):
    n = 128
    graph = [[j for j in range(n) if j != i] for i in range(n)]
    models = [AdditiveModel(1.0, DegreeWeight(1.0, 0.5, "sqrt")) for _ in range(n)]
    path = tmp_path / "k.json"
    save_instance(ValuationProfile(models, graph=graph), path)
    assert [list(nb) for nb in load_instance(path).graph] == graph
