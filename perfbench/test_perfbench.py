"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run

run.load_library()

import clock  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
HELD_OUT_SEED = 7


def test_spec_names_every_workload():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [1, HELD_OUT_SEED])
@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_and_no_failures(name, seed):
    result = run.run_workload(name, seed, 0.2, trace=False, tiny=True)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_counts_repeat(name):
    first = run.run_workload(name, 1, 0.2, trace=True, tiny=True)["result"]
    second = run.run_workload(name, 1, 0.2, trace=True, tiny=True)["result"]
    assert first["correct"]
    assert {k: m["unit"] for k, m in first["metrics"].items()} == PER_LAYER
    for key in ("valuations.oracle.queries", "mechanisms.partitions", "benchmark.sweep.calls",
                "truthfulness.misreports", "valuations.profile.builds"):
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_layer_counts_reach_the_layers_each_workload_targets():
    def layers(name):
        return {k: m["value"] for k, m in
                run.run_workload(name, 1, 0.2, trace=True, tiny=True)["result"]["metrics"].items()}

    exact, deviation, validate = layers("exact_expect"), layers("deviation"), layers("validate")
    assert exact["mechanisms.partitions"] > 0 and 0 < exact["mechanisms.rev_cache.hit_ratio"] < 1
    assert deviation["truthfulness.misreports"] > 0 and deviation["valuations.profile.builds"] > 0
    assert deviation["mechanisms.cost_share.calls"] > 0
    assert validate["io.bytes_parsed"] > 0 and validate["valuations.check.triples_per_s"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_planted_wrong_reference_is_counted_as_failed(name, monkeypatch):
    cls = workloads.WORKLOADS[name]
    real = cls.reference

    def planted(self):
        expected = real(self)
        expected[next(iter(expected))] = "planted"
        return expected

    monkeypatch.setattr(cls, "reference", planted)
    result = run.run_workload(name, 1, 0.2, trace=False, tiny=True)["result"]
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_deviation_negative_control_must_be_flagged(monkeypatch):
    # a truthful mechanism in the control's place is not flagged, which is a failure
    monkeypatch.setattr(workloads.tr, "broken_first_price_mechanism",
                        lambda p, s=0: workloads.mech.main_mechanism(p, s))
    result = run.run_workload("deviation", 1, 0.2, trace=False, tiny=True)["result"]
    assert result["failed"] == 1


def test_a_later_pass_that_changes_an_output_without_reference_fails():
    def record(value):
        rec = workloads.Pass(clock.Clock())
        rec.clock.calibrate()
        rec.step(perf_counter())
        rec.step(perf_counter())
        rec.clock.calibrate()
        rec.units = 1
        rec.output("k", 1, items=3)
        rec.digest("k", value, items=3)
        return rec

    timed = run.Timed()
    for value in ("a", "a", "b"):
        timed.add(record(value))
    timed.verify({"k": 1})
    assert (timed.attempted, timed.failed) == (9, 3)


def test_deviation_records_an_outcome_digest_per_call_sequence(tmp_path):
    wl = workloads.WORKLOADS["deviation"](1, tiny=True)
    wl.setup(tmp_path, clock.Clock())
    rec = workloads.Pass(clock.Clock())
    wl.run_pass(rec)
    assert rec.digests and set(rec.digests) == set(rec.outputs)


def test_scaled_time_follows_the_calibrations_on_each_side():
    c = clock.Clock()
    c.starts, c.ends, c.durations = [0.0, 5.0], [1.0, 6.0], [clock.NOMINAL_S, 3 * clock.NOMINAL_S]
    assert c.scaled(2.0, 4.0) == pytest.approx(1.0)


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _runs_file(path, values, seed0=0):
    with open(path, "w") as fh:
        for k, v in enumerate(values):
            fh.write(json.dumps({
                "details": {"workload": "mc_large", "trace": 0, "seed": seed0 + k},
                "result": {"metrics": {"work_per_s": {"value": v, "unit": "1/s"}}},
            }) + "\n")


def test_compare_verdicts(tmp_path):
    parent = [100.0 + k % 3 for k in range(10)]
    _runs_file(tmp_path / "a", parent)
    _runs_file(tmp_path / "b", [v * 1.5 for v in parent])
    _runs_file(tmp_path / "c", [v * 0.99 for v in parent])
    _runs_file(tmp_path / "d", [v * 0.5 for v in parent])

    def verdict(other):
        (row,) = compare.compare(tmp_path / "a", tmp_path / other)
        return row["verdict"], row["won"]

    assert verdict("b") == ("improved", 10)
    assert verdict("c") == ("no worse", 0)
    assert verdict("d") == ("worse", 0)


def test_compare_any_fall_of_ok_frac_is_worse():
    assert compare.verdict([1.0] * 10, [1.0] * 9 + [0.9999], [], "higher", 0.25,
                           strict=True)[0] == "worse"
    assert compare.verdict([1.0] * 10, [1.0] * 10, [], "higher", 0.25,
                           strict=True)[0] == "no worse"
