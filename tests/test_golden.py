"""Byte-identity gate: CLI output and experiment files against recorded hashes.

A fixed corpus runs in process through ``cli.main``: every subcommand over
one small instance per generator family and graph kind, plus the four
experiment modes.  Each subcommand's sha256 covers the argv, the exit code
and the stdout of every call, and for ``experiment`` also the bytes of
``rows.csv`` and ``summary.json``.  Paths are relative to the corpus
directory, so the hashes do not depend on where it lives.

A refactor or speed-up must leave every hash unchanged.  A change meant to
alter output re-records them with ``PYTHONPATH=src python tests/test_golden.py``
and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from extauction import DegreeWeight, ScalarModel, TableModel, ValuationProfile
from extauction.cli import main
from extauction.experiments import GEN_MODELS, gen_instance
from extauction.io import save_instance
from extauction.sets import mask_of

GRAPHS = (None, "er", "pa", "complete")
N = 4

EXPERIMENTS = {
    "exact": {
        "seed": 5,
        "mode": "exact",
        "instances": [
            {"model": model, "n": 3 + j % 2, "graph": GRAPHS[j % len(GRAPHS)]}
            for j, model in enumerate(GEN_MODELS)
        ],
    },
    "monte-carlo": {
        "seed": 6,
        "mode": "monte-carlo",
        "trials": 15,
        "instances": [
            {"model": "mixed", "n": 6, "graph": "er", "graph_p": 0.4},
            {"model": "linear", "n": 5, "name": "lin5"},
        ],
    },
    "additive-bound": {
        "seed": 7,
        "mode": "additive-bound",
        "alpha": 2.0,
        "instances": [{"model": "additive", "n": n, "graph": "pa"} for n in (3, 5)],
    },
    "f2-gap": {"mode": "f2-gap", "m_values": [1.0, 10.0, 1000.0]},
}

#: sha256 per subcommand, recorded on the code before the schema, deletion-fixpoint
#: and r(C) refactor
RECORDED = {
    "check": "dc9ac21ea80864760f5c80d788d6051bcdc85dc5a86cabd0c20907cb3ebfead7",
    "benchmark": "a0ca39ecdf2c4c74cdad4e63f4edf8cc305e39fa25289ff75d3173df4fc3ed9d",
    "run": "2ba731d759e3451fd992c45201f9a1a80093485b011dca65707762de8fa4ce84",
    "expect": "51a5d8a0623abaf8811000dea5fcb07ea38019756aee5e435a37eaf7f94dbb8a",
    "verify": "f073a241cb858442dc9756ae0c13e6bf3269fb2b9a74075b8ed94915cdcd429e",
    "experiment": "b4cec5705cf254befdbf920a27a0c33650eb1d74ae2d59a403a50382bd7daa30",
    "demo": "174a41cc344058c0aa92c9788acb9c1075082ea8fdf3263bb6a68ee4d81d7b07",
    # recorded on the code before the checker and estimate_L shared one witness scan
    "check_invalid": "fb0260c6f34787a84f5eb4f58919cde0fc11997aad488f104f39de765eda28bd",
}


def _instances(root: Path) -> list[tuple[str, str]]:
    """Save one instance per (family, graph kind); returns (family, file name)."""
    out = []
    for j, model in enumerate(GEN_MODELS):
        for graph in GRAPHS:
            name = f"{model}-{graph or 'none'}.json"
            save_instance(gen_instance(model, N, seed=j, graph=graph), root / name)
            out.append((model, name))
    return out


def _invalid_instances(root: Path) -> list[str]:
    """Hand-built files that break the valuation conditions; returns file names."""
    scalar = ScalarModel(t=2.0, weight=DegreeWeight())

    def table(i, n, value):
        return TableModel({s: value(s) for s in range(1 << n) if s >> i & 1})

    # agent 0 of the last file breaks subadditivity at {0, 1} | {0, 2} only:
    # sets inside {0, 1, 2} are worth 1 except the whole of it, every other set 3
    low = mask_of([0, 1, 2])
    profiles = {
        "negative-t": [scalar, ScalarModel(t=-1.0, weight=DegreeWeight()), scalar],
        "all-negative": [ScalarModel(t=-1.0, weight=DegreeWeight())] * 6,
        "non-monotone": [table(0, 3, lambda s: 1.0 if s == 0b011 else 2.0), scalar, scalar],
        "square": [table(i, 3, lambda s: float(s.bit_count() ** 2)) for i in range(3)],
        "single-gap": [table(0, 6, lambda s: 1.0 if s & low == s != low else 3.0)]
        + [scalar] * 5,
    }
    for name, models in profiles.items():
        save_instance(ValuationProfile(models), root / f"{name}.json")
    return [f"{name}.json" for name in profiles]


def _calls(root: Path) -> dict[str, list[list[str]]]:
    calls = {cmd: [] for cmd in RECORDED}
    for model, f in _instances(root):
        inst = ["--instance", f]
        calls["check"] += [
            ["check", *inst],
            ["check", *inst, "--sampled", "--samples", "300", "--seed", "2"],
        ]
        calls["benchmark"] += [
            ["benchmark", *inst, "--k", str(k), "--method", method]
            for k in (1, 2, 3)
            for method in ("brute", "sweep")
        ]
        calls["run"] += [["run", "--mechanism", "main", *inst, "--seed", str(s)] for s in (0, 1, 7)]
        calls["run"] += [
            ["run", "--mechanism", "fixed-price", *inst, "--price", p] for p in ("0", "2.5")
        ]
        calls["expect"].append(["expect", *inst])
        calls["verify"] += [
            ["verify", "--mechanism", "main", *inst, "--misreports", "8", "--runs", "2"],
            ["verify", "--mechanism", "main", *inst, "--misreports", "2", "--exhaustive"],
            ["verify", "--mechanism", "fixed-price", *inst, "--price", "2.0", "--misreports", "8"],
            ["verify", "--mechanism", "broken", *inst, "--misreports", "8", "--runs", "1"],
        ]
        if model == "additive":
            calls["run"] += [
                ["run", "--mechanism", "mechanism2", *inst, "--seed", str(s), "--alpha", a]
                for s in (0, 3)
                for a in ("1.0", "4.68")
            ]
            calls["verify"].append([
                "verify", "--mechanism", "mechanism2", *inst, "--misreports", "8", "--alpha", "1.0",
            ])
    for f in _invalid_instances(root):
        inst = ["--instance", f]
        calls["check_invalid"] += [
            ["check", *inst],
            ["check", *inst, "--sampled", "--samples", "300", "--seed", "2"],
            ["check", *inst, "--sampled", "--samples", "20"],
        ]
    for mode, config in EXPERIMENTS.items():
        (root / f"{mode}.json").write_text(json.dumps(config))
        calls["experiment"].append(
            ["experiment", "--config", f"{mode}.json", "--out", f"out-{mode}"]
        )
    calls["demo"] = [
        ["demo", "--which", "f2-gap"],
        ["demo", "--which", "f2-gap", "--m-values", "2", "50"],
        ["demo", "--which", "losing-value"],
    ]
    return calls


def corpus_hashes(root: Path) -> dict[str, str]:
    """Run the corpus inside ``root`` (the working directory meanwhile)."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        hashes = {}
        for cmd, argvs in _calls(Path(".")).items():
            h = hashlib.sha256()
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                h.update(json.dumps(argv).encode())
                h.update(f"\0{code}\0".encode())
                h.update(out.getvalue().encode())
                if cmd == "experiment":
                    outdir = Path(argv[-1])
                    h.update((outdir / "rows.csv").read_bytes())
                    h.update((outdir / "summary.json").read_bytes())
            hashes[cmd] = h.hexdigest()
        return hashes
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return corpus_hashes(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("cmd", list(RECORDED))
def test_cli_output_matches_recorded_hash(hashes, cmd):
    assert hashes[cmd] == RECORDED[cmd]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(corpus_hashes(Path(tmp)), sys.stdout, indent=4)
        print()
