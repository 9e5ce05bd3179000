"""The mutant registry, ``tests/data/mutants.json``, stays plantable.

Each entry names a source file, one exact line of it (``before``), the line
that replaces it to plant the mutant (``after``; an empty one blanks the
line), and the tests recorded as failing on that mutant (``killed_by``).
A line that occurs more than once is planted only at the copy the entry's
``occurrence`` names (1 for the first from the top).
A change that edits such a line, or renames a killing test, must update or
retire the entry, so a later replay of the registry plants what it says.
``tests/replay_mutants.py`` is that replay; it runs outside tier-1, and here
only on a synthetic registry.
"""

import json
from pathlib import Path

from replay_mutants import main as replay_main, planted_line

ROOT = Path(__file__).parents[1]
REGISTRY = Path(__file__).parent / "data" / "mutants.json"


def _stale_entries(entries, root: Path) -> list[str]:
    """One line per way an entry no longer plants or names its killers."""
    stale = []
    for k, entry in enumerate(entries):
        where = f"mutants[{k}] ({entry['file']})"
        try:
            planted_line((root / entry["file"]).read_text().splitlines(), entry)
        except ValueError as exc:
            stale.append(f"{where}: {exc}")
        if entry["after"] == entry["before"]:
            stale.append(f"{where}: 'after' plants nothing")
        if not entry["killed_by"]:
            stale.append(f"{where}: no killing test")
        for test_id in entry["killed_by"]:
            path, _, name = test_id.partition("::")
            test = root / path
            if not test.is_file() or f"def {name.split('[')[0]}(" not in test.read_text():
                stale.append(f"{where}: no test {test_id}")
    return stale


def test_every_recorded_mutant_is_plantable():
    entries = json.loads(REGISTRY.read_text())["mutants"]
    assert len(entries) >= 6
    assert _stale_entries(entries, ROOT) == []


def test_the_check_catches_a_stale_entry(tmp_path):
    (tmp_path / "mod.py").write_text("def f(x):\n    return x + 1\n\n\ndef g(x):\n    return x + 1\n")
    (tmp_path / "test_mod.py").write_text("def test_f():\n    assert f(1) == 2\n")
    kept = {"file": "mod.py", "before": "def g(x):", "after": "def g(y):",
            "killed_by": ["test_mod.py::test_f"]}
    entries = [
        kept,
        {**kept, "before": "    return x - 1"},  # the line was edited since
        {**kept, "before": "    return x + 1"},  # it now occurs twice
        {**kept, "after": "def g(x):"},
        {**kept, "killed_by": []},
        {**kept, "killed_by": ["test_mod.py::test_g[0]", "test_gone.py::test_f"]},
        {**kept, "before": "    return x + 1", "occurrence": 2},  # the second copy, in g
        {**kept, "before": "    return x + 1", "occurrence": 3},
        {**kept, "occurrence": 1},  # a line that occurs once names no copy
    ]
    assert _stale_entries(entries, tmp_path) == [
        "mutants[1] (mod.py): 'before' occurs 0 times",
        "mutants[2] (mod.py): 'before' occurs 2 times",
        "mutants[3] (mod.py): 'after' plants nothing",
        "mutants[4] (mod.py): no killing test",
        "mutants[5] (mod.py): no test test_mod.py::test_g[0]",
        "mutants[5] (mod.py): no test test_gone.py::test_f",
        "mutants[7] (mod.py): 'before' occurs 2 times, not at occurrence 3",
        "mutants[8] (mod.py): 'before' occurs 1 times, not at occurrence 1",
    ]


def test_the_replay_reports_exactly_the_mutant_its_killers_miss(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "def add(x):\n    return x + 1\n\n\ndef double(x):\n    return 2 * x\n\n\n"
        "def inc(x):\n    return x + 1\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from mod import add, double\n\n\ndef test_add():\n    assert add(1) == 2\n\n\n"
        "def test_double_runs():\n    assert double(2) is not None\n")
    registry = tmp_path / "mutants.json"
    registry.write_text(json.dumps({"mutants": [
        {"what": "add by two", "file": "src/mod.py", "before": "    return x + 1",
         "after": "    return x + 2", "occurrence": 1, "killed_by": ["tests/test_mod.py::test_add"]},
        {"what": "triple", "file": "src/mod.py", "before": "    return 2 * x",
         "after": "    return 3 * x", "killed_by": ["tests/test_mod.py::test_double_runs"]},
    ]}))
    assert replay_main(["--root", str(tmp_path), "--registry", str(registry)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "mutants[0] killed: add by two",
        "mutants[1] survived: every recorded killer passed: triple",
        "1 of 2 killed",
    ]
    lines = (tmp_path / "src" / "mod.py").read_text().splitlines()
    assert lines.count("    return x + 1") == 2
    assert planted_line(lines, {"before": "    return x + 1", "occurrence": 2}) == 9  # inc's
