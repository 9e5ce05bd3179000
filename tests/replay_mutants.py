"""Replay the mutant registry: plant each mutant alone and run only its recorded killers.

    python tests/replay_mutants.py [--root DIR] [--registry FILE]

For each entry of ``tests/data/mutants.json`` this copies the checkout
(``src/``, ``tests/``, ``perfbench/``, ``pyproject.toml`` and
``BENCHMARK.json``) to a fresh temporary directory, swaps the entry's
``before`` line (the ``occurrence``-th copy, from the top, when the entry
names one) for its ``after`` line, and runs its ``killed_by`` tests
there with pytest, one entry at a time.  An entry is killed when pytest
reports a failing test (exit code 1).  It prints one line per entry and
exits 1 if any entry survives: its killers all pass, or pytest could not run
them (a killer id that no longer exists, say).  The fix for a survivor goes
in the tests or the code, never in the entry.

Pytest does not collect this file (its name has no ``test_`` prefix), so
tier-1 runs it only on a synthetic registry, in
``tests/test_mutant_registry.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")


def _copy(root: Path, dest: Path) -> None:
    """The parts of the checkout the killers need, without bytecode caches."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    dest.mkdir()
    for name in COPIED:
        path = root / name
        if path.is_dir():
            shutil.copytree(path, dest / name, ignore=ignore)
        elif path.is_file():
            shutil.copy2(path, dest / name)


def planted_line(lines: list[str], entry: dict) -> int:
    """Index in ``lines`` (without line ends) of the line ``entry`` replaces.

    That is the one line equal to ``before``, or, when the entry names an
    ``occurrence`` ``k``, the ``k``-th from the top of a line that occurs
    two or more times.  Anything else raises ``ValueError``.
    """
    hits = [k for k, line in enumerate(lines) if line == entry["before"]]
    k = entry.get("occurrence")
    if k is None and len(hits) == 1:
        return hits[0]
    if k is not None and len(hits) > 1 and 1 <= k <= len(hits):
        return hits[k - 1]
    at = "" if k is None else f", not at occurrence {k}"
    raise ValueError(f"'before' occurs {len(hits)} times{at}")


def _plant(path: Path, entry: dict) -> None:
    lines = path.read_text().splitlines(keepends=True)
    try:
        at = planted_line([line.rstrip("\n") for line in lines], entry)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    lines[at] = entry["after"] + "\n"
    path.write_text("".join(lines))


def replay(entries: list[dict], root: Path = ROOT) -> list[tuple[int, str]]:
    """``(index, outcome)`` for each entry, in order; an outcome other than
    ``"killed"`` says why the entry survived."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    results = []
    with tempfile.TemporaryDirectory(prefix="mutant-replay-") as tmp:
        for k, entry in enumerate(entries):
            work = Path(tmp) / str(k)
            _copy(root, work)
            try:
                _plant(work / entry["file"], entry)
            except (OSError, ValueError) as exc:
                results.append((k, f"not planted: {exc}"))
                continue
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "-o", "addopts=", *entry["killed_by"]],
                cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if run.returncode == 1:
                results.append((k, "killed"))
            elif run.returncode == 0:
                results.append((k, "survived: every recorded killer passed"))
            else:
                tail = run.stdout.strip().splitlines()[-1:] or [""]
                results.append((k, f"survived: pytest exit {run.returncode} ({tail[0]})"))
            shutil.rmtree(work)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to copy")
    parser.add_argument("--registry", type=Path, help="default: ROOT/tests/data/mutants.json")
    args = parser.parse_args(argv)
    registry = args.registry or args.root / "tests" / "data" / "mutants.json"
    entries = json.loads(registry.read_text())["mutants"]
    survivors = 0
    for k, outcome in replay(entries, args.root):
        survivors += outcome != "killed"
        print(f"mutants[{k}] {outcome}: {entries[k]['what']}", flush=True)
    print(f"{len(entries) - survivors} of {len(entries)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
