"""Every name a library module imports is used in that module.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead.  A name counts as used when the module reads it
anywhere, annotations included.
"""

import ast
from pathlib import Path

import extauction

PACKAGE = Path(extauction.__file__).parent

#: (module, name) imports kept only so the benchmark's tracer can patch them
TRACER_BINDINGS = {("benchmark", "iter_members"), ("experiments", "_greedy_sweep")}


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return set(_imported_names(tree)) - read


def test_every_import_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    unused = {
        (path.stem, name)
        for path in modules
        if path.name != "__init__.py"  # re-exports everything it imports via __all__
        for name in _unused_imports(path)
    }
    assert unused <= TRACER_BINDINGS, sorted(unused - TRACER_BINDINGS)


def test_the_check_catches_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import math\nfrom os import path as p, sep\n\nprint(p, math.pi)\n")
    assert _unused_imports(path) == {"sep"}
