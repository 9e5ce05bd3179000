"""Every name a library module imports is used in that module, and every
private module-level name is read somewhere in the package.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead.  A name counts as used when the module reads it
anywhere, annotations included; a private name also counts as read when
another module imports it or reads it as an attribute.
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


def _private_bindings(tree: ast.Module) -> set[str]:
    """Private (one leading underscore) names a module binds at top level by
    ``def``, ``class`` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _reads(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an import."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _unread_private_names(paths) -> set[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    read = set().union(*map(_reads, trees.values()))
    return {(stem, name) for stem, tree in trees.items()
            for name in _private_bindings(tree) - read}


def test_every_private_name_is_read():
    assert _unread_private_names(PACKAGE.glob("*.py")) == set()


def test_the_check_catches_an_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_memo = {}\n_kept: int = 1\nx, (_pair, _left) = 1, (2, 3)\n\n"
        "def _helper():\n    return _kept\n\nclass _Box:\n    pass\n")
    (tmp_path / "b.py").write_text("from a import _helper\nimport a\n\nprint(a._pair)\n")
    assert _unread_private_names(sorted(tmp_path.glob("*.py"))) == {
        ("a", "_memo"), ("a", "_left"), ("a", "_Box")}


#: the tabulated store of the exact path, which only ``mechanisms._Tabulated`` and its walk read
TABULATED_STATE = {"tern", "_lows", "_args", "_columns"}


def _tabulated_state_readers(paths) -> dict[str, set[str]]:
    """Per module outside ``mechanisms``, the tabulated-store names it reads."""
    readers = {}
    for path in paths:
        names = _reads(ast.parse(path.read_text(), filename=str(path))) & TABULATED_STATE
        if names and path.stem != "mechanisms":
            readers[path.stem] = names
    return readers


def test_only_mechanisms_reads_the_tabulated_store():
    assert _tabulated_state_readers(PACKAGE.glob("*.py")) == {}


def test_the_check_catches_a_tabulated_store_read_elsewhere(tmp_path):
    (tmp_path / "mechanisms.py").write_text("def fill(o):\n    return o.tern, o._lows\n")
    (tmp_path / "valuations.py").write_text(
        "class Oracle:\n    def argmin(self, key):\n        return self._args[key]\n")
    (tmp_path / "benchmark.py").write_text("from mechanisms import _columns\ntern = 3\n")
    assert _tabulated_state_readers(sorted(tmp_path.glob("*.py"))) == {
        "valuations": {"_args"}, "benchmark": {"_columns"}}
