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


#: the partition ledger's entry and its slot on the oracle, whose tuple layout only
#: the two modules that own it read; ``cli`` takes the guarantee through
#: ``experiments.revenue_guarantee_check``
LEDGER_NAMES = {"_partition_ledger", "ledger"}
LEDGER_OWNERS = {"mechanisms", "experiments"}


def _loads(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an import; a store, such as
    the slot's first value in ``Oracle.__init__``, is not a read."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _ledger_readers(paths) -> dict[str, set[str]]:
    """Per module other than the ledger's owners, the ledger names it reads."""
    readers = {}
    for path in paths:
        names = _loads(ast.parse(path.read_text(), filename=str(path))) & LEDGER_NAMES
        if names and path.stem not in LEDGER_OWNERS:
            readers[path.stem] = names
    return readers


def test_only_mechanisms_and_experiments_read_the_ledger():
    assert _ledger_readers(PACKAGE.glob("*.py")) == {}


def test_the_check_catches_a_ledger_read_elsewhere(tmp_path):
    (tmp_path / "mechanisms.py").write_text(
        "def _partition_ledger(o):\n    o.ledger = (1.0, (), None)\n    return o.ledger\n")
    (tmp_path / "experiments.py").write_text(
        "from mechanisms import _partition_ledger\n\ndef f3(o):\n    return _partition_ledger(o)[2]\n")
    (tmp_path / "valuations.py").write_text(
        "class Oracle:\n    __slots__ = ('ledger',)\n\n    def __init__(self):\n"
        "        self.ledger = None\n")
    (tmp_path / "cli.py").write_text("def expect(oracle):\n    return oracle.ledger[2]\n")
    (tmp_path / "io.py").write_text("import mechanisms as m\n\nrun = m._partition_ledger\n")
    (tmp_path / "benchmark.py").write_text("from mechanisms import _partition_ledger\n")
    assert _ledger_readers(sorted(tmp_path.glob("*.py"))) == {
        "cli": {"ledger"}, "io": {"_partition_ledger"}, "benchmark": {"_partition_ledger"}}


#: where a ``x > EXHAUSTIVE_MAX_N`` comparison may refuse the exhaustive range: the
#: condition checker's mode and the exact ``3^n`` walk's tabulated oracle, one cap each
CAP_OWNERS = {("valuations", "_resolve_mode"), ("mechanisms", "_Tabulated.__init__")}


def _names_the_cap(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "EXHAUSTIVE_MAX_N"
            or isinstance(node, ast.Attribute) and node.attr == "EXHAUSTIVE_MAX_N")


def _cap_comparisons(paths) -> set[tuple[str, str]]:
    """``(module, enclosing qualified name)`` of each ``x > EXHAUSTIVE_MAX_N`` (or
    ``EXHAUSTIVE_MAX_N < x``) comparison, with ``""`` for module level; the
    validation gates compare with ``<=`` and are not counted."""
    found = set()

    def visit(node, stem, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                for op, left, right in zip(child.ops, operands, operands[1:]):
                    if (isinstance(op, ast.Gt) and _names_the_cap(right)
                            or isinstance(op, ast.Lt) and _names_the_cap(left)):
                        found.add((stem, scope))
            visit(child, stem, inner)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "")
    return found


def test_each_exhaustive_cap_is_stated_once():
    assert _cap_comparisons(PACKAGE.glob("*.py")) == CAP_OWNERS


def test_the_check_catches_a_restated_cap(tmp_path):
    (tmp_path / "valuations.py").write_text(
        "EXHAUSTIVE_MAX_N = 12\n\ndef _resolve_mode(n):\n    if n > EXHAUSTIVE_MAX_N:\n"
        "        raise ValueError(n)\n\ndef validates(n):\n    return n <= EXHAUSTIVE_MAX_N\n")
    (tmp_path / "mechanisms.py").write_text(
        "from valuations import EXHAUSTIVE_MAX_N\n\nclass _Tabulated:\n"
        "    def __init__(self, n):\n        if n > EXHAUSTIVE_MAX_N:\n            raise ValueError(n)\n\n"
        "def exact(oracle):\n    if 0 < oracle.n > EXHAUSTIVE_MAX_N:\n        raise ValueError(oracle.n)\n")
    (tmp_path / "experiments.py").write_text(
        "import valuations as val\n\nWIDE = 13 > val.EXHAUSTIVE_MAX_N\n\n"
        "def quarter(oracle):\n    return val.EXHAUSTIVE_MAX_N < oracle.n\n")
    assert _cap_comparisons(sorted(tmp_path.glob("*.py"))) == CAP_OWNERS | {
        ("mechanisms", "exact"), ("experiments", ""), ("experiments", "quarter")}


def _none_stores(func: ast.FunctionDef, owner: str) -> set[str]:
    """Private attributes of the name ``owner`` that ``func`` sets to ``None``."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if isinstance(node.value, ast.Constant) and node.value.value is None:
                names.update(t.attr for t in targets if isinstance(t, ast.Attribute)
                             and isinstance(t.value, ast.Name) and t.value.id == owner
                             and t.attr.startswith("_") and not t.attr.startswith("__"))
    return names


def _profile_caches(path: Path) -> tuple[set[str], set[str]]:
    """The private attributes ``ValuationProfile.__init__`` sets to ``None`` (its lazily
    built caches), and those ``replace`` sets to ``None`` on the profile it returns."""
    tree = ast.parse(path.read_text(), filename=str(path))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ValuationProfile")
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    replace = methods["replace"]
    new = next(node.value.id for node in ast.walk(replace)
               if isinstance(node, ast.Return) and isinstance(node.value, ast.Name))
    return _none_stores(methods["__init__"], "self"), _none_stores(replace, new)


def test_replace_resets_every_profile_cache():
    """``replace`` copies the profile's ``__dict__``, so a cache it does not reset
    would hand the truthful profile's to every misreport."""
    built, reset = _profile_caches(PACKAGE / "valuations.py")
    assert "_sweep_view" in built
    assert reset == built


def test_the_check_catches_a_cache_replace_keeps(tmp_path):
    path = tmp_path / "valuations.py"
    path.write_text(
        "class ValuationProfile:\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n        self.graph = None\n        self._fns = ()\n"
        "        self._view: int | None = None\n        self._weights = None\n\n"
        "    def replace(self, i):\n"
        "        out = object.__new__(ValuationProfile)\n"
        "        out.__dict__.update(self.__dict__)\n"
        "        out._view = None\n        self._weights = None\n"
        "        return out\n")
    assert _profile_caches(path) == ({"_view", "_weights"}, {"_view"})
