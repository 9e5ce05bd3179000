"""Instance files, report serialization.

Instance files are JSON with a versioned schema (``"schema": 1``); unknown
fields are rejected so fixtures stay honest.  Loading validates the domain
conditions exhaustively for n <= 12; :func:`require_valid` also checks larger
instances, by seeded sampling.  Every number must be a finite JSON number,
not a string or a boolean.  The profile's constructor checks the structure
(neighbour ids, table keys, shapes, ``declared_L`` finite and >= 1), so a
profile the library builds saves to a file this module reads; ``declared_L``
is not checked against the valuations.  Table set keys are read by lookup when
canonical (ids ascending, comma-joined, every id below ``n``) and by the
parser otherwise, to the same set; saving writes canonical keys.  The lookup
tables are built once per size, by a :func:`functools.cache`, and never
changed after, so threads loading at once share them safely.
Report emission is deterministic: stable column order, floats at 12
significant digits, identical inputs give byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, fields
from pathlib import Path

from .experiments import ExperimentReport
from .sets import MEMBER_TABLE_SIZE, mask_of, members
from .valuations import (
    EXHAUSTIVE_MAX_N,
    AdditiveModel,
    DegreeWeight,
    GraphConcaveModel,
    LinearModel,
    ScalarModel,
    TableModel,
    ValuationProfile,
    check_conditions,
)

SCHEMA_VERSION = 1

#: entry name -> class, per tag: ``model`` names agent entries, ``kind`` names weights
_KINDS = {
    "model": {
        "table": TableModel,
        "additive": AdditiveModel,
        "scalar": ScalarModel,
        "linear": LinearModel,
        "graph_concave": GraphConcaveModel,
    },
    "kind": {"degree": DegreeWeight, "table": TableModel},
}


def _schema(tag: str, cls) -> tuple:
    fs = fields(cls)
    return (
        cls,
        tuple((f.name, f.type) for f in fs),
        {tag, *(f.name for f in fs)},
        {tag, *(f.name for f in fs if f.default is MISSING)},
    )


#: per tag, entry name -> (class, (field, annotation) pairs, allowed keys, required keys):
#: an entry's keys are its tag plus exactly its class's fields, those with a default optional
_SCHEMAS = {
    tag: {name: _schema(tag, cls) for name, cls in kinds.items()} for tag, kinds in _KINDS.items()
}
_NAMES = {tag: {cls: name for name, cls in kinds.items()} for tag, kinds in _KINDS.items()}


class InstanceError(ValueError):
    """Malformed or invalid instance file."""


def require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    """Reject keys outside ``allowed`` and a missing ``required`` one (strict schema)."""
    unknown = set(obj) - allowed
    if unknown:
        raise InstanceError(f"{where}: unknown fields {sorted(unknown)} (strict schema)")
    missing = required - set(obj)
    if missing:
        raise InstanceError(f"{where}: missing fields {sorted(missing)}")


@functools.cache
def _canonical_keys(size: int) -> tuple[list[str], dict[str, int]]:
    """``(keys, masks)``: ``keys[m]`` is the canonical set key of ``m`` (its ids
    ascending, comma-joined) for every mask below ``size``, a power of 2, and
    ``masks`` maps each key back to its mask.  Built by doubling, as
    ``sets._member_table`` is; callers ask for ``min(2^n, MEMBER_TABLE_SIZE)``
    masks, so at most 13 tables are kept."""
    keys = [""]
    while len(keys) < size:
        bit = str(len(keys).bit_length() - 1)  # masks with this bit set come next
        keys += [f"{k},{bit}" if k else bit for k in keys]
    return keys, {k: m for m, k in enumerate(keys)}


def _set_key(mask: int, keys: list[str]) -> str:
    if 0 <= mask < len(keys):
        return keys[mask]
    return ",".join(map(str, members(mask)))


def _parse_set_key(key: str, n: int, where: str) -> int:
    if key.strip() == "":
        raise InstanceError(f"{where}: empty set key cannot contain the agent")
    try:
        ids = [int(p) for p in key.split(",")]
    except ValueError:
        raise InstanceError(f"{where}: bad set key {key!r}") from None
    if any(i < 0 or i >= n for i in ids):
        raise InstanceError(f"{where}: set key {key!r} out of range for n={n}")
    return mask_of(ids)


def is_number(x) -> bool:
    """A JSON number: exact type int or float (JSON true/false are ints to Python)."""
    return type(x) in (int, float)


def _float(x, where: str) -> float:
    """Every number of an instance file is read here; it must be a finite JSON number.
    A negative zero reads as 0.0, so no output of a valid file prints ``-0.0``."""
    if not is_number(x):
        raise InstanceError(f"{where}: expected a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise InstanceError(f"{where}: numbers must be finite, got {x!r}")
    return v + 0.0


def _to_json(obj, tag: str, n: int) -> dict:
    """Entry of a model (tag ``model``) or weight (tag ``kind``), every field written."""
    name = _NAMES[tag].get(type(obj))
    if name is None:
        raise InstanceError(f"unserializable {tag} entry {obj!r}")
    doc = {tag: name}
    for field, annotation in _SCHEMAS[tag][name][1]:
        value = getattr(obj, field)
        if annotation == "Weight":
            value = _to_json(value, "kind", n)
        elif annotation == "Mapping[int, float]":
            keys = _canonical_keys(min(1 << n, MEMBER_TABLE_SIZE))[0]
            value = {_set_key(m, keys): v for m, v in sorted(value.items())}
            for v in value.values():
                if not is_number(v):  # a bool too, which JSON would write as true
                    raise ValueError(f"table value {v!r} is not a number")
        doc[field] = value
    return doc


def _from_json(obj, tag: str, n: int, where: str):
    """Model (tag ``model``) or weight (tag ``kind``) from its entry; absent optional
    fields take the class defaults."""
    if not isinstance(obj, dict) or tag not in obj:
        noun = "agent entry" if tag == "model" else "weight"
        raise InstanceError(f"{where}: {noun} must be an object with a {tag!r}")
    schema = _SCHEMAS[tag].get(obj[tag]) if isinstance(obj[tag], str) else None
    if schema is None:
        what = "model" if tag == "model" else "weight kind"
        raise InstanceError(f"{where}: unknown {what} {obj[tag]!r}")
    cls, spec, allowed, required = schema
    require_keys(obj, allowed, required, where)
    kwargs = {}
    for field, annotation in spec:
        if field in obj:
            kwargs[field] = _field(annotation, obj[field], n, where)
    return cls(**kwargs)


def _field(annotation: str, value, n: int, where: str):
    """One field of an entry, read by its annotation (source text: the valuations
    module postpones annotation evaluation)."""
    if annotation == "float":
        return _float(value, where)
    if annotation == "Weight":
        return _from_json(value, "kind", n, where)
    if annotation == "str":  # a shape, which the profile's constructor checks
        return value
    if not isinstance(value, dict):  # Mapping[int, float]
        raise InstanceError(f"{where}: a table must be an object of set keys to numbers")
    keys, masks = _canonical_keys(min(1 << n, MEMBER_TABLE_SIZE))
    lookup = masks.get
    table = {}
    for k, v in value.items():
        mask = lookup(k)
        if not mask:  # not a canonical key of n agents: the parser decides
            mask = _parse_set_key(k, n, where)
        if mask in table:
            raise InstanceError(
                f"{where}: table key {k!r} names the set {_set_key(mask, keys)!r} again")
        table[mask] = _float(v, where)
    return table


def _instance_doc(profile: ValuationProfile) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "n": profile.n,
        "agents": [_to_json(m, "model", profile.n) for m in profile.models],
    }
    if profile.graph is not None:
        doc["graph"] = [list(nb) for nb in profile.graph]
    if profile.declared_L is not None:
        doc["declared_L"] = profile.declared_L
    return doc


def instance_digest(profile: ValuationProfile) -> str:
    """Content hash of the canonical instance document, for replayable reports."""
    payload = json.dumps(_instance_doc(profile), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def save_instance(profile: ValuationProfile, path) -> None:
    """Write ``profile`` as strict JSON: a NaN or infinite number, or a table value
    that is not an ``int`` or ``float``, raises ``ValueError`` before the file is
    opened, as the loader would refuse it."""
    text = json.dumps(_instance_doc(profile), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def load_instance(path, validate: bool = True) -> ValuationProfile:
    """Load and validate an instance file.

    Raises :class:`InstanceError` on schema mismatch, malformed entries, or
    (for n <= 12) domain-condition violations, naming the witness sets.  Past
    n = 12 the sampled check costs tens of milliseconds a file, so it is left
    to the caller: :func:`require_valid`, as the CLI does for every file it
    runs on.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise InstanceError(f"cannot read instance file {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, huge int literal, deep nesting
        raise InstanceError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InstanceError(f"{path}: top level must be an object")
    require_keys(
        doc,
        {"schema", "n", "agents", "graph", "declared_L", "name"},
        {"schema", "n", "agents"},
        str(path),
    )
    if type(doc["schema"]) is not int or doc["schema"] != SCHEMA_VERSION:  # not true or 1.0
        raise InstanceError(
            f"{path}: schema version {doc['schema']!r} unsupported (want {SCHEMA_VERSION})"
        )
    n = doc["n"]
    if type(n) is not int or n < 1:  # JSON true/false are ints to Python
        raise InstanceError(f"{path}: n must be a positive integer")
    agents = doc["agents"]
    if not isinstance(agents, list):
        raise InstanceError(f"{path}: agents must be a list")
    if len(agents) != n:
        raise InstanceError(f"{path}: {len(agents)} agent entries for n={n}")
    graph = doc.get("graph")
    if graph is not None:
        if not isinstance(graph, list) or not all(isinstance(nb, list) for nb in graph):
            raise InstanceError(f"{path}: graph must be a list of neighbor lists")
    declared_L = doc.get("declared_L")
    if declared_L is not None:
        declared_L = _float(declared_L, f"{path}: declared_L")
    models = [_from_json(a, "model", n, f"{path}: agents[{i}]") for i, a in enumerate(agents)]
    try:
        profile = ValuationProfile(models, graph=graph, declared_L=declared_L)
    except ValueError as e:  # the structure: neighbours, table keys, declared_L
        raise InstanceError(f"{path}: {e}") from None
    if validate and n <= EXHAUSTIVE_MAX_N:
        require_valid(profile, path)
    return profile


def require_valid(profile: ValuationProfile, where) -> None:
    """Raise :class:`InstanceError` naming up to five witnesses unless ``profile``
    passes :func:`check_conditions` (exhaustive for n <= 12, sampled beyond)."""
    violations = check_conditions(profile)
    if violations:
        listing = "; ".join(v.describe() for v in violations[:5])
        raise InstanceError(f"{where}: instance violates the valuation conditions: {listing}")


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _render(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)  # nan, inf and -inf as such


def _csv_field(x) -> str:
    """One CSV field, quoted (RFC 4180) when it holds a comma, a quote or a line break."""
    text = _render(x)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_report(report: ExperimentReport, outdir) -> None:
    """Create ``outdir`` and write the report there as ``rows.csv`` and
    ``summary.json``, deterministically."""
    outdir = Path(outdir)
    lines = [",".join(map(_csv_field, row)) + "\n" for row in [report.columns, *report.rows]]
    doc = {
        "schema": SCHEMA_VERSION,
        "columns": list(report.columns),
        "rows": [[_render(x) if isinstance(x, float) else x for x in row] for row in report.rows],
        "summary": {k: _render(v) if isinstance(v, float) else v
                    for k, v in sorted(report.summary.items())},
    }
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "rows.csv").write_text("".join(lines))
        (outdir / "summary.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as e:
        raise OSError(f"cannot write report to {outdir}: {e}") from e
