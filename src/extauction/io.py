"""Instance files, report serialization.

Instance files are JSON with a versioned schema (``"schema": 1``); unknown
fields are rejected so fixtures stay honest.  Loading validates the domain
conditions for n <= 12; larger instances must carry ``declared_L``.
Report emission is deterministic: stable column order, floats at 12
significant digits, identical inputs give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, fields
from pathlib import Path

from .experiments import ExperimentReport
from .sets import mask_of, members
from .valuations import (
    SHAPES,
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


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise InstanceError(f"{where}: unknown fields {sorted(unknown)} (strict schema)")
    missing = required - set(obj)
    if missing:
        raise InstanceError(f"{where}: missing fields {sorted(missing)}")


def _set_key(mask: int) -> str:
    return ",".join(str(i) for i in members(mask))


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


def _float(x, where: str) -> float:
    """Every number of an instance file is read here; it must be finite."""
    try:
        v = float(x)
    except (TypeError, ValueError, OverflowError):
        raise InstanceError(f"{where}: expected a number, got {x!r}") from None
    if not math.isfinite(v):
        raise InstanceError(f"{where}: numbers must be finite, got {x!r}")
    return v


def _to_json(obj, tag: str) -> dict:
    """Entry of a model (tag ``model``) or a weight (tag ``kind``), every field written."""
    name = _NAMES[tag].get(type(obj))
    if name is None:
        raise InstanceError(f"unserializable {tag} entry {obj!r}")
    doc = {tag: name}
    for field, annotation in _SCHEMAS[tag][name][1]:
        value = getattr(obj, field)
        if annotation == "Weight":
            value = _to_json(value, "kind")
        elif annotation == "Mapping[int, float]":
            value = {_set_key(m): v for m, v in sorted(value.items())}
        doc[field] = value
    return doc


def _from_json(obj, tag: str, n: int, where: str, agent: int | None = None):
    """Model (tag ``model``) or weight (tag ``kind``) from its entry; absent optional
    fields take the class defaults, and an agent entry's table keys must contain ``agent``."""
    if not isinstance(obj, dict) or tag not in obj:
        noun = "agent entry" if tag == "model" else "weight"
        raise InstanceError(f"{where}: {noun} must be an object with a {tag!r}")
    schema = _SCHEMAS[tag].get(obj[tag]) if isinstance(obj[tag], str) else None
    if schema is None:
        what = "model" if tag == "model" else "weight kind"
        raise InstanceError(f"{where}: unknown {what} {obj[tag]!r}")
    cls, spec, allowed, required = schema
    _require_keys(obj, allowed, required, where)
    kwargs = {}
    for field, annotation in spec:
        if field in obj:
            kwargs[field] = _field(annotation, obj[field], n, where, agent)
    return cls(**kwargs)


def _field(annotation: str, value, n: int, where: str, agent: int | None):
    """One field of an entry, read by its annotation (source text: the valuations
    module postpones annotation evaluation)."""
    if annotation == "float":
        return _float(value, where)
    if annotation == "Weight":
        return _from_json(value, "kind", n, where)
    if annotation == "str":  # the string fields are shapes
        if value not in SHAPES:
            raise InstanceError(f"{where}: unknown shape {value!r} (want one of {sorted(SHAPES)})")
        return value
    table = {}  # Mapping[int, float]
    for k, v in value.items():
        mask = _parse_set_key(k, n, where)
        if agent is not None and not (mask >> agent) & 1:
            raise InstanceError(f"{where}: table key {k!r} does not contain agent {agent}")
        table[mask] = _float(v, where)
    return table


def _instance_doc(profile: ValuationProfile) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "n": profile.n,
        "agents": [_to_json(m, "model") for m in profile.models],
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
    Path(path).write_text(json.dumps(_instance_doc(profile), indent=2, sort_keys=True) + "\n")


def load_instance(path, validate: bool = True) -> ValuationProfile:
    """Load and validate an instance file.

    Raises :class:`InstanceError` on schema mismatch, malformed entries, or
    (for n <= 12) domain-condition violations, naming the witness sets.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise InstanceError(f"cannot read instance file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InstanceError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InstanceError(f"{path}: top level must be an object")
    _require_keys(
        doc,
        {"schema", "n", "agents", "graph", "declared_L", "name"},
        {"schema", "n", "agents"},
        str(path),
    )
    if doc["schema"] != SCHEMA_VERSION:
        raise InstanceError(
            f"{path}: schema version {doc['schema']!r} unsupported (want {SCHEMA_VERSION})"
        )
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise InstanceError(f"{path}: n must be a positive integer")
    agents = doc["agents"]
    if len(agents) != n:
        raise InstanceError(f"{path}: {len(agents)} agent entries for n={n}")
    graph = doc.get("graph")
    if graph is not None:
        if len(graph) != n:
            raise InstanceError(f"{path}: adjacency list length != n")
        for i, nb in enumerate(graph):
            for j in nb:
                if not isinstance(j, int) or j < 0 or j >= n or j == i:
                    raise InstanceError(f"{path}: bad neighbor {j!r} of agent {i}")
                if i not in graph[j]:
                    raise InstanceError(f"{path}: graph must be symmetric ({i}-{j})")
    models = [_from_json(a, "model", n, f"agents[{i}]", i) for i, a in enumerate(agents)]
    profile = ValuationProfile(models, graph=graph, declared_L=doc.get("declared_L"))
    if validate and n <= 12:
        violations = check_conditions(profile)
        if violations:
            listing = "; ".join(v.describe() for v in violations[:5])
            raise InstanceError(
                f"{path}: instance violates the valuation conditions: {listing}"
            )
    return profile


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _render(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(x)


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write a report as CSV rows or a JSON document, deterministically."""
    path = Path(path)
    try:
        if fmt == "csv":
            lines = [",".join(report.columns)]
            for row in report.rows:
                lines.append(",".join(_render(x) for x in row))
            path.write_text("\n".join(lines) + "\n")
        elif fmt == "json":
            doc = {
                "schema": SCHEMA_VERSION,
                "columns": list(report.columns),
                "rows": [[_render(x) if isinstance(x, float) else x for x in row] for row in report.rows],
                "summary": {k: _render(v) if isinstance(v, float) else v
                            for k, v in sorted(report.summary.items())},
            }
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    except OSError as e:
        raise OSError(f"cannot write report to {path}: {e}") from e
