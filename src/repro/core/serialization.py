"""JSON serialization of Temporal Multidimensional Schemas.

A TMD schema is a model artifact worth versioning next to the data it
describes; this module round-trips the whole conceptual state — member
versions (with attributes and valid times), temporal relationships,
measures, mapping relationships and the consistent fact table — through a
single JSON document.  Format 1 (:func:`schema_to_dict`) holds one object
per fact row; format 2 (:func:`schema_to_columns`, what the write-ahead
journal checkpoints) holds the fact table as one list per column.

Limits, stated loudly rather than discovered late:

* mapping functions must be **linear or unknown** (the §5.2 prototype's
  assumption); arbitrary :class:`CallableMapping` functions cannot be
  serialized and raise :class:`SerializationError`;
* the confidence aggregate must be the default Example-5 truth table;
* measure aggregates must be the built-ins (sum/min/max/count/avg).
"""

from __future__ import annotations

import json
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Iterator

from .chronology import Interval, NOW, NowType
from .confidence import DEFAULT_AGGREGATOR, factor_from_code
from .errors import ReproError
from .facts import AVG, COUNT, MAX, MIN, SUM, Measure
from .mapping import (
    LinearMapping,
    MappingRelationship,
    MeasureMap,
    UnknownMapping,
)
from .member import MemberVersion
from .relationship import TemporalRelationship
from .schema import TemporalMultidimensionalSchema
from .dimension import TemporalDimension

__all__ = [
    "SerializationError",
    "schema_to_dict",
    "schema_to_columns",
    "schema_from_dict",
    "save_schema",
    "load_schema",
    "interval_to_json",
    "interval_from_json",
    "measure_map_to_json",
    "measure_map_from_json",
]

FORMAT_VERSION = 1
COLUMNS_FORMAT = 2

_AGGREGATES = {"sum": SUM, "min": MIN, "max": MAX, "count": COUNT, "avg": AVG}


class SerializationError(ReproError):
    """Raised when a schema cannot be (de)serialized."""


def _interval_to_json(interval: Interval) -> dict[str, Any]:
    end = interval.end
    return {
        "start": interval.start,
        "end": None if isinstance(end, NowType) else end,
    }


def _interval_from_json(payload: dict[str, Any]) -> Interval:
    end = payload["end"]
    return Interval(payload["start"], NOW if end is None else end)


def _measure_map_to_json(mm: MeasureMap) -> dict[str, Any]:
    fn = mm.function
    if isinstance(fn, LinearMapping):
        spec: dict[str, Any] = {"kind": "linear", "k": fn.k}
    elif isinstance(fn, UnknownMapping):
        spec = {"kind": "unknown"}
    else:
        raise SerializationError(
            f"mapping function {fn.describe()!r} is not serializable; only "
            f"linear and unknown functions round-trip (the §5.2 prototype's "
            f"assumption)"
        )
    spec["confidence"] = mm.confidence.code
    return spec


def _measure_map_from_json(payload: dict[str, Any]) -> MeasureMap:
    confidence = factor_from_code(payload["confidence"])
    if payload["kind"] == "linear":
        return MeasureMap(LinearMapping(payload["k"]), confidence)
    if payload["kind"] == "unknown":
        return MeasureMap(UnknownMapping(), confidence)
    raise SerializationError(f"unknown mapping-function kind {payload['kind']!r}")


# Public aliases: the write-ahead journal (repro.robustness.wal) serializes
# the same value shapes as full-schema snapshots, record by record.
interval_to_json = _interval_to_json
interval_from_json = _interval_from_json
measure_map_to_json = _measure_map_to_json
measure_map_from_json = _measure_map_from_json


def _structure_to_dict(schema: TemporalMultidimensionalSchema) -> dict[str, Any]:
    """Everything but the facts: dimensions, measures and mappings, in the
    key order both payload formats share."""
    if schema.cf_aggregator is not DEFAULT_AGGREGATOR:
        raise SerializationError(
            "only the default (Example 5) confidence aggregate serializes"
        )
    dimensions = []
    for did, dim in schema.dimensions.items():
        members = []
        for mv in dim.members.values():
            members.append(
                {
                    "mvid": mv.mvid,
                    "name": mv.name,
                    "level": mv.level,
                    "attributes": dict(mv.attributes),
                    "valid_time": _interval_to_json(mv.valid_time),
                }
            )
        relationships = [
            {
                "child": rel.child,
                "parent": rel.parent,
                "valid_time": _interval_to_json(rel.valid_time),
            }
            for rel in dim.relationships
        ]
        dimensions.append(
            {
                "did": did,
                "name": dim.name,
                "members": members,
                "relationships": relationships,
            }
        )

    measures = []
    for measure in schema.measures:
        if measure.aggregate.name not in _AGGREGATES:
            raise SerializationError(
                f"measure {measure.name!r} uses a custom aggregate "
                f"{measure.aggregate.name!r}; only built-ins serialize"
            )
        measures.append(
            {
                "name": measure.name,
                "aggregate": measure.aggregate.name,
                "description": measure.description,
            }
        )

    mappings = []
    for rel in schema.mappings:
        mappings.append(
            {
                "source": rel.source,
                "target": rel.target,
                "forward": {
                    m: _measure_map_to_json(mm) for m, mm in rel.forward.items()
                },
                "reverse": {
                    m: _measure_map_to_json(mm) for m, mm in rel.reverse.items()
                },
            }
        )
    return {"dimensions": dimensions, "measures": measures, "mappings": mappings}


def schema_to_dict(schema: TemporalMultidimensionalSchema) -> dict[str, Any]:
    """Serialize a schema to a JSON-compatible dictionary (format 1: one
    object per fact row)."""
    payload: dict[str, Any] = {"format": FORMAT_VERSION, **_structure_to_dict(schema)}
    facts = []
    for row in schema.facts:
        fact_payload = {
            "coordinates": dict(row.coordinates),
            "t": row.t,
            "values": dict(row.values),
        }
        # The key appears only on tagged rows, so pre-lineage dumps stay
        # byte-identical.
        if row.source is not None:
            fact_payload["source"] = row.source
        facts.append(fact_payload)
    payload["facts"] = facts
    return payload


def schema_to_columns(schema: TemporalMultidimensionalSchema) -> dict[str, Any]:
    """Serialize a schema with its fact table as columns (format 2).

    Dimensions, measures and mappings are :func:`schema_to_dict`'s; the
    facts are one list per column — ``t``, one per dimension under
    ``coordinates``, one per measure under ``values``, and ``source``
    only when some row has one — so the payload holds no per-fact
    object.  The write-ahead journal checkpoints in this format;
    :func:`schema_from_dict` reads both.  A row's coordinates and values
    come back keyed in declaration order, whatever order they were
    given in, so the two formats agree under ``sort_keys``.
    """
    payload: dict[str, Any] = {"format": COLUMNS_FORMAT, **_structure_to_dict(schema)}
    rows = list(schema.facts.rows())
    coordinates = list(map(attrgetter("coordinates"), rows))
    values = list(map(attrgetter("values"), rows))
    facts: dict[str, Any] = {
        "t": list(map(attrgetter("t"), rows)),
        "coordinates": {
            did: list(map(itemgetter(did), coordinates))
            for did in schema.facts.dimensions
        },
        "values": {
            name: list(map(itemgetter(name), values))
            for name in schema.facts.measure_names
        },
    }
    sources = list(map(attrgetter("source"), rows))
    if any(source is not None for source in sources):
        facts["source"] = sources
    payload["facts"] = facts
    return payload


def _fact_rows(
    facts: dict[str, Any],
) -> Iterator[tuple[dict[str, str], Any, dict[str, Any], str | None]]:
    """``(coordinates, t, values, source)`` of each row of a format-2
    fact table, after checking every column has one entry per row."""
    ts = facts["t"]
    coordinates, values = facts["coordinates"], facts["values"]
    sources = facts.get("source", [None] * len(ts))
    columns = [*coordinates.values(), *values.values(), sources]
    if not coordinates or not values or any(len(c) != len(ts) for c in columns):
        raise SerializationError(
            f"fact columns must hold a column per dimension and per measure, "
            f"each with one entry per row ({len(ts)})"
        )
    dids, names = list(coordinates), list(values)
    for t, leaves, row_values, source in zip(
        ts, zip(*coordinates.values()), zip(*values.values()), sources
    ):
        yield dict(zip(dids, leaves)), t, dict(zip(names, row_values)), source


def schema_from_dict(payload: dict[str, Any]) -> TemporalMultidimensionalSchema:
    """Rebuild a schema from :func:`schema_to_dict` (format 1) or
    :func:`schema_to_columns` (format 2) output.

    The rebuilt schema is fully validated (dimension invariants, fact
    leaf/validity constraints, mapping endpoints) before being returned.
    """
    if payload.get("format") not in (FORMAT_VERSION, COLUMNS_FORMAT):
        raise SerializationError(
            f"unsupported schema format {payload.get('format')!r} "
            f"(expected {FORMAT_VERSION} or {COLUMNS_FORMAT})"
        )
    dimensions = []
    for dim_payload in payload["dimensions"]:
        dim = TemporalDimension(dim_payload["did"], dim_payload["name"])
        for m in dim_payload["members"]:
            dim.add_member(
                MemberVersion(
                    mvid=m["mvid"],
                    name=m["name"],
                    valid_time=_interval_from_json(m["valid_time"]),
                    attributes=m["attributes"],
                    level=m["level"],
                )
            )
        for r in dim_payload["relationships"]:
            dim.add_relationship(
                TemporalRelationship(
                    child=r["child"],
                    parent=r["parent"],
                    valid_time=_interval_from_json(r["valid_time"]),
                ),
                check_acyclic=False,
            )
        dimensions.append(dim)

    measures = [
        Measure(
            name=m["name"],
            aggregate=_AGGREGATES[m["aggregate"]],
            description=m.get("description", ""),
        )
        for m in payload["measures"]
    ]
    schema = TemporalMultidimensionalSchema(dimensions, measures)

    for rel_payload in payload["mappings"]:
        schema.add_mapping(
            MappingRelationship(
                source=rel_payload["source"],
                target=rel_payload["target"],
                forward={
                    m: _measure_map_from_json(spec)
                    for m, spec in rel_payload["forward"].items()
                },
                reverse={
                    m: _measure_map_from_json(spec)
                    for m, spec in rel_payload["reverse"].items()
                },
            ),
            allow_non_leaf=True,  # §4.2 rewrites may have inner-node links
        )

    if payload["format"] == COLUMNS_FORMAT:
        for coordinates, t, values, source in _fact_rows(payload["facts"]):
            schema.add_fact(coordinates, t, values, source=source)
    else:
        for fact in payload["facts"]:
            schema.add_fact(
                fact["coordinates"],
                fact["t"],
                fact["values"],
                source=fact.get("source"),
            )

    schema.validate()
    return schema


def save_schema(schema: TemporalMultidimensionalSchema, path: str | Path) -> None:
    """Write a schema to a JSON file."""
    Path(path).write_text(json.dumps(schema_to_dict(schema), indent=2))


def load_schema(path: str | Path) -> TemporalMultidimensionalSchema:
    """Read a schema from a JSON file written by :func:`save_schema`."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not valid JSON: {exc}") from None
    return schema_from_dict(payload)
