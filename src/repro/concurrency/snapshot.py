"""Copy-on-write schema snapshots — the MVCC version store.

Everything a reader dereferences through a Temporal Multidimensional
Schema bottoms out in immutable objects — :class:`MemberVersion`,
:class:`TemporalRelationship`, :class:`FactRow` and
:class:`MappingRelationship` are all frozen — so a *version* of the
schema is fully described by shallow copies of the mutable containers
that hold them.  :func:`clone_schema` exploits exactly that:

* each dimension is rebuilt from ``capture_state()`` (one dict copy, one
  list copy per dimension — see
  :meth:`~repro.core.dimension.TemporalDimension.capture_state`);
* the mapping catalog re-registers the shared relationship objects;
* the fact table :meth:`~repro.core.facts.TemporallyConsistentFactTable.adopt`\\ s
  the shared rows.

The result is byte-identical under serialization to the source at clone
time (container order included) and — because every later write on the
live schema replaces container entries rather than mutating the shared
objects — permanently immune to them.  Cost is O(members + facts)
pointer copies, no deep copies anywhere.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.dimension import TemporalDimension
from repro.core.schema import TemporalMultidimensionalSchema
from repro.core.serialization import schema_to_dict

__all__ = ["clone_schema", "SchemaSnapshot"]


def clone_schema(
    schema: TemporalMultidimensionalSchema,
) -> TemporalMultidimensionalSchema:
    """A copy-on-write structural clone of ``schema``.

    The clone shares every immutable object (member versions, temporal
    relationships, mapping relationships, fact rows, measures) with the
    source and owns fresh containers, so mutating either side never
    shows through on the other.
    """
    dimensions = []
    for src in schema.dimensions.values():
        dim = TemporalDimension(src.did, src.name)
        dim.restore_state(src.capture_state())
        dimensions.append(dim)
    clone = TemporalMultidimensionalSchema(
        dimensions,
        list(schema.measures),
        cf_aggregator=schema.cf_aggregator,
    )
    for rel in schema.mappings:
        clone.mappings.add(rel)
    clone.facts.adopt(schema.facts.rows())
    return clone


class SchemaSnapshot:
    """One published version of the schema, tagged with its commit stamp.

    ``version`` is the WAL LSN of the commit that produced this state (0
    for the initial snapshot of a fresh manager; a local counter stands
    in when no journal is attached).  The wrapped ``schema`` is a
    :func:`clone_schema` product: readers may hold it indefinitely and
    will keep seeing this structure version regardless of later commits.
    """

    def __init__(self, schema: TemporalMultidimensionalSchema, version: int) -> None:
        self.schema = schema
        self.version = version

    def __del__(self) -> None:
        # A snapshot is published per commit: free its clone and table
        # when the last reader lets go, not at a later full GC pass.
        self.schema.release_table()

    def mvft(self):
        """The snapshot's MultiVersion fact table: its clone schema's
        current table, stamped with the snapshot's commit version.

        The clone never changes, so its schema keeps one table for every
        cursor pinned to this version: a version mode the table infers on
        its first read serves every later reader, and, because the table
        carries the commit version, result-cache entries computed by one
        session serve every other session on the same snapshot.
        """
        mvft = self.schema.multiversion_facts()
        mvft.snapshot_version = self.version
        return mvft

    def fingerprint(self) -> str:
        """SHA-256 over the canonical serialization of this version.

        Two snapshots of the same committed state fingerprint
        identically; the concurrency tests use this to assert reader
        isolation byte-for-byte.
        """
        payload: dict[str, Any] = schema_to_dict(self.schema)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SchemaSnapshot(version={self.version}, "
            f"dimensions={self.schema.dimension_ids}, "
            f"facts={len(self.schema.facts)})"
        )
