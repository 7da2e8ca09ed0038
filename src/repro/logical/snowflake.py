"""The normalized ("snowflake schema") dimension lowering (§5.1).

Levels are stored in distinct relational tables — one member table per
level — plus a rollup edge table, which is what makes the representation
normalized and lets it carry multiple hierarchies (a child may have edges
to several parents), unlike the parent-child layout.
"""

from __future__ import annotations

import re

from repro.core.schema import TemporalMultidimensionalSchema
from repro.core.versions import StructureVersion, levels_across
from repro.storage import Column, Database, TEXT, Table

__all__ = ["snowflake_level_table", "snowflake_edge_table", "lower_snowflake"]


def _slug(text: str) -> str:
    return re.sub(r"[^a-zA-Z0-9]+", "_", text).strip("_").lower()


def snowflake_level_table(did: str, level: str) -> str:
    """Canonical name of one level's member table."""
    return f"sf_{did}_{_slug(level)}"


def snowflake_edge_table(did: str) -> str:
    """Canonical name of the dimension's rollup edge table."""
    return f"sf_{did}_rollup"


def lower_snowflake(
    db: Database,
    schema: TemporalMultidimensionalSchema,
    versions: list[StructureVersion],
    did: str,
) -> dict[str, Table]:
    """Lower one temporal dimension to a snowflake of level tables.

    Returns ``{table name: table}`` — one member table per level (columns
    ``vsid``, ``member``, ``name``; key ``(vsid, member)``) and the edge
    table (``vsid``, ``child``, ``parent``; key over all three, so a child
    may roll up into several parents).
    """
    tables: dict[str, Table] = {}

    level_names = levels_across(versions, did)

    for level in level_names:
        name = snowflake_level_table(did, level)
        tables[name] = db.create_table(
            name,
            [Column("vsid", TEXT), Column("member", TEXT), Column("name", TEXT)],
            primary_key=["vsid", "member"],
        )

    edge_name = snowflake_edge_table(did)
    tables[edge_name] = db.create_table(
        edge_name,
        [Column("vsid", TEXT), Column("child", TEXT), Column("parent", TEXT)],
        primary_key=["vsid", "child", "parent"],
    )

    for version in versions:
        vsid, snap = version.vsid, version.snapshot(did)
        for level, members in snap.levels().items():
            table = tables[snowflake_level_table(did, level)]
            for mvid in members:
                table.insert(
                    {"vsid": vsid, "member": mvid, "name": snap.member(mvid).name}
                )
        for rel in snap.relationships:
            tables[edge_name].insert(
                {"vsid": vsid, "child": rel.child, "parent": rel.parent}
            )
    return tables
