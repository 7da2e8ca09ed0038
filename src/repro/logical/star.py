"""The denormalized ("star schema") dimension lowering (§5.1).

One relational table per dimension, one row per (structure version, leaf
member version): the hierarchy is *encapsulated in attributes* — a column
per level holding the ancestor's member name.  Because a structure version
is unchanged over its span, a row also carries the span bounds, which is
how temporally-consistent queries join facts to the hierarchy valid at the
fact's own time.

Multiple hierarchies put several ancestors at one level; the star layout
cannot represent that relationally per row, so ancestor names are joined
with ``" | "`` (and the snowflake/parent-child lowerings exist precisely
because each layout trades something away — see §5.1's closing paragraph).
"""

from __future__ import annotations

import re

from repro.core.chronology import NowType
from repro.core.schema import TemporalMultidimensionalSchema
from repro.core.versions import StructureVersion, levels_across
from repro.storage import Column, Database, INTEGER, TEXT, Table

__all__ = ["level_column", "star_table_name", "lower_star"]


def level_column(level: str) -> str:
    """Sanitized column name for a hierarchy level (``Division`` →
    ``level_division``)."""
    slug = re.sub(r"[^a-zA-Z0-9]+", "_", level).strip("_").lower()
    return f"level_{slug}"


def star_table_name(did: str) -> str:
    """Canonical star-table name of a dimension."""
    return f"star_{did}"


def lower_star(
    db: Database,
    schema: TemporalMultidimensionalSchema,
    versions: list[StructureVersion],
    did: str,
) -> Table:
    """Lower one temporal dimension to a denormalized star table.

    Columns: ``vsid``, ``member`` (leaf member version id), ``name``,
    ``valid_from``/``valid_to`` (the structure version's span; ``valid_to``
    NULL when open-ended) and one nullable TEXT column per level name seen
    in any version.
    """
    level_names = levels_across(versions, did)

    columns = [
        Column("vsid", TEXT),
        Column("member", TEXT),
        Column("name", TEXT),
        Column("valid_from", INTEGER),
        Column("valid_to", INTEGER, nullable=True),
    ]
    columns.extend(Column(level_column(level), TEXT, nullable=True) for level in level_names)
    table = db.create_table(
        star_table_name(did), columns, primary_key=["vsid", "member"]
    )

    for version in versions:
        snap = version.snapshot(did)
        end = version.valid_time.end
        valid_to = None if isinstance(end, NowType) else end
        for leaf in snap.leaves():
            row = {
                "vsid": version.vsid,
                "member": leaf,
                "name": snap.member(leaf).name,
                "valid_from": version.valid_time.start,
                "valid_to": valid_to,
            }
            for level in level_names:
                names = version.level_labels(did, level).get(leaf, (None,))
                row[level_column(level)] = None if names == (None,) else " | ".join(names)
            table.insert(row)
    return table
