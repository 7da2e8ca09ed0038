"""The parent-child dimension lowering (§5.1).

Microsoft SQL Server 2000's *Parent-Child Dimension* stores no explicit
hierarchy: each member row carries its parent's key and the hierarchy is
deduced from those links — the structure closest to the paper's conceptual
model, and the one that "allows us to deal with most of the evolutions
over dimensions schemas".

Its documented limitation is also reproduced: **multi-hierarchies are not
supported** — a member with several parents in one structure version makes
the lowering fail, which is exactly the §5.1 trade-off ("Designers …
will have to choose between handling multi-hierarchy … or evolutions on
schema").
"""

from __future__ import annotations

from repro.core.errors import ModelError
from repro.core.schema import TemporalMultidimensionalSchema
from repro.core.versions import StructureVersion
from repro.storage import Column, Database, TEXT, Table

__all__ = ["parent_child_table_name", "lower_parent_child"]


def parent_child_table_name(did: str) -> str:
    """Canonical parent-child table name of a dimension."""
    return f"pc_{did}"


def lower_parent_child(
    db: Database,
    schema: TemporalMultidimensionalSchema,
    versions: list[StructureVersion],
    did: str,
) -> Table:
    """Lower one temporal dimension to a parent-child table.

    Columns: ``vsid``, ``member``, ``name``, ``parent`` (NULL for roots),
    ``level`` (the inferred level label, NULL when levels are depth-based
    and the caller did not set explicit level fields).

    Raises :class:`~repro.core.errors.ModelError` when any member has more
    than one parent in some version — the §5.1 limitation.
    """
    table = db.create_table(
        parent_child_table_name(did),
        [
            Column("vsid", TEXT),
            Column("member", TEXT),
            Column("name", TEXT),
            Column("parent", TEXT, nullable=True),
            Column("level", TEXT, nullable=True),
        ],
        primary_key=["vsid", "member"],
    )
    for version in versions:
        snap = version.snapshot(did)
        for mvid in snap.topological_order():
            parents = snap.parents(mvid)
            if len(parents) > 1:
                db.drop_table(table.name)
                raise ModelError(
                    f"parent-child dimensions do not support multi-hierarchies: "
                    f"{mvid!r} has parents {parents} in {version.vsid} (§5.1)"
                )
            mv = snap.member(mvid)
            table.insert(
                {
                    "vsid": version.vsid,
                    "member": mvid,
                    "name": mv.name,
                    "parent": parents[0] if parents else None,
                    "level": mv.level,
                }
            )
    return table
