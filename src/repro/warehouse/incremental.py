"""Incremental maintenance of the MultiVersion fact table.

Data warehouses load continuously; rebuilding the whole MultiVersion fact
table (Definition 11) on every batch is wasteful because *appending a
fact never changes the structure versions* — only dimension evolutions
do.  :class:`IncrementalMultiVersion` holds the current table and, on
every access, asks it for :meth:`~repro.core.multiversion.MultiVersionFactTable.refreshed`:

* after fact appends only, the new table is *derived* — the appended
  facts are folded into the affected cells and every other row is shared;
* after an evolution or mapping change (or a rolled-back fact), it is
  *rebuilt* from scratch — the table notices the structural change
  itself, so callers signal nothing.

Folding a contribution into an existing cell is only sound for
*associative* measure aggregates whose fold over ``[a, b, c]`` equals the
fold over ``[fold([a, b]), c]`` — sum, min and max qualify; count and avg
do not (a count of counts is not a count).  Measures with non-foldable
aggregates are rejected at construction.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.chronology import Instant
from repro.core.errors import ModelError
from repro.core.facts import FactRow
from repro.core.multiversion import FOLDABLE_AGGREGATES, MultiVersionFactTable
from repro.core.schema import TemporalMultidimensionalSchema

__all__ = ["IncrementalMultiVersion"]


class IncrementalMultiVersion:
    """A MultiVersion fact table kept current under fact appends."""

    def __init__(
        self,
        schema: TemporalMultidimensionalSchema,
        *,
        max_hops: int = 8,
    ) -> None:
        for measure in schema.measures:
            if not isinstance(measure.aggregate, FOLDABLE_AGGREGATES):
                raise ModelError(
                    f"incremental maintenance needs a foldable aggregate; "
                    f"measure {measure.name!r} uses "
                    f"{measure.aggregate.name!r} (rebuild in batch instead)"
                )
        self.schema = schema
        self.max_hops = max_hops
        self._mvft: MultiVersionFactTable | None = None

    @property
    def mvft(self) -> MultiVersionFactTable:
        """The table for the live schema (built once, then derived or
        rebuilt as the schema changes)."""
        if self._mvft is None:
            self._mvft = MultiVersionFactTable.build(
                self.schema, max_hops=self.max_hops
            )
        self._mvft = self._mvft.refreshed()
        return self._mvft

    def append_fact(
        self,
        coordinates: Mapping[str, str],
        t: Instant,
        values: Mapping[str, float | None] | None = None,
        **value_kwargs: float | None,
    ) -> FactRow:
        """Validate and record one new fact; the next :attr:`mvft` read
        folds it in, with every other fact appended since the last read."""
        return self.schema.add_fact(coordinates, t, values, **value_kwargs)
