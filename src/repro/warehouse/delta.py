"""Differences-only MultiVersion storage (§5.1's sketched optimization).

"Up to now, to make our system run on current OLAP tools we have to
duplicate the values in all versions.  This obviously implies a high level
of useless redundancies … since we could only store differences between
versions instead of replicating all values."

:class:`DeltaMultiVersionStore` implements that idea: the ``tcm`` slice is
stored once, and each version mode stores **only the cells that differ
from the consistent data** — i.e. the mapped cells.  A mode's full slice
is reconstructed on demand: consistent rows whose coordinates are valid in
the mode's structure version pass through unchanged (value and ``sd``
confidence), delta rows override/extend them.

The storage benchmark measures the cell counts of this store against the
full-replication warehouse; correctness (reconstruction ≡ full slice) is
covered by the warehouse test suite.
"""

from __future__ import annotations

from repro.core.chronology import Instant
from repro.core.multiversion import MVFactRow, MultiVersionFactTable

__all__ = ["DeltaMultiVersionStore"]

Key = tuple[tuple[tuple[str, str], ...], Instant]


def _key(row: MVFactRow) -> Key:
    return (tuple(sorted(row.coordinates.items())), row.t)


class DeltaMultiVersionStore:
    """Store the MV fact table as tcm + per-mode deltas."""

    def __init__(self, mvft: MultiVersionFactTable) -> None:
        self.mvft = mvft
        self.schema = mvft.schema
        self._tcm: dict[Key, MVFactRow] = {}
        self._deltas: dict[str, dict[Key, MVFactRow]] = {}
        self._member_sets: dict[str, dict[str, frozenset[str]]] = {}
        self._build()

    def _build(self) -> None:
        mvft = self.mvft
        for row in mvft.slice("tcm"):
            self._tcm[_key(row)] = row  # a later duplicate wins, as in lookups
        for mode in mvft.modes.version_modes:
            version = mode.version
            assert version is not None
            self._member_sets[mode.label] = {
                did: version.leaf_ids(did) for did in self.schema.dimension_ids
            }
            # Cells identical to consistent data are not stored; the table
            # compares them without building a view for each.
            self._deltas[mode.label] = {
                _key(row): row for row in mvft._differences(mode.label)
            }

    # -- reconstruction ------------------------------------------------------------

    def slice(self, mode_label: str) -> list[MVFactRow]:
        """Reconstruct a mode's full slice from tcm + deltas."""
        if mode_label == "tcm":
            return list(self._tcm.values())
        delta = self._deltas[mode_label]
        members = self._member_sets[mode_label]
        out: list[MVFactRow] = []
        for key, base in self._tcm.items():
            if key in delta:
                continue  # overridden below
            if all(
                base.coordinates[did] in members[did]
                for did in self.schema.dimension_ids
            ):
                out.append(
                    MVFactRow._from_parts(
                        base.coordinates, base.t, mode_label,
                        base.values, base.confidences, base.provenance,
                    )
                )
        out.extend(delta.values())
        out.sort(key=lambda r: (r.t, tuple(sorted(r.coordinates.items()))))
        return out

    # -- storage accounting ----------------------------------------------------------

    def stored_cells(self) -> dict[str, int]:
        """Cells physically stored per mode (tcm full, versions delta-only)."""
        counts = {"tcm": len(self._tcm)}
        for label, delta in self._deltas.items():
            counts[label] = len(delta)
        return counts

    def total_stored(self) -> int:
        """Total physically stored cells."""
        return sum(self.stored_cells().values())

    def full_replication_cells(self) -> int:
        """What full replication would store (the §5.1 prototype layout)."""
        return len(self.mvft)

    def savings_ratio(self) -> float:
        """Fraction of cells the delta layout avoids storing."""
        full = self.full_replication_cells()
        if full == 0:
            return 0.0
        return 1.0 - self.total_stored() / full
