"""Data aggregation in the cube (Definition 12).

Given per-measure aggregates ``⊕`` and the confidence aggregate ``⊗cf``,
the value of a non-leaf member version ``d`` is obtained by folding the
values of its children — found through the temporal relationships of the
relevant structure — and so on recursively down to the leaf cells of the
MultiVersion fact table.

The structure that defines "children" depends on the presentation mode:

* in ``tcm`` it is the snapshot ``D(t)`` at the fact time — consistent data
  rolls up along the hierarchy *as it was* at ``t``, which is the structure
  of the version that contains ``t``;
* in a version mode ``VMi`` it is the (time-invariant) restriction of the
  dimension to structure version ``Vi``.

:class:`DataAggregator` implements the recursion with memoization.  It is
faithful to the paper's formula — children are aggregated, not leaves
directly — which matters for non-distributive aggregates such as averages.
"""

from __future__ import annotations

from typing import Mapping

from .chronology import Instant
from .confidence import ConfidenceFactor
from .errors import QueryError
from .multiversion import MultiVersionFactTable
from .presentation import PresentationMode

__all__ = ["DataAggregator"]


class DataAggregator:
    """Definition 12's recursive rollup over a MultiVersion fact table."""

    def __init__(self, mvft: MultiVersionFactTable) -> None:
        self._mvft = mvft
        self._schema = mvft.schema

    # -- aggregation --------------------------------------------------------------

    def value(
        self,
        mode_label: str,
        coordinates: Mapping[str, str],
        t: Instant,
        measure: str,
    ) -> tuple[float | None, ConfidenceFactor | None]:
        """The aggregated ``(value, confidence)`` of one cube cell.

        ``coordinates`` maps every dimension id to a member version id of
        *any* grain; non-leaf coordinates are expanded recursively through
        their children (Definition 12).  Returns ``(None, None)`` when no
        fact contributes to the cell at all.
        """
        mode = self._mvft.modes.mode(mode_label)
        self._schema.measure(measure)  # raise early on unknown measures
        missing = set(self._schema.dimension_ids) - set(coordinates)
        if missing:
            raise QueryError(f"coordinates miss dimensions {sorted(missing)}")
        coords = {did: coordinates[did] for did in self._schema.dimension_ids}
        return self._value(mode, coords, t, measure, {})

    def _value(
        self,
        mode: PresentationMode,
        coords: dict[str, str],
        t: Instant,
        measure: str,
        memo: dict,
    ) -> tuple[float | None, ConfidenceFactor | None]:
        key = (tuple(sorted(coords.items())), t, measure)
        if key in memo:
            return memo[key]

        # Find the first non-leaf coordinate to expand.
        expand_dim: str | None = None
        children: list[str] = []
        version = self._mvft.modes.version_at(mode, t)  # None: D(t) is empty
        for did, mvid in coords.items():
            if version is None or mvid not in (snap := version.snapshot(did)):
                memo[key] = (None, None)
                return memo[key]
            kids = snap.children(mvid)
            if kids:
                expand_dim = did
                children = kids
                break

        if expand_dim is None:
            cell = self._mvft.measure_at(coords, t, mode.label, measure)
            memo[key] = (None, None) if cell is None else cell
            return memo[key]

        values: list[float | None] = []
        confidences: list[ConfidenceFactor] = []
        for child in children:
            child_coords = dict(coords)
            child_coords[expand_dim] = child
            v, cf = self._value(mode, child_coords, t, measure, memo)
            if cf is None:
                continue  # empty subtree contributes nothing
            values.append(v)
            confidences.append(cf)
        if not confidences:
            memo[key] = (None, None)
            return memo[key]
        agg = self._schema.measure(measure).aggregate
        combined = (
            agg.combine_all(values),
            self._schema.cf_aggregator.combine_all(confidences),
        )
        memo[key] = combined
        return combined
