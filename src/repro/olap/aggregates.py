"""Lazy aggregate lattice (§1.1: "query results are pre-calculated in the
form of aggregates") — a cache-backed view over the query engine.

Earlier revisions materialized every (mode × granularity × level) node
once, eagerly, at construction — and never again, so a pivot issued after
a write could silently serve pre-write totals.  The lattice is now a
*view*: each node is computed on first use against the **current**
versions, through a :class:`~repro.cache.VersionedResultCache` whose keys
bind the snapshot and structure versions (:mod:`repro.cache`).  Staleness
is structurally impossible — a write bumps the structure token, the old
entries stop matching, and the next pivot recomputes; repeated pivots
against an unchanged warehouse are pure cache hits, which is what the
ablation benchmark measures.
"""

from __future__ import annotations

from repro.cache import VersionedResultCache
from repro.core.chronology import Granularity, YEAR
from repro.core.confidence import ConfidenceFactor
from repro.core.errors import QueryError
from repro.core.multiversion import MultiVersionFactTable
from repro.core.query import LevelGroup, Query, QueryEngine, ResultTable, TimeGroup

__all__ = ["AggregateLattice"]

CellKey = tuple[object, object]

# Memory budget of the private per-lattice cache built when the caller
# does not supply a shared one.
DEFAULT_LATTICE_CACHE_BYTES = 16 * 1024 * 1024


class AggregateLattice:
    """Cache-backed (mode × granularity × level) aggregate nodes.

    ``cache`` shares a :class:`~repro.cache.VersionedResultCache` with
    other readers of the same warehouse (cube, MVQL sessions, server
    sessions); left ``None`` the lattice builds a private one.
    ``executor`` optionally runs node queries shard-parallel through a
    :class:`~repro.concurrency.sharding.ShardedExecutor`; results are
    identical to the serial engine by construction, and land in the same
    cache under the same keys.
    """

    def __init__(
        self,
        mvft: MultiVersionFactTable,
        *,
        granularities: tuple[Granularity, ...] = (YEAR,),
        executor=None,
        cache: VersionedResultCache | None = None,
        policy_digest: str | None = None,
    ) -> None:
        self.schema = mvft.schema
        self.granularities = granularities
        self.cache = (
            cache
            if cache is not None
            else VersionedResultCache(DEFAULT_LATTICE_CACHE_BYTES)
        )
        self.policy_digest = policy_digest
        self.executor = executor
        self._bind(mvft)

    def _bind(self, mvft: MultiVersionFactTable) -> None:
        self.mvft = mvft
        self.engine = QueryEngine(
            mvft, cache=self.cache, cache_policy_digest=self.policy_digest
        )

    def rebind(self, mvft: MultiVersionFactTable) -> None:
        """Point the lattice at a freshly inferred MultiVersion table.

        The cube calls this after rebuilding its own table so both share
        one inference pass.  Old cache entries stay resident (readers
        pinned to the old versions still hit them) but stop matching this
        lattice's keys, so nodes recompute lazily against the new table.
        """
        self._bind(mvft)
        if self.executor is not None:
            self.executor = _rebuild_executor(self.executor, mvft)

    def _refresh(self) -> None:
        """Rebind to a table matching the live schema if it mutated."""
        mvft = self.mvft.refreshed()
        if mvft is not self.mvft:
            self.rebind(mvft)

    # -- node computation -----------------------------------------------------------

    def _node_result(
        self, mode: str, granularity: Granularity, dimension: str, level: str
    ) -> ResultTable:
        """The grouped result behind one lattice node (cache-aware).

        Raises :class:`QueryError` when the mode is unknown or the level
        is absent from the mode's structure — the *only* condition the
        lattice treats as "no such node"; anything else (a broken
        aggregator, a bad confidence fold) propagates to the caller
        instead of being silently swallowed into an empty node.
        """
        query = Query(
            mode=mode,
            group_by=(TimeGroup(granularity), LevelGroup(dimension, level)),
        )
        if self.executor is None:
            return self.engine.execute(query)
        # The sharded executor carries its own engine; run it through
        # this lattice's cached path.
        return self.engine.execute_with(query, self.executor.execute)

    def _project(
        self, result: ResultTable, measure: str
    ) -> dict[CellKey, tuple[float | None, ConfidenceFactor | None]]:
        k = result.measures.index(measure)
        return dict(zip(
            zip(*result.group_columns),
            zip(result.value_columns[k], result.confidence_columns[k]),
        ))

    # -- access --------------------------------------------------------------------

    def totals(
        self,
        mode: str,
        granularity: Granularity,
        dimension: str,
        level: str,
        measure: str,
    ) -> dict[CellKey, tuple[float | None, ConfidenceFactor | None]]:
        """One lattice node, computed against the current versions
        (empty dict when the node does not exist for this mode)."""
        self._refresh()
        if measure not in self.schema.measure_names:
            return {}
        try:
            result = self._node_result(mode, granularity, dimension, level)
        except QueryError:
            return {}
        return self._project(result, measure)

    def lookup(
        self,
        mode: str,
        granularity: Granularity,
        dimension: str,
        level: str,
        measure: str,
        group: CellKey,
    ) -> tuple[float | None, ConfidenceFactor | None] | None:
        """A single cell, or ``None`` on a lattice miss."""
        return self.totals(mode, granularity, dimension, level, measure).get(group)

    def _walk_nodes(self):
        """Force every node and yield ``(key, projected_node)`` pairs."""
        self._refresh()
        modes = self.mvft.modes
        levels_by_dim = {
            did: modes.level_names(did) for did in self.schema.dimension_ids
        }
        for mode in modes.labels:
            for gran in self.granularities:
                for did, levels in levels_by_dim.items():
                    for level in levels:
                        try:
                            result = self._node_result(mode, gran, did, level)
                        except QueryError:
                            continue  # level absent from this mode's structure
                        for measure in self.schema.measure_names:
                            key = (mode, gran.name, did, level, measure)
                            yield key, self._project(result, measure)

    @property
    def node_count(self) -> int:
        """Number of lattice nodes (forces full materialization)."""
        return sum(1 for _ in self._walk_nodes())

    def cell_count(self) -> int:
        """Total cells across nodes (forces full materialization)."""
        return sum(len(node) for _, node in self._walk_nodes())


def _rebuild_executor(executor, mvft: MultiVersionFactTable):
    """A same-shaped executor over a fresh table, or ``None`` when the
    executor type is not rebuild-aware (the serial engine still serves)."""
    try:
        return type(executor)(
            mvft, max_workers=executor.max_workers, shards=executor.shards
        )
    except (AttributeError, TypeError):
        return None
