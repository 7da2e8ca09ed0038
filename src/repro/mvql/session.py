"""MVQL compilation and execution.

:class:`MVQLSession` holds a MultiVersion fact table and executes MVQL
statements against it: ``SELECT`` statements compile onto
:class:`~repro.core.query.Query`, ``RANK MODES`` onto
:func:`~repro.core.quality.rank_modes`, ``SHOW`` statements onto schema
introspection.  Compilation validates every referenced measure, mode,
dimension and level against the schema with precise error messages.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.chronology import Interval, MONTH, QUARTER, YEAR, ym
from repro.core.multiversion import MultiVersionFactTable
from repro.core.quality import rank_modes
from repro.observability import runtime as _obs
from repro.core.query import (
    AttributeGroup,
    LevelFilter,
    LevelGroup,
    Query,
    QueryEngine,
    ResultTable,
    TimeGroup,
)

from .ast import (
    AttributeTerm,
    LevelTerm,
    RankModesStatement,
    SelectStatement,
    ShowLevelsStatement,
    ShowModesStatement,
    ShowVersionsStatement,
    TimeTerm,
)
from .errors import MVQLCompileError
from .parser import parse

__all__ = ["MVQLSession"]

_GRANULARITY = {"year": YEAR, "quarter": QUARTER, "month": MONTH}


class MVQLSession:
    """An interactive-style MVQL session over one MultiVersion fact table.

    ``explain=True`` attaches a
    :class:`~repro.observability.lineage.LineageRecorder` so every
    executed SELECT records per-cell provenance, readable afterwards via
    :meth:`explain_cell`.  ``slow_log`` attaches a
    :class:`~repro.observability.health.SlowQueryLog`; the session
    publishes each statement's text to it so engine-level slow records
    carry the MVQL that caused them.  ``cache`` attaches a
    :class:`~repro.cache.VersionedResultCache` (shared per warehouse when
    the session comes from a cursor) so repeated SELECTs over the same
    versions are served memoized; ``cache_policy_digest`` scopes entries
    to an RLS policy.
    """

    def __init__(
        self,
        mvft: MultiVersionFactTable,
        *,
        tracer=None,
        metrics=None,
        explain: bool = False,
        lineage=None,
        slow_log=None,
        cache=None,
        cache_policy_digest=None,
    ) -> None:
        self.mvft = mvft
        self.schema = mvft.schema
        self._tracer = tracer
        self._metrics = metrics
        if lineage is None and explain:
            from repro.observability.lineage import LineageRecorder

            lineage = LineageRecorder()
        self.lineage = lineage
        self.slow_log = slow_log
        self.engine = QueryEngine(
            mvft, tracer=tracer, metrics=metrics, lineage=lineage,
            slow_log=slow_log, cache=cache,
            cache_policy_digest=cache_policy_digest,
        )

    @classmethod
    def from_cursor(cls, cursor) -> "MVQLSession":
        """A session over a pinned snapshot version.

        ``cursor`` is a :class:`~repro.concurrency.cursor.SnapshotCursor`;
        the session reads the cursor's (cached) MultiVersion fact table,
        so its results are immune to concurrent evolution transactions —
        and shares the owning manager's versioned result cache with every
        other session on the same warehouse.
        """
        return cls(cursor.mvft, cache=getattr(cursor, "result_cache", None))

    @classmethod
    def as_of(cls, wal, target=None, **kwargs) -> "MVQLSession":
        """A session over a point-in-time snapshot of a journaled schema.

        ``wal`` is a write-ahead journal (or its path) and ``target`` an
        LSN, a restore-point name, or ``None`` for the journal head; the
        snapshot is materialized once via
        :func:`repro.robustness.pitr.open_as_of` and the session queries
        it — "what did this cube look like before Tuesday's reorg?".
        Remaining keyword arguments go to the constructor.
        """
        from repro.robustness.pitr import open_as_of

        return cls(open_as_of(wal, target).mvft, **kwargs)

    # -- compilation -----------------------------------------------------------

    def compile_select(self, statement: SelectStatement) -> Query:
        """Compile a SELECT AST into a core query, validating names."""
        measures = statement.measures
        for measure in measures:
            if measure not in self.schema.measure_names:
                raise MVQLCompileError(
                    f"unknown measure {measure!r} "
                    f"(available: {self.schema.measure_names})"
                )
        mode = statement.mode if statement.mode is not None else "tcm"
        if mode not in self.mvft.modes:
            raise MVQLCompileError(
                f"unknown mode {mode!r} (available: {self.mvft.modes.labels})"
            )
        group_by = []
        for term in statement.group_by:
            if isinstance(term, TimeTerm):
                group_by.append(TimeGroup(_GRANULARITY[term.granularity]))
                continue
            if isinstance(term, AttributeTerm):
                if term.dimension not in self.schema.dimensions:
                    raise MVQLCompileError(
                        f"unknown dimension {term.dimension!r} "
                        f"(available: {self.schema.dimension_ids})"
                    )
                group_by.append(AttributeGroup(term.dimension, term.attribute))
                continue
            assert isinstance(term, LevelTerm)
            if term.dimension not in self.schema.dimensions:
                raise MVQLCompileError(
                    f"unknown dimension {term.dimension!r} "
                    f"(available: {self.schema.dimension_ids})"
                )
            levels = self.mvft.modes.level_names(term.dimension)
            if term.level not in levels:
                raise MVQLCompileError(
                    f"dimension {term.dimension!r} has no level {term.level!r} "
                    f"(available: {levels})"
                )
            group_by.append(LevelGroup(term.dimension, term.level))
        time_range = None
        if statement.during is not None:
            first, last = statement.during
            time_range = Interval(ym(first, 1), ym(last, 12))
        filters = []
        for term in statement.filters:
            if term.dimension not in self.schema.dimensions:
                raise MVQLCompileError(
                    f"unknown dimension {term.dimension!r} in WHERE "
                    f"(available: {self.schema.dimension_ids})"
                )
            levels = self.mvft.modes.level_names(term.dimension)
            if term.level not in levels:
                raise MVQLCompileError(
                    f"dimension {term.dimension!r} has no level {term.level!r} "
                    f"in WHERE (available: {levels})"
                )
            filters.append(
                LevelFilter(term.dimension, term.level, term.values)
            )
        return Query(
            mode=mode,
            group_by=tuple(group_by),
            measures=measures,
            time_range=time_range,
            level_filters=tuple(filters),
        )

    # -- execution ----------------------------------------------------------------

    def execute(self, text: str):
        """Parse and execute one MVQL statement.

        Returns a :class:`ResultTable` for ``SELECT``, a list of
        ``(mode, quality, table)`` triples for ``RANK MODES``, and a list
        of descriptive strings for ``SHOW`` statements.  With tracing
        enabled every statement gets a ``mvql.statement`` span wrapping
        its compilation and execution.
        """
        tracer = self._tracer if self._tracer is not None else _obs.current_tracer()
        metrics = (
            self._metrics if self._metrics is not None else _obs.current_metrics()
        )
        slow = self.slow_log
        # Publish the statement text context-locally so the engine's
        # slow-query record names the MVQL that caused it.
        publish = (
            slow.statement(text) if slow is not None and slow.enabled else nullcontext()
        )
        with publish, tracer.span(
            "mvql.statement", attributes={"statement": " ".join(text.split())}
        ) as span:
            statement = parse(text)
            kind = type(statement).__name__
            span.set("kind", kind)
            result = self._dispatch(statement)
        if metrics.enabled:
            metrics.counter("mvql.statements", {"kind": kind}).inc()
        return result

    def explain_cell(self, group, measure: str | None = None, *, mode=None):
        """The lineage of a cell from the last explained SELECT.

        ``group`` is the result row's group tuple (e.g. ``("2002",
        "Sales")``); see
        :meth:`~repro.observability.lineage.LineageRecorder.explain_cell`.
        """
        if self.lineage is None:
            raise MVQLCompileError(
                "this session records no lineage — build it with "
                "explain=True (or pass lineage=LineageRecorder())"
            )
        return self.lineage.explain_cell(group, measure, mode=mode)

    def _dispatch(self, statement):
        """Execute one parsed statement inside its ``mvql.statement`` span."""
        if isinstance(statement, SelectStatement):
            return self.engine.execute(self.compile_select(statement))
        if isinstance(statement, RankModesStatement):
            query = self.compile_select(statement.select)
            return rank_modes(self.engine, query)
        if isinstance(statement, ShowModesStatement):
            return [
                f"{mode.label}: {mode.describe()}" for mode in self.mvft.modes
            ]
        if isinstance(statement, ShowVersionsStatement):
            return [
                f"{mode.label}: {mode.version.valid_time!r} "
                f"(members per dimension: "
                + ", ".join(
                    f"{did}={len(mode.version.dimension(did).members)}"
                    for did in self.schema.dimension_ids
                )
                + ")"
                for mode in self.mvft.modes.version_modes
            ]
        if isinstance(statement, ShowLevelsStatement):
            did = statement.dimension
            if did not in self.schema.dimensions:
                raise MVQLCompileError(
                    f"unknown dimension {did!r} "
                    f"(available: {self.schema.dimension_ids})"
                )
            return self.mvft.modes.level_names(did)
        raise MVQLCompileError(f"unsupported statement {statement!r}")

    def execute_to_text(self, text: str) -> str:
        """Execute and render any statement's result as plain text."""
        result = self.execute(text)
        if isinstance(result, ResultTable):
            return result.to_text()
        if result and isinstance(result, list) and isinstance(result[0], tuple):
            lines = [
                f"{label:<6} Q = {quality:.3f}" for label, quality, _t in result
            ]
            return "\n".join(lines)
        return "\n".join(str(item) for item in result)
