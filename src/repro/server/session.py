"""Server-side sessions: one authenticated tenant over one pinned snapshot.

A :class:`ServerSession` is created at ``auth`` time and owns:

* a :class:`~repro.concurrency.cursor.SnapshotCursor` pinned to the MVCC
  version current at authentication — every statement of the session
  reads that version, so results are repeatable while writers keep
  committing (``refresh`` re-pins explicitly);
* the tenant's compiled :class:`~repro.server.rls.RLSPolicy`, woven into
  **every** query plan through :class:`SecuredMVQLSession` (SELECT and
  RANK MODES) and the pivot surface's ``filters=``;
* a bounded page registry: large results stream to the client in
  ``fetch``-sized chunks instead of one giant line, each serialized
  when it is fetched;
* an AS-OF cache: ``as_of`` statements materialize a historical snapshot
  once per target and query it through the same RLS wrapper.

Sessions are synchronous — the server runs their statement methods on a
worker-thread pool; one connection issues statements sequentially, so a
session never races itself.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from typing import Any, Callable

from repro.core.chronology import MONTH, QUARTER, YEAR
from repro.core.query import ResultTable
from repro.mvql.session import MVQLSession
from repro.olap.cube import Cube, LevelAxis, TimeAxis

from .auth import TenantConfig
from .protocol import (
    BadRequestError,
    cube_view_to_dict,
    result_rows_to_dicts,
    result_table_to_dict,
)
from .rls import RLSPolicy

__all__ = ["SecuredMVQLSession", "ServerSession", "parse_axis"]

_GRANULARITIES = {"year": YEAR, "quarter": QUARTER, "month": MONTH}

DEFAULT_PAGE_SIZE = 100
MAX_PAGE_SIZE = 10_000
MAX_OPEN_PAGE_CURSORS = 32
MAX_CACHED_ASOF = 4


class SecuredMVQLSession(MVQLSession):
    """An MVQL session whose compiled plans carry an RLS policy.

    ``compile_select`` is the single funnel every SELECT — including the
    per-mode re-executions of RANK MODES — passes through, so appending
    the policy's predicates here closes the plan-level door for all
    statement shapes at once.
    """

    def __init__(self, mvft: Any, policy: RLSPolicy, **kwargs: Any) -> None:
        super().__init__(mvft, **kwargs)
        self.policy = policy

    def compile_select(self, statement: Any):
        return self.policy.apply(super().compile_select(statement))


def parse_axis(spec: Any) -> TimeAxis | LevelAxis:
    """A pivot axis from its wire spec: ``"year"`` or ``"dim.Level"``."""
    if not isinstance(spec, str) or not spec:
        raise BadRequestError(f"axis spec must be a non-empty string: {spec!r}")
    lowered = spec.lower()
    if lowered in _GRANULARITIES:
        return TimeAxis(_GRANULARITIES[lowered])
    if "." not in spec:
        raise BadRequestError(
            f"axis {spec!r} is neither a time granularity "
            f"({sorted(_GRANULARITIES)}) nor a dimension.Level pair"
        )
    dimension, level = spec.split(".", 1)
    if not dimension or not level:
        raise BadRequestError(f"axis {spec!r} needs both a dimension and a level")
    return LevelAxis(dimension, level)


class _PageCursor:
    """A result streaming out page by page.

    ``page(start, stop)`` gives rows ``[start, stop)`` as sent, so each
    fetch serializes its own page and the cursor holds the result and an
    offset, not serialized rows."""

    __slots__ = ("page", "total", "position", "page_size")

    def __init__(
        self, page: Callable[[int, int], list[Any]], total: int, page_size: int
    ) -> None:
        self.page = page
        self.total = total
        self.position = 0
        self.page_size = page_size

    def next_page(self) -> tuple[list[Any], bool]:
        start = self.position
        self.position = min(start + self.page_size, self.total)
        return self.page(start, self.position), self.position >= self.total


class ServerSession:
    """One tenant's authenticated, snapshot-pinned server session."""

    def __init__(
        self,
        tenant: TenantConfig,
        manager: Any,
        *,
        session_id: str | None = None,
        slow_log: Any = None,
        tracer: Any = None,
        metrics: Any = None,
    ) -> None:
        self.tenant = tenant
        self.manager = manager
        self.session_id = session_id
        self.policy = tenant.policy()
        self._slow_log = slow_log
        self._tracer = tracer
        # Every metric this session's engines emit carries the tenant
        # label: the registry is shared across tenants, but the labelled
        # view pins ``tenant=`` onto each series, so per-tenant deltas
        # (the usage meter's raw material) never mix.
        if metrics is not None:
            from repro.observability.metrics import LabelledMetrics

            metrics = LabelledMetrics(metrics, {"tenant": tenant.tenant})
        self._metrics = metrics
        # Sessions pinned to the same snapshot share the manager-wide
        # result cache; the tenant's RLS policy digest is baked into
        # every key this session writes, so tenants with different
        # policies can never observe each other's cells even though the
        # store is shared.
        from repro.cache import policy_digest

        self._result_cache = getattr(manager, "result_cache", None)
        self._policy_digest = policy_digest(self.policy)
        self.cursor = manager.open_cursor()
        self.policy.validate(self.cursor.mvft)
        self._mvql: SecuredMVQLSession | None = None
        self._cube: Cube | None = None
        self._pages: dict[int, _PageCursor] = {}
        self._page_ids = itertools.count(1)
        self._asof_cache: dict[Any, SecuredMVQLSession] = {}
        self.closed = False

    # -- pinned surfaces ---------------------------------------------------------

    @property
    def version(self) -> int:
        """The MVCC version this session is pinned to."""
        return self.cursor.version

    def _session(self) -> SecuredMVQLSession:
        if self._mvql is None:
            self._mvql = SecuredMVQLSession(
                self.cursor.mvft,
                self.policy,
                tracer=self._tracer,
                metrics=self._metrics,
                slow_log=self._slow_log,
                cache=self._result_cache,
                cache_policy_digest=self._policy_digest,
            )
        return self._mvql

    def _cube_now(self) -> Cube:
        if self._cube is None:
            self._cube = Cube(
                self.cursor.mvft,
                tracer=self._tracer,
                metrics=self._metrics,
                cache=self._result_cache,
                policy_digest=self._policy_digest,
            )
        return self._cube

    def _asof_session(self, target: Any) -> SecuredMVQLSession:
        key = target if isinstance(target, (int, str)) else None
        if key in self._asof_cache:
            return self._asof_cache[key]
        snapshot = self.manager.open_as_of_cursor(target)
        session = SecuredMVQLSession(
            snapshot.mvft,
            self.policy,
            tracer=self._tracer,
            metrics=self._metrics,
            slow_log=self._slow_log,
            cache=self._result_cache,
            cache_policy_digest=self._policy_digest,
        )
        if len(self._asof_cache) >= MAX_CACHED_ASOF:
            self._asof_cache.pop(next(iter(self._asof_cache)))
        self._asof_cache[key] = session
        return session

    # -- paging ------------------------------------------------------------------

    def _normalize_page_size(self, page_size: Any) -> int:
        if page_size is None:
            return DEFAULT_PAGE_SIZE
        if not isinstance(page_size, int) or isinstance(page_size, bool):
            raise BadRequestError(f"page_size must be an integer: {page_size!r}")
        if page_size < 1:
            raise BadRequestError("page_size must be >= 1")
        return min(page_size, MAX_PAGE_SIZE)

    def _register_pages(
        self, page: Callable[[int, int], list[Any]], total: int, page_size: int
    ) -> tuple[list[Any], int | None]:
        """First page now; a cursor id when more rows remain."""
        cursor = _PageCursor(page, total, page_size)
        first, done = cursor.next_page()
        if done:
            return first, None
        if len(self._pages) >= MAX_OPEN_PAGE_CURSORS:
            # Oldest-first eviction bounds per-session buffering; an
            # evicted cursor's fetch fails loudly rather than stalling.
            self._pages.pop(next(iter(self._pages)))
        page_id = next(self._page_ids)
        self._pages[page_id] = cursor
        return first, page_id

    def fetch(self, cursor_id: Any) -> dict[str, Any]:
        """The next page of a previously returned result."""
        if not isinstance(cursor_id, int) or cursor_id not in self._pages:
            raise BadRequestError(
                f"unknown result cursor {cursor_id!r} (fetched to the end, "
                f"evicted, or never issued)"
            )
        cursor = self._pages[cursor_id]
        offset = cursor.position
        chunk, done = cursor.next_page()
        if done:
            del self._pages[cursor_id]
        return {
            "rows": chunk,
            "offset": offset,
            "done": done,
            "cursor": None if done else cursor_id,
        }

    # -- statements --------------------------------------------------------------

    def execute(
        self,
        statement: Any,
        *,
        page_size: Any = None,
        as_of: Any = None,
    ) -> dict[str, Any]:
        """Run one MVQL statement; SELECT results page, the rest inline."""
        if not isinstance(statement, str) or not statement.strip():
            raise BadRequestError("'statement' must be a non-empty string")
        size = self._normalize_page_size(page_size)
        session = (
            self._session() if as_of is None else self._asof_session(as_of)
        )
        # Slow-query entries recorded under this statement carry the
        # tenant, so ``repro doctor`` can say *whose* query was slow.
        scope = (
            self._slow_log.tenant(self.tenant.tenant)
            if self._slow_log is not None and hasattr(self._slow_log, "tenant")
            else contextlib.nullcontext()
        )
        with scope:
            result = session.execute(statement)
        if isinstance(result, ResultTable):
            payload = result_table_to_dict(result, rows=False)
            first, cursor_id = self._register_pages(
                functools.partial(result_rows_to_dicts, result), len(result), size
            )
            payload.update(
                {"kind": "table", "page": first, "cursor": cursor_id}
            )
            return payload
        if result and isinstance(result, list) and isinstance(result[0], tuple):
            return {
                "kind": "ranking",
                "modes": [
                    {
                        "mode": label,
                        "quality": quality,
                        "table": result_table_to_dict(table),
                    }
                    for label, quality, table in result
                ],
            }
        return {"kind": "show", "lines": [str(item) for item in result]}

    def pivot(
        self,
        *,
        mode: Any,
        rows: Any,
        cols: Any,
        measure: Any,
        page_size: Any = None,
    ) -> dict[str, Any]:
        """A 2-D cube pivot, RLS-filtered, with the row grid paged."""
        if not isinstance(mode, str) or not mode:
            raise BadRequestError("'mode' must be a non-empty string")
        if not isinstance(measure, str) or not measure:
            raise BadRequestError("'measure' must be a non-empty string")
        size = self._normalize_page_size(page_size)
        view = self._cube_now().pivot(
            mode,
            parse_axis(rows),
            parse_axis(cols),
            measure,
            filters=self.policy.filters,
        )
        payload = cube_view_to_dict(view)
        grid_rows = [
            {"row": row_label, "cells": cells}
            for row_label, cells in zip(payload["rows"], payload["cells"])
        ]
        first, cursor_id = self._register_pages(
            lambda start, stop: grid_rows[start:stop], len(grid_rows), size
        )
        payload.pop("cells")
        payload.update(
            {
                "kind": "pivot",
                "total_rows": len(grid_rows),
                "page": first,
                "cursor": cursor_id,
            }
        )
        return payload

    def evolve(self, spec: Any) -> dict[str, Any]:
        """One member-insert evolution against the live schema.

        Writes go through the snapshot manager's first-committer-wins
        validation with this session's pinned version as the base — a
        concurrent commit since authentication surfaces as a
        :class:`~repro.concurrency.errors.WriteConflictError`, which the
        protocol layer sends as a typed ``conflict`` error.  ``refresh``
        re-pins and retries the canonical optimistic loop client-side.
        """
        from repro.core.chronology import ym

        from .protocol import ForbiddenError

        if not self.tenant.can_write:
            raise ForbiddenError(
                f"tenant {self.tenant.tenant!r} is not allowed to write"
            )
        self.policy.guard_writes(self.tenant.tenant)
        if not isinstance(spec, dict):
            raise BadRequestError("'member' must be an object")
        required = {"dimension", "mvid", "name", "level", "t"}
        missing = required - set(spec)
        if missing:
            raise BadRequestError(f"evolve member missing: {sorted(missing)}")
        t = spec["t"]
        if (
            not isinstance(t, (list, tuple))
            or len(t) != 2
            or not all(isinstance(part, int) for part in t)
        ):
            raise BadRequestError("'t' must be a [year, month] pair")
        parents = spec.get("parents", ())
        if not isinstance(parents, (list, tuple)):
            raise BadRequestError(
                "'parents' must be a list of member-version ids"
            )
        base = self.version

        def insert(evolution: Any) -> Any:
            return self.manager.txm.editor.insert(
                str(spec["dimension"]),
                str(spec["mvid"]),
                str(spec["name"]),
                ym(t[0], t[1]),
                level=str(spec["level"]),
                parents=[str(p) for p in parents],
            )

        self.manager.run_write(insert, base=base)
        return {
            "kind": "evolve",
            "committed_version": self.manager.version,
            "base_version": base,
        }

    def tail(
        self,
        wal_path: Any,
        *,
        from_lsn: Any = None,
        kinds: Any = None,
        page_size: Any = None,
    ) -> dict[str, Any]:
        """Stream committed change events from the server's WAL.

        Tailing exposes the *whole* committed history — every tenant's
        writes — so it takes the same authorization evolve does: a
        ``can_write`` tenant with no RLS slice.  Events page through the
        session's cursor registry exactly like query rows; ``cursor_lsn``
        in the response is the resume token for the next ``tail`` call.
        """
        from repro.observability.events import ChangeStream

        from .protocol import ForbiddenError

        if not self.tenant.can_write:
            raise ForbiddenError(
                f"tenant {self.tenant.tenant!r} is not allowed to tail "
                f"changes (write scope required)"
            )
        self.policy.guard_writes(self.tenant.tenant)
        if wal_path is None:
            raise BadRequestError(
                "the server has no WAL attached; nothing to tail"
            )
        if from_lsn is None:
            from_lsn = 0
        if not isinstance(from_lsn, int) or isinstance(from_lsn, bool) or from_lsn < 0:
            raise BadRequestError(
                f"'from_lsn' must be a non-negative integer: {from_lsn!r}"
            )
        if kinds is not None and (
            not isinstance(kinds, (list, tuple))
            or not all(isinstance(kind, str) for kind in kinds)
        ):
            raise BadRequestError("'kinds' must be a list of record kinds")
        size = self._normalize_page_size(page_size)
        try:
            stream = ChangeStream(wal_path, from_lsn=from_lsn, kinds=kinds)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from None
        events = [event.to_dict() for event in stream.poll()]
        first, cursor_id = self._register_pages(
            lambda start, stop: events[start:stop], len(events), size
        )
        return {
            "kind": "tail",
            "from_lsn": from_lsn,
            "cursor_lsn": stream.cursor,
            "total": len(events),
            "page": first,
            "cursor": cursor_id,
        }

    def refresh(self) -> dict[str, Any]:
        """Re-pin the session to the latest committed version."""
        old = self.version
        self.cursor.close()
        self.cursor = self.manager.open_cursor()
        self._mvql = None
        self._cube = None
        self._pages.clear()
        return {"kind": "refresh", "from_version": old, "version": self.version}

    def describe(self) -> dict[str, Any]:
        """Session metadata for the ``auth`` response and introspection."""
        return {
            "tenant": self.tenant.tenant,
            "session": self.session_id,
            "version": self.version,
            "rls": self.policy.to_dicts(),
            "can_write": self.tenant.can_write,
            "max_concurrent": self.tenant.max_concurrent,
        }

    def close(self) -> None:
        """Release the pinned cursor and any buffered pages (idempotent)."""
        if not self.closed:
            self.closed = True
            self._pages.clear()
            self._asof_cache.clear()
            self.cursor.close()
