"""The wire protocol: newline-delimited JSON requests and responses.

One TCP connection carries a sequence of *messages*, each a single JSON
object on its own ``\\n``-terminated line (NDJSON).  Requests carry an
``op`` and an optional client-chosen ``id`` the response echoes back;
responses carry ``ok`` — ``true`` with the op's payload fields, or
``false`` with a typed ``error`` object::

    → {"id": 1, "op": "auth", "api_key": "acme-key"}
    ← {"id": 1, "ok": true, "tenant": "acme", "version": 7}
    → {"id": 2, "op": "query", "statement": "SELECT amount BY year"}
    ← {"id": 2, "ok": false,
       "error": {"code": "rate_limited", "message": "..."}}

Error *codes* are the protocol's contract — clients dispatch on them,
never on message text.  The full set is :data:`ERROR_CODES`; the server
maps engine exceptions onto codes with :func:`error_code_for`, and the
client maps codes back onto exception classes, so a
:class:`~repro.concurrency.errors.WriteConflictError` raised by a stale
write surfaces at the remote caller as a typed conflict, not a string.

The module also owns the JSON shapes of query results
(:func:`result_table_to_dict`, :func:`cube_view_to_dict`) so server and
client agree on one serialization.

Change-data-capture rides the same protocol: the ``tail`` op streams
committed WAL change events (``{"op": "tail", "from_lsn": 0}``) through
the ordinary page-cursor machinery, and its ``cursor_lsn`` payload field
is the resume token for the next call.

Telemetry rides the envelope too.  A statement request may carry a
W3C-style ``traceparent`` field
(``00-<32-hex trace id>-<16-hex span id>-<2-hex flags>``); the server
resumes that trace — same trace id, the client's span as remote parent,
the client's sampling decision — so one request is one connected trace
from client span to engine phase spans.  A malformed value is ignored,
never an error, per the W3C spec.  The ``usage`` op returns the server's
per-tenant usage ledger (``{"op": "usage", "tenant": "acme"}`` →
``{"enabled", "records", "totals"}``); read-only tenants are always
scoped to their own bill.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Mapping

from repro.core.errors import QueryError, ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ERROR_CODES",
    "ProtocolError",
    "AuthRequiredError",
    "AuthFailedError",
    "ForbiddenError",
    "BadRequestError",
    "QuotaExceededError",
    "RateLimitedError",
    "ShuttingDownError",
    "encode_message",
    "decode_line",
    "ok_response",
    "error_response",
    "error_code_for",
    "result_rows_to_dicts",
    "result_table_to_dict",
    "cube_view_to_dict",
]

PROTOCOL_VERSION = 1
"""Bumped on any incompatible change to message shapes or error codes."""

MAX_LINE_BYTES = 8 * 1024 * 1024
"""Hard cap on one message line — oversized requests are a protocol error."""

#: Every error code a response may carry.
ERROR_CODES = (
    "bad_request",      # malformed JSON, unknown op, missing/invalid fields
    "auth_required",    # statement op before a successful auth
    "auth_failed",      # unknown API key
    "forbidden",        # authenticated but not allowed (e.g. read-only tenant)
    "parse_error",      # MVQL failed to lex/parse
    "compile_error",    # MVQL referenced unknown schema elements
    "query_error",      # the engine rejected or failed the query
    "conflict",         # a write lost first-committer-wins validation
    "quota_exceeded",   # tenant at its concurrent-statement quota
    "rate_limited",     # tenant over its statement rate limit
    "shutting_down",    # server is draining; retry elsewhere/later
    "internal",         # unexpected server-side failure
)


class ProtocolError(ReproError):
    """A request the server rejects with a typed error response.

    Subclasses fix ``code``; free-form server-side failures use the
    base class with an explicit one.
    """

    code = "bad_request"

    def __init__(self, message: str, *, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {self.code!r}")


class AuthRequiredError(ProtocolError):
    """A statement op arrived before a successful ``auth``."""

    code = "auth_required"


class AuthFailedError(ProtocolError):
    """The presented API key matches no configured tenant."""

    code = "auth_failed"


class ForbiddenError(ProtocolError):
    """The tenant is authenticated but not allowed to do this."""

    code = "forbidden"


class QuotaExceededError(ProtocolError):
    """The tenant is at its concurrent-statement quota."""

    code = "quota_exceeded"


class RateLimitedError(ProtocolError):
    """The tenant exceeded its sustained statement rate."""

    code = "rate_limited"


class ShuttingDownError(ProtocolError):
    """The server is draining and takes no new statements."""

    code = "shutting_down"


class BadRequestError(ProtocolError):
    """A structurally invalid request (missing fields, bad types)."""

    code = "bad_request"


# -- framing ----------------------------------------------------------------------


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One message as a compact, newline-terminated JSON line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one received line into a message dict.

    Raises :class:`BadRequestError` on oversized lines, invalid JSON, or
    a top-level value that is not an object.
    """
    if len(line) > MAX_LINE_BYTES:
        raise BadRequestError(
            f"message exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise BadRequestError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


def ok_response(request_id: Any, **fields: Any) -> dict[str, Any]:
    """A success response echoing the request id."""
    return {"id": request_id, "ok": True, **fields}


def error_response(
    request_id: Any, code: str, message: str, **details: Any
) -> dict[str, Any]:
    """A typed failure response echoing the request id."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown protocol error code {code!r}")
    error: dict[str, Any] = {"code": code, "message": message}
    if details:
        error["details"] = details
    return {"id": request_id, "ok": False, "error": error}


def error_code_for(exc: BaseException) -> str:
    """Map a server-side exception onto its protocol error code."""
    from repro.concurrency.errors import WriteConflictError
    from repro.mvql.errors import MVQLCompileError, MVQLSyntaxError

    if isinstance(exc, ProtocolError):
        return exc.code
    if isinstance(exc, WriteConflictError):
        return "conflict"
    if isinstance(exc, MVQLSyntaxError):
        return "parse_error"
    if isinstance(exc, MVQLCompileError):
        return "compile_error"
    if isinstance(exc, (QueryError, ReproError)):
        return "query_error"
    return "internal"


# -- result serialization ----------------------------------------------------------


def _confidence_symbol(confidence: Any) -> str | None:
    return None if confidence is None else confidence.symbol


def result_rows_to_dicts(
    table: Any, start: int = 0, stop: int | None = None
) -> list[dict[str, Any]]:
    """Rows ``[start, stop)`` of a :class:`~repro.core.query.ResultTable`
    as JSON-safe dicts, read off the table's columns a measure at a time."""
    per_measure = [
        [
            {
                "measure": measure,
                "value": value,
                "confidence": _confidence_symbol(confidence),
            }
            for value, confidence in zip(values[start:stop], confidences[start:stop])
        ]
        for measure, values, confidences in zip(
            table.measures, table.value_columns, table.confidence_columns
        )
    ]
    groups = zip(*(column[start:stop] for column in table.group_columns))
    cells = zip(*per_measure) if per_measure else itertools.repeat(())
    return [
        {"group": list(group), "cells": list(row)} for group, row in zip(groups, cells)
    ]


def result_table_to_dict(table: Any, *, rows: bool = True) -> dict[str, Any]:
    """A :class:`~repro.core.query.ResultTable` header (and optionally
    its full row list) as a JSON-safe dict.  The server usually sends
    the header with the first page and streams the rest via ``fetch``.
    """
    payload: dict[str, Any] = {
        "columns": list(table.columns),
        "measures": list(table.measures),
        "mode": table.mode,
        "total_rows": len(table),
    }
    if rows:
        payload["rows"] = result_rows_to_dicts(table)
    return payload


def cube_view_to_dict(view: Any) -> dict[str, Any]:
    """A :class:`~repro.olap.cube.CubeView` as a JSON-safe dict.

    Cells are row-major, aligned with ``rows`` × ``cols``; an empty cell
    serializes as ``null``.
    """
    grid: list[list[dict[str, Any] | None]] = []
    for row_label in view.rows:
        line: list[dict[str, Any] | None] = []
        for col_label in view.cols:
            cell = view.cell(row_label, col_label)
            if cell.empty:
                line.append(None)
            else:
                line.append(
                    {
                        "value": cell.value,
                        "confidence": _confidence_symbol(cell.confidence),
                    }
                )
        grid.append(line)
    return {
        "mode": view.mode,
        "measure": view.measure,
        "row_axis": view.row_axis.name,
        "col_axis": view.col_axis.name,
        "rows": list(view.rows),
        "cols": list(view.cols),
        "cells": grid,
    }
