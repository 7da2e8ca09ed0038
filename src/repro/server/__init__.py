"""repro.server — the warehouse process boundary.

The ROADMAP's "millions of users" goal needs queries to cross a process
boundary; this package is that boundary, built entirely on the stdlib:

* :mod:`~repro.server.protocol` — newline-delimited JSON messages with
  typed error codes (the contract clients dispatch on);
* :mod:`~repro.server.auth` — per-tenant API keys, limits, and RLS rules
  from one JSON config document;
* :mod:`~repro.server.rls` — row-level security compiled *into the query
  plan* before execution, so tenants cannot observe each other's slices
  through any statement shape;
* :mod:`~repro.server.quotas` — admission control: per-tenant concurrent
  statement quotas and token-bucket rate limits, shedding overload as
  typed errors;
* :mod:`~repro.server.session` — authenticated sessions pinned to one
  MVCC snapshot (reads never block the writer), with paged result
  streaming and AS-OF time travel;
* :mod:`~repro.server.server` — the asyncio server: event loop for
  connections, worker pool for engine work, graceful drain on shutdown,
  liveness/readiness ops backed by
  :func:`~repro.observability.health.run_doctor`;
* :mod:`~repro.server.client` — the blocking client library behind
  ``repro query --host``.

``repro serve`` runs the server from the CLI; :func:`serve_background`
embeds one in-process (tests, docs, benchmarks).
"""

from .auth import ConfigError, RateLimit, ServerConfig, TenantConfig, demo_config
from .client import (
    ERROR_CLASSES,
    RemoteAuthError,
    RemoteBadRequestError,
    RemoteConflictError,
    RemoteError,
    RemoteForbiddenError,
    RemoteInternalError,
    RemotePivot,
    RemoteQuotaError,
    RemoteRateLimitError,
    RemoteShuttingDownError,
    RemoteStatementError,
    RemoteTable,
    RemoteTimeoutError,
    WarehouseClient,
)
from .protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    AuthFailedError,
    AuthRequiredError,
    BadRequestError,
    ForbiddenError,
    ProtocolError,
    QuotaExceededError,
    RateLimitedError,
    ShuttingDownError,
    cube_view_to_dict,
    decode_line,
    encode_message,
    error_code_for,
    error_response,
    ok_response,
    result_rows_to_dicts,
    result_table_to_dict,
)
from .quotas import AdmissionController, TokenBucket
from .rls import RLSConfigError, RLSPolicy, RLSRule
from .server import ServerHandle, WarehouseServer, serve_background
from .session import SecuredMVQLSession, ServerSession, parse_axis

__all__ = [
    # protocol
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
    # auth
    "RateLimit",
    "TenantConfig",
    "ServerConfig",
    "ConfigError",
    "demo_config",
    # rls
    "RLSRule",
    "RLSPolicy",
    "RLSConfigError",
    # quotas
    "TokenBucket",
    "AdmissionController",
    # session
    "SecuredMVQLSession",
    "ServerSession",
    "parse_axis",
    # server
    "WarehouseServer",
    "ServerHandle",
    "serve_background",
    # client
    "WarehouseClient",
    "RemoteTable",
    "RemotePivot",
    "RemoteError",
    "RemoteAuthError",
    "RemoteForbiddenError",
    "RemoteBadRequestError",
    "RemoteStatementError",
    "RemoteConflictError",
    "RemoteQuotaError",
    "RemoteRateLimitError",
    "RemoteShuttingDownError",
    "RemoteInternalError",
    "RemoteTimeoutError",
    "ERROR_CLASSES",
]
