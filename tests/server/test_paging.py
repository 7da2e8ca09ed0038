"""Result pages: the bytes a paged SELECT sends, and what an open cursor holds.

A session's cursor keeps the result table and an offset; each fetch
serializes its own page off the table's columns.  The pages must be the
bytes the server sent when it serialized every row up front, and a
cursor left open must hold no serialized rows.
"""

import gc
import hashlib
import tracemalloc

import pytest

from repro.concurrency import SnapshotManager
from repro.robustness import TransactionManager
from repro.server.auth import TenantConfig
from repro.server.protocol import BadRequestError, encode_message
from repro.server.rls import RLSRule
from repro.server.session import MAX_OPEN_PAGE_CURSORS, ServerSession
from repro.workloads.generator import WorkloadConfig, generate_workload

STATEMENT = "SELECT amount BY month, org.Department IN MODE V3"

#: sha256 over every response of ``STATEMENT`` paged to the end (the
#: execute reply, then each fetch reply, as encoded on the wire), read
#: off the server that serialized every row before the first page.
PAGES_SHA256 = {
    1: "ae377f7aa813af96c88acd7d211aa531588051ec34ed25d8ae599768de970f44",
    100: "c7e1f30ef92c7529fd25985e297f1faf0265704f0d1085b1cfc9775f55c1bbd3",
    10_000: "0a91a8b0990d3a23067652c953c86441b683db6cd99dd7a2ee773b155bbb0c95",
}

#: Rows of ``STATEMENT`` in the DIV0 slice of the seed-1, 400-department
#: schema.
ROWS = 1360


@pytest.fixture(scope="module")
def manager():
    schema = generate_workload(
        WorkloadConfig(seed=1, n_departments=400, n_years=10)
    ).schema
    return SnapshotManager(TransactionManager(schema))


def session_of(manager):
    """A session of a tenant scoped to the DIV0 division."""
    tenant = TenantConfig(
        tenant="acme",
        api_key="acme-key",
        rls=(RLSRule(dimension="org", level="Division", values=("DIV0",)),),
    )
    return ServerSession(tenant, manager)


@pytest.mark.parametrize("page_size", sorted(PAGES_SHA256))
def test_pages_are_byte_identical(manager, page_size):
    session = session_of(manager)
    reply = session.execute(STATEMENT, page_size=page_size)
    digest = hashlib.sha256(encode_message(reply))
    rows = len(reply["page"])
    cursor = reply["cursor"]
    while cursor is not None:
        page = session.fetch(cursor)
        digest.update(encode_message(page))
        rows += len(page["rows"])
        cursor = page["cursor"]
    assert reply["total_rows"] == rows == ROWS
    assert digest.hexdigest() == PAGES_SHA256[page_size]


def test_open_cursor_holds_the_shared_table_not_serialized_rows(manager):
    session = session_of(manager)
    # Fill the result cache: the second execute is a hit on the same table.
    session.execute(STATEMENT, page_size=1)
    hits = manager.result_cache.stats()["hits"]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reply = session.execute(STATEMENT, page_size=1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert reply["cursor"] is not None and reply["total_rows"] == ROWS
    assert manager.result_cache.stats()["hits"] == hits + 1
    # Serialized, the remaining rows would be several hundred bytes each.
    assert retained < 4096, f"an open cursor retained {retained} B"


def test_oldest_cursor_is_evicted(manager):
    session = session_of(manager)
    cursors = [
        session.execute(STATEMENT, page_size=1)["cursor"]
        for _ in range(MAX_OPEN_PAGE_CURSORS + 1)
    ]
    with pytest.raises(BadRequestError, match="unknown result cursor"):
        session.fetch(cursors[0])
    page = session.fetch(cursors[-1])
    assert page["offset"] == 1 and len(page["rows"]) == 1
