"""The four served workloads of the layer benchmark.

Each workload builds a warehouse from :mod:`repro.workloads.generator`,
serves it with :func:`~repro.server.serve_background` in its default
configuration (no metrics registry; a buffered WAL), and drives it over
the NDJSON protocol with the blocking :class:`~repro.server.WarehouseClient`.

Load model: a closed loop from one thread that alternates two
connections — tenant ``acme``, RLS-scoped to ``Division=DIV0``, and
tenant ``ops``, open and write-capable.  One request is in flight at a
time.  With two client threads the median moved by about a third
between runs because of interpreter-lock scheduling; with one thread it
repeats within a few percent, and span attribution by interval is exact.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.concurrency import SnapshotManager
from repro.concurrency.snapshot import clone_schema
from repro.core.chronology import ym
from repro.core.multiversion import MultiVersionFactTable
from repro.core.query import LevelFilter
from repro.core.serialization import schema_to_dict
from repro.mvql.session import MVQLSession
from repro.olap.cube import Cube
from repro.robustness import TransactionManager
from repro.server import (
    RemotePivot,
    RemoteTable,
    RLSRule,
    ServerConfig,
    TenantConfig,
    WarehouseClient,
    serve_background,
)
from repro.server.protocol import cube_view_to_dict, result_table_to_dict
from repro.server.session import parse_axis
from repro.workloads.generator import WorkloadConfig, generate_workload

START_YEAR = 2000
N_YEARS = 10
LAST_YEAR = START_YEAR + N_YEARS - 1
DIVISIONS = ("DIV0", "DIV1", "DIV2")
SLICE = "DIV0"  # acme's RLS slice
TENANTS = ("acme", "ops")

#: The freshness reader's statement: the Division dashboard.
FRESH_READ = "SELECT amount BY year, org.Division"

#: Share of ``adhoc_scan`` statements the oracle re-checks.
ADHOC_ORACLE_SHARE = 0.1

#: Freshness cycles per epoch (see :class:`Runner`).
EPOCH_CYCLES = 10

#: Years an ``adhoc_scan`` ``DURING`` range spans.
ADHOC_DURING_YEARS = 3


class Mismatch(Exception):
    """An answer the benchmark's checks reject."""


def server_config() -> ServerConfig:
    """The two tenants, without rate limits (load, not a demo)."""
    return ServerConfig(
        [
            TenantConfig(
                tenant="acme",
                api_key="acme-key",
                rls=(RLSRule(dimension="org", level="Division", values=(SLICE,)),),
            ),
            TenantConfig(tenant="ops", api_key="ops-key", can_write=True),
        ]
    )


# -- requests -------------------------------------------------------------------
#
# A request is ("query", statement) or ("pivot", mode, rows, cols).


def issue(client: WarehouseClient, request: tuple) -> Any:
    """Send one request; SELECT and pivot results are fully paged."""
    if request[0] == "pivot":
        _, mode, rows, cols = request
        return client.pivot(mode, rows, cols, "amount")
    return client.query(request[1])


def view(result: Any) -> Any:
    """A comparable value of a wire result (or a reference rebuilt as one)."""
    if isinstance(result, RemoteTable):
        return (tuple(result.columns), result.as_dict(), result.confidences())
    if isinstance(result, RemotePivot):
        cells = {(r, c): result.cell(r, c) for r in result.rows for c in result.cols}
        return (tuple(result.rows), tuple(result.cols), cells)
    return tuple(str(item) for item in result)


def sliced(request: tuple) -> tuple:
    """The request an unrestricted analyst would send to see acme's slice."""
    if request[0] != "query" or not request[1].startswith("SELECT"):
        return request
    joiner = " AND " if " WHERE " in request[1] else " WHERE "
    return ("query", f"{request[1]}{joiner}org.Division = {SLICE}")


class Reference:
    """Uncached answers: a fresh MVFT build over a schema clone, queried
    with no result cache.  acme's reference is the unrestricted answer
    sliced with ``WHERE org.Division = DIV0``: row-level security must
    hide exactly what an analyst's own slice hides, no more, no less."""

    def __init__(self, schema: Any) -> None:
        self.mvft = MultiVersionFactTable.build(schema)

    def answer(self, tenant: str, request: tuple) -> Any:
        scoped = tenant == "acme"
        if request[0] == "pivot":
            _, mode, rows, cols = request
            pivot = Cube(self.mvft).pivot(
                mode, parse_axis(rows), parse_axis(cols), "amount",
                filters=(LevelFilter("org", "Division", (SLICE,)),) if scoped else (),
            )
            payload = json.loads(json.dumps(cube_view_to_dict(pivot)))
            grid = [
                {"row": row, "cells": cells}
                for row, cells in zip(payload["rows"], payload.pop("cells"))
            ]
            return view(RemotePivot(payload, grid))
        statement = sliced(request)[1] if scoped else request[1]
        result = MVQLSession(self.mvft).execute(statement)
        if isinstance(result, list):
            return view(result)
        payload = json.loads(json.dumps(result_table_to_dict(result)))
        return view(RemoteTable(payload, payload["rows"]))


def check_answer(reference: Reference, tenant: str, request: tuple, result: Any) -> list[str]:
    """Mismatches of one wire answer against the reference."""
    if view(result) == reference.answer(tenant, request):
        return []
    return [f"{tenant} {request!r}: wire answer differs from reference"]


# -- the served warehouse -------------------------------------------------------


class Warehouse:
    """TransactionManager (buffered WAL) → SnapshotManager → server → one
    authenticated client per tenant, each with its first statement answered."""

    def __init__(self, schema: Any, wal_path: Path) -> None:
        self.txm = TransactionManager(schema, wal=wal_path)
        self.manager = SnapshotManager(self.txm)
        self.handle = serve_background(self.manager, server_config(), wal_path=wal_path)
        self.clients: dict[str, WarehouseClient] = {}
        try:
            for tenant in TENANTS:
                client = WarehouseClient(
                    self.handle.host, self.handle.port, api_key=f"{tenant}-key"
                )
                self.clients[tenant] = client
                client.query("SHOW MODES")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Clients first: stopping with connections open logs cancellations."""
        for client in self.clients.values():
            client.close()
        self.handle.stop()
        self.txm.wal.close()


def warehouse_factory(generated: Any, workdir: Path) -> Callable[[], Warehouse]:
    """Sets up a fresh warehouse over a clone of the generated schema,
    each with its own journal under ``workdir``."""
    journals = (workdir / f"warehouse{n}.wal" for n in itertools.count())
    return lambda: Warehouse(clone_schema(generated), next(journals))


# -- runners --------------------------------------------------------------------


class Runner:
    """One workload's load: ``step`` runs one measured operation and
    returns ``(latency_s, commit_s or None)``; ``check`` is the oracle.

    The measured window is a time (``--seconds``), so a faster program
    runs more operations.  With ``epochs`` set, ``prepare`` (untimed)
    sets up a fresh warehouse from ``reopen`` whenever the plan is used
    up: state the operations accumulate (facts, members, cached results)
    never outgrows one pass of the plan, so what an operation costs does
    not depend on how many ran before it.
    """

    warmup = 0
    epochs = False

    def __init__(
        self, warehouse: Warehouse, plan: list, seed: int, reopen: Callable[[], Warehouse]
    ) -> None:
        self.warehouse = warehouse
        self.plan = plan
        self.seed = seed
        self.reopen = reopen
        self.position = 0

    def step(self) -> tuple[float, float | None]:
        raise NotImplementedError

    def stratum(self) -> Any:
        """What kind of operation the next ``step`` is.  A traced run
        traces every other operation of each kind, so traced and untraced
        operations have the same mix."""
        return self.position % len(self.plan)

    def prepare(self) -> None:
        """Untimed, before each measured operation: a new epoch's set-up
        once the plan is used up."""
        if self.epochs and self.position == len(self.plan):
            self.epoch_ended()
            self.warehouse.close()
            self.warehouse = None
            gc.collect()  # so two warehouses never count in peak RSS
            self.warehouse = self.reopen()
            self.position = 0

    def epoch_ended(self) -> None:
        """Keep what the oracle needs of the warehouse about to close."""

    def check(self) -> list[str]:
        raise NotImplementedError


class ReadRunner(Runner):
    """Reads cycling through ``plan`` (pairs of tenant and request)."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.answers: dict[tuple[str, tuple], Any] = {}

    def keep(self, index: int, tenant: str, request: tuple, result: Any) -> None:
        self.answers[(tenant, request)] = result

    def step(self) -> tuple[float, float | None]:
        index = self.position
        self.position += 1
        tenant, request = self.plan[index % len(self.plan)]
        client = self.warehouse.clients[tenant]
        start = time.perf_counter()
        result = issue(client, request)
        latency = time.perf_counter() - start
        self.keep(index, tenant, request, result)
        return latency, None

    def check(self) -> list[str]:
        reference = Reference(clone_schema(self.warehouse.txm.schema))
        problems = []
        for (tenant, request), result in self.answers.items():
            problems += check_answer(reference, tenant, request, result)
        return problems


class HotDashboard(ReadRunner):
    """Every distinct statement per tenant is checked (the last answer)."""

    warmup = 24  # two passes of the 12-request dashboard


class AdhocScan(ReadRunner):
    """A seeded share of the never-repeated statements is checked."""

    warmup = 20
    epochs = True

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        rng = random.Random(f"oracle-{self.seed}")
        self.sampled = {
            i for i in range(len(self.plan)) if rng.random() < ADHOC_ORACLE_SHARE
        }

    def stratum(self) -> Any:
        # Tenant, grain and level: each recurs once per mode in an epoch.
        tenant, (_, statement) = self.plan[self.position]
        return tenant, statement.split(" IN MODE")[0].split(" WHERE")[0].split(" DURING")[0]

    def keep(self, index: int, tenant: str, request: tuple, result: Any) -> None:
        if index in self.sampled:
            self.answers[(tenant, request)] = result


class Freshness(Runner):
    """Write, then ``acme`` refreshes and reads.  An epoch is
    :data:`EPOCH_CYCLES` cycles; the oracle re-checks the last cycle of
    every epoch and of the run against the writer's schema then."""

    warmup = 3
    epochs = True

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.last: Any = None
        self.checked: list[tuple[Any, Any, Any]] = []

    def stratum(self) -> Any:
        # An epoch's first cycle runs on a just-set-up warehouse (and on
        # evolve_freshness adds the structure version); the rest are alike.
        return self.position == 0

    def read(self, committed: int) -> Any:
        acme = self.warehouse.clients["acme"]
        refreshed = acme.refresh()["version"]
        result = acme.query(FRESH_READ)
        if refreshed < committed:
            raise Mismatch(f"read pinned {refreshed}, before commit {committed}")
        return result

    def capture(self) -> tuple[Any, Any, Any]:
        """The writer's schema, the last cycle's write and its read."""
        return (clone_schema(self.warehouse.txm.schema), self.plan[self.position - 1], self.last)

    def epoch_ended(self) -> None:
        self.checked.append(self.capture())

    def check(self) -> list[str]:
        problems = []
        for schema, spec, result in self.checked + [self.capture()]:
            problems += check_answer(Reference(schema), "acme", ("query", FRESH_READ), result)
            problems += self.check_write(schema, spec)
        return problems

    def check_write(self, schema: Any, spec: Any) -> list[str]:
        return []


class IngestFreshness(Freshness):
    """An ETL writer commits two facts at a fresh month in acme's slice."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.previous: dict[tuple, dict] = {}

    def epoch_ended(self) -> None:
        super().epoch_ended()
        self.previous = {}

    def step(self) -> tuple[float, float | None]:
        t, facts = self.plan[self.position]
        self.position += 1
        manager, txm = self.warehouse.manager, self.warehouse.txm
        start = time.perf_counter()
        with manager.transaction() as txn:
            for dept, amount in facts:
                txm.add_fact({"org": dept}, t, amount=amount)
        acked = time.perf_counter()
        result = self.read(txn.commit_lsn)
        latency = time.perf_counter() - acked
        self.last = result
        # The write is in the slice acme reads: the year's DIV0 total
        # grows by exactly the committed amounts.
        totals = result.as_dict()
        key = (str(t // 12), SLICE)
        expected = self.previous.get(key, {}).get("amount") or 0.0
        expected += sum(amount for _dept, amount in facts)
        if abs(totals[key]["amount"] - expected) > 1e-6 * max(1.0, expected):
            raise Mismatch(f"{key}: read {totals[key]['amount']}, expected {expected}")
        self.previous = totals
        return latency, acked - start

    def check_write(self, schema: Any, spec: Any) -> list[str]:
        t, facts = spec
        stored = {(row.coordinate("org"), row.t) for row in schema.facts}
        missing = [dept for dept, _amount in facts if (dept, t) not in stored]
        return [f"facts {missing} at {t} missing from the schema"] if missing else []


class EvolveFreshness(Freshness):
    """``ops`` evolves one new Department valid from 2010-01."""

    def step(self) -> tuple[float, float | None]:
        spec = self.plan[self.position]
        self.position += 1
        ops = self.warehouse.clients["ops"]
        ops.refresh()
        start = time.perf_counter()
        reply = ops.evolve(spec)
        acked = time.perf_counter()
        result = self.read(reply["committed_version"])
        latency = time.perf_counter() - acked
        self.last = result
        return latency, acked - start

    def check_write(self, schema: Any, spec: Any) -> list[str]:
        if spec["mvid"] in schema.dimension("org"):
            return []
        return [f"evolved member {spec['mvid']} missing from the schema"]


# -- plans ----------------------------------------------------------------------


def mode_labels(schema: Any) -> list[str]:
    return list(schema.presentation_modes().labels)


def dashboard_plan(schema: Any, seed: int) -> list:
    """Six requests per tenant: four SELECTs, a pivot and SHOW MODES."""
    last = mode_labels(schema)[-1]
    requests = [
        ("query", "SELECT amount BY year, org.Division"),
        ("query", f"SELECT amount BY year, org.Division IN MODE {last}"),
        (
            "query",
            f"SELECT amount BY quarter, org.Division IN MODE V1 "
            f"DURING {LAST_YEAR - 1}..{LAST_YEAR}",
        ),
        ("query", "SELECT amount BY year, org.Division WHERE org.Division IN (DIV0, DIV1)"),
        ("pivot", last, "year", "org.Division"),
        ("query", "SHOW MODES"),
    ]
    return [(tenant, request) for request in requests for tenant in TENANTS]


def adhoc_plan(schema: Any, seed: int) -> list:
    """SELECTs over mode × grain × level that never repeat within an
    epoch, so the result cache never hits.

    Every (mode, grain, level) shape runs twice an epoch: ``ops`` asks
    for the whole history of one division (``WHERE``), ``acme`` for
    :data:`ADHOC_DURING_YEARS` years of its slice (``DURING``); the two
    tenants alternate.  The seed picks the division, the years and the
    order, never which shape gets which kind of question, so every seed
    and every stretch of a run asks for the same mix of cheap and
    expensive work.
    """
    rng = random.Random(seed)
    shapes = [
        f"SELECT amount BY {grain}, org.{level}"
        + ("" if mode == "tcm" else f" IN MODE {mode}")
        for mode in mode_labels(schema)
        for grain in ("year", "quarter", "month")
        for level in ("Division", "Department")
    ]
    starts = range(START_YEAR, LAST_YEAR - ADHOC_DURING_YEARS + 2)
    ops = [f"{shape} WHERE org.Division = {rng.choice(DIVISIONS)}" for shape in shapes]
    acme = []
    for shape in shapes:
        start = rng.choice(starts)
        acme.append(f"{shape} DURING {start}..{start + ADHOC_DURING_YEARS - 1}")
    rng.shuffle(ops)
    rng.shuffle(acme)
    return [
        (tenant, ("query", statement))
        for pair in zip(acme, ops)
        for tenant, statement in zip(TENANTS, pair)
    ]


def ingest_plan(schema: Any, seed: int) -> list:
    """Two facts per cycle on distinct DIV0 departments, month by month
    from 2010-01."""
    org = schema.dimension("org")
    snap = org.at(ym(LAST_YEAR, 12))
    in_slice = sorted(
        leaf
        for leaf in snap.leaves()
        if snap.member(leaf).level == "Department" and "div0" in snap.ancestors(leaf)
    )
    rng = random.Random(seed)
    plan = []
    for i in range(EPOCH_CYCLES):
        t = ym(LAST_YEAR + 1 + i // 12, 1 + i % 12)
        depts = rng.sample(in_slice, 2)
        plan.append((t, [(d, round(rng.uniform(10.0, 200.0), 2)) for d in depts]))
    return plan


def evolve_plan(schema: Any, seed: int) -> list:
    """One new Department per cycle, all valid from 2010-01, so the run
    adds exactly one structure version."""
    rng = random.Random(seed)
    return [
        {
            "dimension": "org",
            "mvid": f"bench{i}",
            "name": f"Bench-{i}",
            "level": "Department",
            "t": [LAST_YEAR + 1, 1],
            "parents": [rng.choice(DIVISIONS).lower()],
        }
        for i in range(EPOCH_CYCLES)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    n_departments: int
    plan: Callable[[Any, int], list]
    runner: type[Runner]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hot_dashboard", 400, dashboard_plan, HotDashboard),
        Workload("adhoc_scan", 400, adhoc_plan, AdhocScan),
        Workload("ingest_freshness", 100, ingest_plan, IngestFreshness),
        Workload("evolve_freshness", 100, evolve_plan, EvolveFreshness),
    )
}

#: ``--size toy``: the smoke test's size.
TOY_DEPARTMENTS = 12


def generate(workload: Workload, seed: int, toy: bool) -> Any:
    """The generated schema a run starts from."""
    config = WorkloadConfig(
        seed=seed,
        n_years=N_YEARS,
        start_year=START_YEAR,
        n_departments=TOY_DEPARTMENTS if toy else workload.n_departments,
    )
    return generate_workload(config).schema


def fingerprint(schema: Any, plan: list) -> str:
    """sha256 over the generated schema and the statement plan: runs
    compare only on identical inputs."""
    blob = json.dumps(
        {"schema": schema_to_dict(schema), "plan": plan},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
