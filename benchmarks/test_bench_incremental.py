"""Incremental MV maintenance vs full rebuild — the load-path ablation.

Appending a batch of facts one by one through the incremental maintainer
should beat rebuilding the whole MultiVersion fact table after the batch,
and the two must agree cell for cell (asserted in the test suite; spot
checked here).
"""

import itertools

from repro.concurrency import SnapshotManager
from repro.core import MultiVersionFactTable
from repro.core.chronology import ym
from repro.robustness import TransactionManager
from repro.warehouse import IncrementalMultiVersion
from repro.workloads.case_study import build_case_study
from repro.workloads.generator import WorkloadConfig, generate_workload


def fact_stream():
    reference = build_case_study()
    return [
        (dict(row.coordinates), row.t, {m: row.value(m) for m in row.values})
        for row in reference.schema.facts
    ]


def test_bench_incremental_appends(benchmark):
    stream = fact_stream()

    def run():
        study = build_case_study(with_facts=False)
        incremental = IncrementalMultiVersion(study.schema)
        incremental.mvft  # initial (empty) build
        for coordinates, t, values in stream:
            incremental.append_fact(coordinates, t, values)
        return incremental.mvft

    mvft = benchmark(run)
    assert len(mvft.slice("tcm")) == len(stream)


def rebuilt(schema):
    """A full rebuild: the table, with every version mode filled."""
    mvft = MultiVersionFactTable.build(schema)
    mvft.unmapped
    return mvft


def test_bench_rebuild_per_batch(benchmark):
    """The naive alternative: reload facts, rebuild the table."""
    stream = fact_stream()

    def run():
        study = build_case_study(with_facts=False)
        for coordinates, t, values in stream:
            study.schema.add_fact(coordinates, t, values)
        return rebuilt(study.schema)

    mvft = benchmark(run)
    assert len(mvft.slice("tcm")) == len(stream)


def test_bench_per_fact_rebuild(benchmark):
    """Rebuilding after *every* fact — what the incremental path avoids."""
    stream = fact_stream()

    def run():
        study = build_case_study(with_facts=False)
        mvft = None
        for coordinates, t, values in stream:
            study.schema.add_fact(coordinates, t, values)
            mvft = rebuilt(study.schema)
        return mvft

    mvft = benchmark.pedantic(run, rounds=3, iterations=1)
    assert mvft is not None and len(mvft.slice("tcm")) == len(stream)


def test_bench_first_read_after_commit(benchmark):
    """The first read in the newest mode after a 2-fact commit, through a
    new cursor: the new snapshot's table infers the one mode the read
    needs, not every mode.  The schema is the layer benchmark's freshness
    schema (100 departments over 2000-2009, ~1k facts)."""
    schema = generate_workload(
        WorkloadConfig(seed=1, n_years=10, start_year=2000, n_departments=100)
    ).schema
    manager = SnapshotManager(TransactionManager(schema))
    last = schema.presentation_modes().labels[-1]
    statement = f"SELECT amount BY year, org.Division IN MODE {last}"
    snapshot = schema.dimension("org").at(ym(2009, 12))
    departments = sorted(
        leaf for leaf in snapshot.leaves()
        if snapshot.member(leaf).level == "Department"
    )[:2]
    months = itertools.count()

    def commit():
        month = next(months)
        with manager.transaction():
            for department in departments:
                manager.txm.add_fact(
                    {"org": department}, ym(2010 + month // 12, 1 + month % 12),
                    amount=10.0,
                )

    def first_read():
        with manager.open_cursor() as cursor:
            return cursor.mvql_session().execute(statement)

    result = benchmark.pedantic(first_read, setup=commit, rounds=10, iterations=1)
    assert len(result) > 0
