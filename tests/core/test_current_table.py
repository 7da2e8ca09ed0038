"""The schema owns the current MultiVersion fact table.

``schema.multiversion_facts()`` keeps the last table it returned, and a
stale table's ``refreshed()`` asks the schema for its successor, so every
holder of a table (a cube, its lattice, a standalone lattice, the schema
itself) lands on one successor and a write is inferred once.
"""

import gc
import sys
import threading
import weakref

from repro.concurrency.snapshot import SchemaSnapshot, clone_schema
from repro.core import MultiVersionFactTable, YEAR
from repro.observability import MetricsRegistry, instrumented
from repro.olap import AggregateLattice, Cube, LevelAxis, TimeAxis
from repro.workloads.case_study import ORG, build_case_study, fact_instant


def builds(metrics):
    """The ``mvft.builds`` counters by kind."""
    return {
        key: value
        for key, value in metrics.snapshot()["counters"].items()
        if key.startswith("mvft.builds")
    }


def append_two(schema):
    for department in ("brian", "smith"):
        schema.add_fact({ORG: department}, fact_instant(2003), amount=1.0)


class TestOneSuccessor:
    def test_every_holder_reads_one_table_after_a_write(self):
        """A materialized cube, a standalone lattice over the same table
        and the schema read one table, inferred by one derived pass."""
        schema = build_case_study().schema
        mvft = schema.multiversion_facts()
        cube = Cube(mvft, materialize=True)
        lattice = AggregateLattice(mvft)
        newest = mvft.modes.labels[-1]

        def read_all():
            view = cube.pivot(newest, TimeAxis(), LevelAxis(ORG, "Division"), "amount")
            totals = lattice.totals(newest, YEAR, ORG, "Division", "amount")
            return view, totals, schema.multiversion_facts()

        read_all()
        with instrumented(metrics=MetricsRegistry()) as (_, metrics):
            append_two(schema)
            view, totals, current = read_all()
        assert cube.mvft is current
        assert cube.lattice.mvft is current
        assert lattice.mvft is current
        assert builds(metrics) == {'mvft.builds{kind="derived"}': 1}
        assert view.cell("2003", "R&D").value == totals[("2003", "R&D")][0]

    def test_an_independent_table_lands_on_the_kept_successor(self):
        schema = build_case_study().schema
        kept = schema.multiversion_facts()
        independent = MultiVersionFactTable.build(schema)
        assert independent is not kept
        assert schema.multiversion_facts() is kept  # build leaves it alone
        append_two(schema)
        successor = independent.refreshed()
        assert successor is not kept and successor is not independent
        assert kept.refreshed() is successor
        assert schema.multiversion_facts() is successor

    def test_other_build_arguments_replace_the_kept_table(self):
        schema = build_case_study().schema
        kept = schema.multiversion_facts()
        shallow = schema.multiversion_facts(max_hops=1)
        assert shallow is not kept
        assert schema.multiversion_facts(max_hops=1) is shallow
        fresh = schema.multiversion_facts()
        assert fresh is not kept and fresh is not shallow

    def test_threads_refreshing_one_stale_table_share_one_derive(self):
        schema = build_case_study().schema
        stale = schema.multiversion_facts()
        stale.slice("V1")
        append_two(schema)
        tables, errors = [], []
        barrier = threading.Barrier(8, timeout=10)

        def refresh():
            try:
                barrier.wait()
                tables.append(stale.refreshed())
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with instrumented(metrics=MetricsRegistry()) as (_, metrics):
                threads = [threading.Thread(target=refresh) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(tables) == 8
        assert len({id(table) for table in tables}) == 1
        assert tables[0] is schema.multiversion_facts()
        assert builds(metrics) == {'mvft.builds{kind="derived"}': 1}


class _RaisingLock:
    def __enter__(self):
        raise AssertionError("took the schema's table lock")

    def __exit__(self, *exc_info):
        return False


class TestCurrentTableFastPath:
    def test_current_table_refreshes_without_the_schema_lock(self):
        schema = build_case_study().schema
        kept = schema.multiversion_facts()
        independent = MultiVersionFactTable.build(schema)
        schema._table_lock = _RaisingLock()
        assert kept.refreshed() is kept
        assert independent.refreshed() is independent


class TestSnapshotRelease:
    def test_dropped_snapshot_frees_its_clone_and_table_without_gc(self):
        """The clone keeps its table and the table its clone; the snapshot
        breaks that cycle when it goes, so a superseded snapshot does not
        wait for a full GC pass."""
        snapshot = SchemaSnapshot(clone_schema(build_case_study().schema), 3)
        table = snapshot.mvft()
        assert table.snapshot_version == 3 and snapshot.mvft() is table
        table.slice("V1")
        clone, table = weakref.ref(snapshot.schema), weakref.ref(table)
        gc.disable()
        try:
            del snapshot
            assert clone() is None and table() is None
        finally:
            gc.enable()
