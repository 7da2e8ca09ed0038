"""Unit tests for the MultiVersion fact table inference (Definition 11)."""

import gc
import hashlib
import sys
import threading
import tracemalloc

import pytest

from repro.core import (
    AM,
    AVG,
    EM,
    MAX,
    SD,
    CallableMapping,
    EvolutionManager,
    IdentityMapping,
    Interval,
    LevelGroup,
    LinearMapping,
    MappingRelationship,
    Measure,
    MeasureMap,
    MemberVersion,
    Query,
    QueryEngine,
    QueryError,
    SUM,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    TemporalRelationship,
    TimeGroup,
    YEAR,
)
from repro.concurrency.snapshot import SchemaSnapshot, clone_schema
from repro.core.chronology import ym
from repro.core.multiversion import MVFactRow, MultiVersionFactTable
from repro.observability import MetricsRegistry, instrumented
from repro.robustness import TransactionManager
from repro.workloads.case_study import ORG, build_case_study, fact_instant
from repro.workloads.generator import WorkloadConfig, generate_workload


def _filled(table):
    """``table``, with every version mode's slot filled."""
    table.unmapped
    return table


class TestTcmSlice:
    def test_tcm_slice_equals_consistent_table_with_sd(self, case_study, mvft):
        """Definition 11's identity: f' restricted to tcm == f × {sd}^m."""
        rows = mvft.slice("tcm")
        assert len(rows) == len(case_study.schema.facts)
        for mv_row, fact in zip(rows, case_study.schema.facts):
            assert dict(mv_row.coordinates) == dict(fact.coordinates)
            assert mv_row.t == fact.t
            assert mv_row.value("amount") == fact.value("amount")
            assert mv_row.confidence("amount").symbol == "sd"


class TestVersionModes:
    def test_fact_valid_in_version_keeps_value_and_sd(self, mvft):
        row = mvft.lookup({ORG: "brian"}, fact_instant(2001), "V1")
        assert row is not None
        assert row.value("amount") == 100.0
        assert row.confidence("amount").symbol == "sd"

    def test_split_fact_mapped_forward_with_am(self, mvft):
        """Jones's 2002 amount 100 appears as 40 on Bill in the 2003 mode."""
        row = mvft.lookup({ORG: "bill"}, fact_instant(2002), "V3")
        assert row is not None
        assert row.value("amount") == pytest.approx(40.0)
        assert row.confidence("amount").symbol == "am"

    def test_split_facts_merged_backward_with_em(self, mvft):
        """Bill's 150 and Paul's 50 merge to 200 on Jones in the 2002 mode."""
        row = mvft.lookup({ORG: "jones"}, fact_instant(2003), "V2")
        assert row is not None
        assert row.value("amount") == pytest.approx(200.0)
        assert row.confidence("amount").symbol == "em"

    def test_fact_valid_in_version_not_sprayed_to_siblings(self, mvft):
        """A 2003 fact on Bill must not leak onto Paul through Jones."""
        row = mvft.lookup({ORG: "paul"}, fact_instant(2003), "V3")
        assert row is not None
        assert row.value("amount") == pytest.approx(50.0)
        assert row.confidence("amount").symbol == "sd"

    def test_provenance_describes_mapping(self, mvft):
        row = mvft.lookup({ORG: "jones"}, fact_instant(2003), "V2")
        assert row is not None
        assert any("bill -> jones" in p for p in row.provenance)

    def test_cell_counts_per_mode(self, mvft):
        counts = _filled(mvft).cell_count()
        assert counts["tcm"] == 10
        assert counts["V1"] == 9   # 2003's four facts collapse to three cells
        assert counts["V2"] == 9
        assert counts["V3"] == 12  # 2001/2002 Jones facts split into two cells

    def test_len_sums_modes(self, mvft):
        assert len(mvft) == sum(mvft.cell_count().values())

    def test_slice_unknown_mode_rejected(self, mvft):
        with pytest.raises(QueryError):
            mvft.slice("V99")

    def test_lookup_miss_returns_none(self, mvft):
        assert mvft.lookup({ORG: "jones"}, fact_instant(2003), "V3") is None


class TestLazyModes:
    """Each version mode is a slot, filled the first time a reader needs
    that mode; ``len`` and ``cell_count`` count only materialized cells."""

    @staticmethod
    def _fills(tracer):
        return [
            span.attributes["mode"] for span in tracer.find("mvft.build")
            if span.attributes["kind"] == "mode"
        ]

    def test_build_materializes_only_tcm(self, case_study):
        with instrumented() as (tracer, metrics):
            table = MultiVersionFactTable.build(case_study.schema)
        n = len(case_study.schema.facts)
        assert table.cell_count() == {"tcm": n}
        assert len(table) == n
        assert len(table.slice("tcm")) == n
        assert self._fills(tracer) == []
        assert metrics.snapshot()["counters"] == {'mvft.builds{kind="full"}': 1}

    @pytest.mark.parametrize("read", [
        lambda table: table.lookup({ORG: "brian"}, fact_instant(2001), "V1"),
        lambda table: table.measure_at({ORG: "brian"}, fact_instant(2001), "V1", "amount"),
        lambda table: table.slice("V1"),
        lambda table: list(table._differences("V1")),
        lambda table: QueryEngine(table).execute(Query(
            group_by=(TimeGroup(YEAR), LevelGroup(ORG, "Division")), mode="V1"
        )),
    ], ids=["lookup", "measure_at", "slice", "differences", "query"])
    def test_a_read_fills_only_its_mode(self, case_study, read):
        full = _filled(MultiVersionFactTable.build(case_study.schema)).cell_count()
        table = MultiVersionFactTable.build(case_study.schema)
        with instrumented() as (tracer, _):
            read(table)
            read(table)
        assert self._fills(tracer) == ["V1"]
        assert table.cell_count() == {"tcm": full["tcm"], "V1": full["V1"]}
        assert len(table) == full["tcm"] + full["V1"]
        table.slice("V3")
        assert table.cell_count() == {label: full[label] for label in ("tcm", "V1", "V3")}

    @pytest.mark.parametrize("read", [
        lambda table: list(table.rows()), lambda table: table.unmapped,
    ], ids=["rows", "unmapped"])
    def test_whole_table_readers_fill_every_slot(self, case_study, read):
        table = MultiVersionFactTable.build(case_study.schema)
        with instrumented() as (tracer, _):
            read(table)
        labels = case_study.schema.presentation_modes().labels
        assert self._fills(tracer) == labels[1:]
        assert list(table.cell_count()) == labels
        assert _observable(table) == _observable(
            _filled(MultiVersionFactTable.build(case_study.schema))
        )

    def test_unknown_mode_label_rejected(self, case_study):
        table = MultiVersionFactTable.build(case_study.schema)
        for read in (
            lambda: table.slice("V99"),
            lambda: table._count("V99"),
            lambda: QueryEngine(table).execute(Query(mode="V99")),
        ):
            with pytest.raises(QueryError):
                read()
        assert table.lookup({ORG: "brian"}, fact_instant(2001), "V99") is None
        assert table.cell_count() == {"tcm": len(case_study.schema.facts)}

    def test_threads_reading_one_snapshot_fill_each_slot_once(self):
        """Four threads read every mode of one fresh snapshot, each in its
        own order: each slot is filled exactly once, and every thread
        gets the same answers."""
        snapshot = SchemaSnapshot(clone_schema(_toy(7)), 1)
        labels = snapshot.schema.presentation_modes().labels
        answers, errors = [], []
        barrier = threading.Barrier(4, timeout=10)

        def read(shift):
            try:
                barrier.wait()
                table = snapshot.mvft()
                order = labels[shift:] + labels[:shift]
                answers.append({label: _rows(table, label) for label in order})
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with instrumented(metrics=MetricsRegistry()) as (_, metrics):
                threads = [
                    threading.Thread(target=read, args=(shift,)) for shift in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(answers) == 4
        assert all(answer == answers[0] for answer in answers)
        assert metrics.snapshot()["counters"] == {
            'mvft.builds{kind="full"}': 1,
            'mvft.builds{kind="mode"}': len(labels) - 1,
        }
        assert answers[0] == {
            label: _rows(_filled(MultiVersionFactTable.build(_toy(7))), label)
            for label in labels
        }


def deletion_schema():
    """A member deleted without any Associate: its facts are orphaned in
    later modes (and symmetric: later facts are orphaned in older modes
    when creation had no mapping)."""
    d = TemporalDimension(ORG)
    d.add_member(MemberVersion("div", "Division", Interval(0), level="Division"))
    d.add_member(MemberVersion("a", "Dept-A", Interval(0), level="Department"))
    d.add_member(MemberVersion("b", "Dept-B", Interval(0), level="Department"))
    d.add_relationship(TemporalRelationship("a", "div", Interval(0)))
    d.add_relationship(TemporalRelationship("b", "div", Interval(0)))
    schema = TemporalMultidimensionalSchema([d], [Measure("amount", SUM)])
    manager = EvolutionManager(schema)
    schema.add_fact({ORG: "a"}, 5, amount=10.0)
    schema.add_fact({ORG: "b"}, 5, amount=20.0)
    manager.delete_member(ORG, "b", 10)
    schema.add_fact({ORG: "a"}, 15, amount=30.0)
    return schema


class TestUnmappedFacts:
    def test_deleted_member_facts_unmapped_in_later_mode(self):
        schema = deletion_schema()
        mvft = schema.multiversion_facts()
        v2 = schema.structure_versions()[1].vsid
        orphans = [u for u in mvft.unmapped if u.mode == v2]
        assert len(orphans) == 1
        assert orphans[0].source == "b"
        assert orphans[0].dimension == ORG
        assert orphans[0].fact.value("amount") == 20.0

    def test_surviving_member_facts_still_presented(self):
        schema = deletion_schema()
        mvft = schema.multiversion_facts()
        v2 = schema.structure_versions()[1].vsid
        row = mvft.lookup({ORG: "a"}, 5, v2)
        assert row is not None and row.value("amount") == 10.0

    def test_unmapped_repr_mentions_mode(self):
        schema = deletion_schema()
        mvft = schema.multiversion_facts()
        assert mvft.unmapped
        assert "mode=" in repr(mvft.unmapped[0])


class TestUnknownMappings:
    def test_unknown_reverse_mapping_yields_none_with_uk(self):
        """Table 11's merge: V2's back-mapping is unknown, so in the old
        structure V2 shows an unknown value tagged uk."""
        d = TemporalDimension(ORG)
        d.add_member(MemberVersion("div", "Division", Interval(0), level="Division"))
        for mvid in ("v1", "v2"):
            d.add_member(
                MemberVersion(mvid, mvid.upper(), Interval(0), level="Department")
            )
            d.add_relationship(TemporalRelationship(mvid, "div", Interval(0)))
        schema = TemporalMultidimensionalSchema([d], [Measure("amount", SUM)])
        manager = EvolutionManager(schema)
        schema.add_fact({ORG: "v1"}, 5, amount=10.0)
        schema.add_fact({ORG: "v2"}, 5, amount=20.0)
        manager.merge_members(
            ORG, ["v1", "v2"], "v12", "V12", 10,
            reverse_shares={"v1": 0.5, "v2": None},
        )
        schema.add_fact({ORG: "v12"}, 15, amount=100.0)
        mvft = schema.multiversion_facts()
        v1_mode = schema.structure_versions()[0].vsid
        back_v1 = mvft.lookup({ORG: "v1"}, 15, v1_mode)
        back_v2 = mvft.lookup({ORG: "v2"}, 15, v1_mode)
        assert back_v1 is not None
        assert back_v1.value("amount") == pytest.approx(50.0)
        assert back_v1.confidence("amount").symbol == "am"
        assert back_v2 is not None
        assert back_v2.value("amount") is None
        assert back_v2.confidence("amount").symbol == "uk"


class TestMaxHops:
    def test_long_transform_chain_respects_max_hops(self):
        """A member renamed five times: presenting its early facts in the
        final structure needs a 5-hop route; max_hops below that leaves
        the facts unmapped instead of silently wrong."""
        from repro.core import (
            EvolutionManager,
            Interval,
            Measure,
            MemberVersion,
            MultiVersionFactTable,
            SUM,
            TemporalDimension,
            TemporalMultidimensionalSchema,
            TemporalRelationship,
        )

        d = TemporalDimension(ORG)
        d.add_member(MemberVersion("div", "Division", Interval(0), level="Division"))
        d.add_member(MemberVersion("v0", "Dept", Interval(0), level="Department"))
        d.add_relationship(TemporalRelationship("v0", "div", Interval(0)))
        schema = TemporalMultidimensionalSchema([d], [Measure("amount", SUM)])
        manager = EvolutionManager(schema)
        schema.add_fact({ORG: "v0"}, 5, amount=10.0)
        for i in range(5):
            manager.transform_member(
                ORG, f"v{i}", f"v{i+1}", "Dept", 10 * (i + 1)
            )
        last_mode = schema.structure_versions()[-1].vsid

        wide = MultiVersionFactTable.build(schema, max_hops=8)
        assert wide.lookup({ORG: "v5"}, 5, last_mode) is not None
        assert not [u for u in wide.unmapped if u.mode == last_mode]

        narrow = MultiVersionFactTable.build(schema, max_hops=3)
        assert narrow.lookup({ORG: "v5"}, 5, last_mode) is None
        assert [u for u in narrow.unmapped if u.mode == last_mode]


def _rows(table, label):
    """The rows of one mode, in order, as comparable tuples."""
    return [
        (
            tuple(r.coordinates.items()), r.t, r.mode,
            tuple((m, repr(v)) for m, v in r.values.items()),
            tuple((m, c.symbol) for m, c in r.confidences.items()),
            r.provenance,
        )
        for r in table.slice(label)
    ]


def _observable(table):
    """Ordered rows, unmapped facts and lookups of every mode."""
    return (
        {label: _rows(table, label) for label in table.modes.labels},
        [(u.mode, u.dimension, u.source, u.fact) for u in table.unmapped],
        [table.lookup(r.coordinates, r.t, r.mode) for r in table.rows()],
    )


def _contents(columns):
    """A mode's columns as plain lists, for comparing their contents."""
    return [
        list(columns.keys), list(columns.t), *map(list, columns.values),
        list(columns.confidences), list(columns.provenance),
    ]


class TestRefreshed:
    """``refreshed`` picks current / derived / rebuilt and never mutates."""

    def test_current_table_is_returned_as_is(self):
        study = build_case_study()
        table = MultiVersionFactTable.build(study.schema)
        assert table.refreshed() is table

    def test_derived_table_shares_rows_and_leaves_parent_untouched(self):
        """A derive copies only the columns of modes a new fact lands in:
        every other mode's columns are the parent's objects, the parent's
        columns keep their contents, and ``tcm`` is the parent's facts
        plus the new one."""
        schema = golden_fixture()
        table = MultiVersionFactTable.build(schema)
        before = _observable(table)  # fills every slot
        parent = {label: slot.columns for label, slot in table._slots.items()}
        contents = {label: _contents(columns) for label, columns in parent.items()}
        # ``z`` has no route past V1, so only V1 gains a contribution.
        schema.add_fact({"org": "z", "product": "p1"}, 5, {"amount": 2.0, "peak": 1.0})
        derived = table.refreshed()
        assert derived is not table and not derived.is_stale()
        assert table.is_stale() and _observable(table) == before
        assert all(parent[label] is slot.columns for label, slot in table._slots.items())
        assert {label: _contents(c) for label, c in parent.items()} == contents
        assert derived._slots.keys() == parent.keys()
        touched = {
            label for label, slot in derived._slots.items()
            if slot.columns is not parent[label]
        }
        assert touched == {"V1"}
        old, new = contents["V1"], _contents(derived._slots["V1"].columns)
        assert [len(column) for column in new] == [len(column) for column in old]
        changed = {
            i for column_old, column_new in zip(old, new)
            for i, (a, b) in enumerate(zip(column_old, column_new)) if a != b
        }
        assert len(changed) == 1  # the one cell the fact folds into
        assert all(a is b for a, b in zip(table._basis.facts, derived._basis.facts))
        assert len(derived.slice("tcm")) == len(table.slice("tcm")) + 1
        assert _observable(derived) == _observable(MultiVersionFactTable.build(schema))

    def test_rolled_back_prefix_forces_rebuild(self):
        study = build_case_study()
        txm = TransactionManager(study.schema)
        table = MultiVersionFactTable.build(study.schema)
        txm.begin()
        txm.add_fact({ORG: "jones"}, fact_instant(2001), amount=1000.0)
        seen = table.refreshed()
        assert seen.lookup({ORG: "jones"}, fact_instant(2001), "tcm").value(
            "amount"
        ) == 1000.0
        txm.rollback()
        study.schema.add_fact({ORG: "smith"}, fact_instant(2001), amount=3.0)
        refreshed = seen.refreshed()
        assert _observable(refreshed) == _observable(
            MultiVersionFactTable.build(study.schema)
        )
        assert refreshed.lookup({ORG: "jones"}, fact_instant(2001), "tcm").value(
            "amount"
        ) == 100.0

    def test_evolution_rebuilds_with_the_same_parameters(self):
        study = build_case_study()
        table = MultiVersionFactTable.build(study.schema, max_hops=1)
        table.slice("V1"), table.slice("V3")
        EvolutionManager(study.schema).split_member(
            ORG,
            "smith",
            {"smith_a": ("Dpt.Smith-A", 0.5), "smith_b": ("Dpt.Smith-B", 0.5)},
            ym(2004, 1),
        )
        with instrumented(metrics=MetricsRegistry()) as (_, metrics):
            rebuilt = table.refreshed()
        assert metrics.snapshot()["counters"] == {'mvft.builds{kind="full"}': 1}
        # A rebuild fills nothing: the old slots describe another structure.
        assert rebuilt.cell_count().keys() == {"tcm"}
        assert rebuilt._basis.build_args == {"horizon": None, "max_hops": 1}
        assert _observable(rebuilt) == _observable(
            MultiVersionFactTable.build(study.schema, max_hops=1)
        )

    def test_derived_with_build_parameters(self):
        """A derive folds the new facts into the filled slots only; the
        others fill from every fact on their first read."""
        study = build_case_study()
        table = MultiVersionFactTable.build(
            study.schema, horizon=ym(2010, 1), max_hops=1
        )
        table.slice("V2")
        study.schema.add_fact({ORG: "bill"}, fact_instant(2003), amount=9.0)
        derived = table.refreshed()
        assert derived.cell_count().keys() == {"tcm", "V2"}
        assert derived._basis.build_args == {"horizon": ym(2010, 1), "max_hops": 1}
        assert _observable(derived) == _observable(
            MultiVersionFactTable.build(study.schema, horizon=ym(2010, 1), max_hops=1)
        )

    def test_non_foldable_measure_rebuilds(self):
        d = TemporalDimension(ORG)
        d.add_member(MemberVersion("a", "A", Interval(0), level="Department"))
        schema = TemporalMultidimensionalSchema(
            [d], [Measure("amount", SUM), Measure("mean", AVG)]
        )
        schema.add_fact({ORG: "a"}, 5, amount=1.0, mean=2.0)
        table = MultiVersionFactTable.build(schema)
        schema.add_fact({ORG: "a"}, 5, amount=3.0, mean=4.0)
        with instrumented(metrics=MetricsRegistry()) as (_, metrics):
            refreshed = table.refreshed()
        assert metrics.snapshot()["counters"] == {'mvft.builds{kind="full"}': 1}
        assert refreshed.lookup({ORG: "a"}, 5, "V1").value("mean") == 3.0

    def test_every_pass_is_one_span_and_one_count(self):
        study = build_case_study()
        with instrumented() as (tracer, metrics):
            table = MultiVersionFactTable.build(study.schema)
            table.lookup({ORG: "brian"}, fact_instant(2001), "V1")
            study.schema.add_fact({ORG: "brian"}, fact_instant(2001), amount=7.0)
            derived = table.refreshed()
            derived.slice("V2")
        full, fill, again, later = tracer.find("mvft.build")
        assert full.attributes == {
            "kind": "full", "facts": 10, "rows": 10, "structure_versions": 3,
        }
        assert fill.attributes == {
            "kind": "mode", "mode": "V1", "facts": 10, "rows": 9, "unmapped": 0,
            "cells_blocked": 6, "cells_folded": 4,
        }
        # Only V1 is filled, and Brian's 2001 cell exists there: folded per
        # cell.  The derived table's rows are tcm's 11 and V1's 9.
        assert again.attributes == {
            "kind": "derived", "facts": 1, "rows": 20, "unmapped": 0,
            "cells_blocked": 0, "cells_folded": 1,
        }
        # V2 was never filled, so it fills from all 11 facts.
        assert later.attributes == {
            "kind": "mode", "mode": "V2", "facts": 11, "rows": 9, "unmapped": 0,
            "cells_blocked": 3, "cells_folded": 8,
        }
        assert metrics.snapshot()["counters"] == {
            'mvft.builds{kind="full"}': 1,
            'mvft.builds{kind="mode"}': 2,
            'mvft.builds{kind="derived"}': 1,
        }

    def test_filling_every_slot_counts_the_eager_figures(self):
        """The fill spans of every mode add up to what one eager pass over
        every mode counted."""
        study = build_case_study()
        with instrumented() as (tracer, _):
            _filled(MultiVersionFactTable.build(study.schema))
        fills = [s.attributes for s in tracer.find("mvft.build")][1:]
        assert [f["mode"] for f in fills] == ["V1", "V2", "V3"]
        assert sum(f["rows"] for f in fills) == 9 + 9 + 12
        assert sum(f["cells_blocked"] for f in fills) == 18
        assert sum(f["cells_folded"] for f in fills) == 14


_FIXTURE_FACTS = (
    ({"org": "a", "product": "p1"}, 5, {"amount": 5, "peak": 3}, None),
    ({"org": "a", "product": "p2"}, 5, {"amount": 7.5, "peak": None}, "erp#1"),
    ({"org": "x", "product": "p1"}, 5, {"amount": 10, "peak": 4.0}, None),
    ({"org": "y", "product": "p1"}, 5, {"amount": -0.0, "peak": 9}, None),
    ({"org": "z", "product": "p1"}, 5, {"amount": 1.0, "peak": 1.0}, None),
    ({"org": "b", "product": "p3"}, 15, {"amount": 4, "peak": 2.5}, None),
    ({"org": "c", "product": "p4"}, 25, {"amount": 8.0, "peak": 8}, "erp#2"),
    ({"org": "m", "product": "p1"}, 25, {"amount": 6, "peak": 6}, None),
)


def golden_fixture(n_facts=len(_FIXTURE_FACTS)):
    """Two dimensions and three structure versions whose routes cover every
    mapping-function kind: ``a`` is transformed into ``b`` (linear forward,
    callable backward) and ``b`` into ``c`` (identity forward, linear
    backward, so ``c -> a`` composes a callable with a linear map);
    ``x`` and ``y`` merge into ``m``; ``z`` is deleted without a mapping;
    ``p2`` splits into ``p3`` / ``p4``.  ``peak`` has no backward map from
    ``b`` (unknown).  Facts mix ints, floats, ``-0.0``, ``None`` and ETL
    sources; only the first ``n_facts`` are loaded."""
    org = TemporalDimension("org")
    org.add_member(MemberVersion("div", "Division", Interval(0), level="Division"))
    for mvid, valid in (
        ("a", Interval(0, 9)), ("b", Interval(10, 19)), ("c", Interval(20)),
        ("x", Interval(0, 9)), ("y", Interval(0, 9)), ("m", Interval(10)),
        ("z", Interval(0, 9)),
    ):
        org.add_member(MemberVersion(mvid, mvid.upper(), valid, level="Department"))
        org.add_relationship(TemporalRelationship(mvid, "div", valid))
    product = TemporalDimension("product")
    product.add_member(MemberVersion("all", "All", Interval(0), level="All"))
    for mvid, valid in (
        ("p1", Interval(0)), ("p2", Interval(0, 9)),
        ("p3", Interval(10)), ("p4", Interval(10)),
    ):
        product.add_member(MemberVersion(mvid, mvid.upper(), valid, level="Item"))
        product.add_relationship(TemporalRelationship(mvid, "all", valid))
    schema = TemporalMultidimensionalSchema(
        [org, product], [Measure("amount", SUM), Measure("peak", MAX)]
    )
    both = ("amount", "peak")
    identity = {m: MeasureMap(IdentityMapping(), EM) for m in both}
    schema.add_mapping(MappingRelationship(
        "a", "b",
        forward={m: MeasureMap(LinearMapping(2.0), AM) for m in both},
        reverse={"amount": MeasureMap(CallableMapping(lambda v: v - 1, "x -> x-1"), EM)},
    ))
    schema.add_mapping(MappingRelationship(
        "b", "c", forward=identity,
        reverse={m: MeasureMap(LinearMapping(0.5), AM) for m in both},
    ))
    schema.add_mapping(MappingRelationship("x", "m", forward=identity, reverse=identity))
    schema.add_mapping(MappingRelationship("y", "m", forward=identity, reverse=identity))
    for target, share in (("p3", 0.3), ("p4", 0.7)):
        schema.add_mapping(MappingRelationship(
            "p2", target,
            forward={m: MeasureMap(LinearMapping(share), AM) for m in both},
            reverse=identity,
        ))
    for coordinates, t, values, source in _FIXTURE_FACTS[:n_facts]:
        schema.add_fact(coordinates, t, values, source=source)
    return schema


def _digest(table):
    """sha256 over every mode's rows in order, then the unmapped facts;
    values enter as ``repr`` so ``5`` and ``5.0`` differ."""
    digest = hashlib.sha256()
    for label in table.modes.labels:
        for row in table.slice(label):
            digest.update(repr((
                tuple(sorted(row.coordinates.items())), row.t, row.mode,
                tuple((m, repr(v)) for m, v in row.values.items()),
                tuple((m, c.symbol) for m, c in row.confidences.items()),
                row.provenance,
            )).encode())
    for lost in table.unmapped:
        digest.update(repr((
            lost.mode, lost.dimension, lost.source,
            tuple(sorted(lost.fact.coordinates.items())), lost.fact.t,
            tuple((m, repr(v)) for m, v in lost.fact.values.items()),
            lost.fact.source,
        )).encode())
    return digest.hexdigest()


def _toy(seed):
    return generate_workload(WorkloadConfig(seed=seed, n_departments=12)).schema


class TestGolden:
    """Inference output pinned byte for byte to recorded digests, so a
    rewrite of the kernel must reproduce the rows it replaces."""

    GOLDEN = {
        "case_study": "57bd83bd437044ee684bb5852184b88389744ee6012b0a338fd541404eee6dfe",
        "toy_seed7": "65c5a7ec86a7d7547c98f06c957ab52a5d0d0d5534e747a24758e9fd17c1e664",
        "toy_seed11": "a2598e26711f6d0828ec6ac6a43af3edb168d0b6f0ba528158bf99499d89c62e",
        "fixture": "97f9c919452daf9b0851e8499fb156ec8077fcdf4c35db6814bbe2f7ba7a15eb",
        "generator_seed5": "97332d72baa0439e0c634ff10366d2caf16319155007c341e41f89ea5a3b9542",
    }
    SCHEMAS = {
        "case_study": lambda: build_case_study().schema,
        "toy_seed7": lambda: _toy(7),
        "toy_seed11": lambda: _toy(11),
        "fixture": golden_fixture,
        "generator_seed5": lambda: generate_workload(
            WorkloadConfig(seed=5, n_departments=40, n_years=6)
        ).schema,
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_build_matches_recorded_digest(self, name):
        table = MultiVersionFactTable.build(self.SCHEMAS[name]())
        assert _digest(table) == self.GOLDEN[name]

    def test_fixture_exercises_every_route_kind(self):
        table = MultiVersionFactTable.build(golden_fixture())
        provenance = " ".join(p for row in table.rows() for p in row.provenance)
        for text in ("'x -> 2*x'", "'x -> x-1'", "'x -> ?'", ") o (", "'x -> x'",
                     "valid in version", "[from erp#1]"):
            assert text in provenance
        assert any(len(row.provenance) == 2 for row in table.rows())
        assert [lost.source for lost in table.unmapped] == ["z", "z"]
        assert repr(table.lookup({"org": "a", "product": "p1"}, 5, "V1").value(
            "amount")) == "5.0"

    @pytest.mark.parametrize("prefix", [0, 3, 6])
    def test_derived_fixture_matches_recorded_digest(self, prefix):
        schema = golden_fixture(prefix)
        table = _filled(MultiVersionFactTable.build(schema))
        for coordinates, t, values, source in _FIXTURE_FACTS[prefix:]:
            schema.add_fact(coordinates, t, values, source=source)
        with instrumented(metrics=MetricsRegistry()) as (_, metrics):
            derived = table.refreshed()
        assert metrics.snapshot()["counters"] == {'mvft.builds{kind="derived"}': 1}
        assert _digest(derived) == self.GOLDEN["fixture"]


class TestSharedRowParts:
    """Kernel-built rows share their read-only coordinates, confidences
    and provenance objects; only the values mapping is per row."""

    @staticmethod
    def _shared_per_leaf(table):
        for mode in table.modes.version_modes:
            by_leaf = {}
            for row in table.slice(mode.label):
                by_leaf.setdefault(tuple(sorted(row.coordinates.items())), set()).add(
                    id(row.coordinates)
                )
            assert all(len(ids) == 1 for ids in by_leaf.values()), mode.label
            assert any(
                len([r for r in table.slice(mode.label)
                     if tuple(sorted(r.coordinates.items())) == leaf]) > 1
                for leaf in by_leaf
            )

    @staticmethod
    def _all_sd_confidences(table):
        return {
            id(row.confidences) for row in table.rows()
            if all(c is SD for c in row.confidences.values())
        }

    def test_rows_of_a_mode_on_one_leaf_share_coordinates(self):
        self._shared_per_leaf(MultiVersionFactTable.build(_toy(7)))

    def test_all_sd_rows_share_one_confidences_object(self):
        table = MultiVersionFactTable.build(_toy(7))
        assert len(self._all_sd_confidences(table)) == 1
        parts = table._parts
        columns_of = [slot.columns for slot in table._slots.values()]
        assert len(columns_of) == len(table.modes.version_modes)
        all_sd = {
            cid for columns in columns_of for cid in columns.confidences
            if all(c is SD for c in parts.confidences[cid])
        }
        assert all_sd == {parts.all_sd}
        # Values live in one column per measure, not in per-row mappings.
        assert all(
            len(column) == len(columns)
            for columns in columns_of for column in columns.values
        )

    def test_derived_rows_share_with_the_parent(self):
        study = build_case_study()
        table = _filled(MultiVersionFactTable.build(study.schema))
        study.schema.add_fact({ORG: "brian"}, fact_instant(2001), amount=7.0)
        study.schema.add_fact({ORG: "smith"}, fact_instant(2003), amount=2.0)
        derived = table.refreshed()
        assert len(derived) > len(table)
        self._shared_per_leaf(derived)
        assert self._all_sd_confidences(derived) == self._all_sd_confidences(table)
        assert len(self._all_sd_confidences(derived)) == 1

    def test_row_parts_are_read_only(self, mvft):
        row = mvft.lookup({ORG: "jones"}, fact_instant(2003), "V2")
        with pytest.raises(TypeError):
            row.coordinates[ORG] = "x"
        with pytest.raises(TypeError):
            row.values["amount"] = 0.0
        with pytest.raises(TypeError):
            row.confidences["amount"] = SD
        assert isinstance(row.provenance, tuple)

    def test_public_constructor_copies_its_arguments(self):
        coordinates, values, confidences = {ORG: "bill"}, {"amount": 1.0}, {"amount": SD}
        row = MVFactRow(
            coordinates=coordinates, t=5, mode="V1",
            values=values, confidences=confidences,
        )
        coordinates[ORG], values["amount"], confidences["amount"] = "x", 2.0, EM
        assert dict(row.coordinates) == {ORG: "bill"}
        assert row.value("amount") == 1.0 and row.confidence("amount") is SD

    def test_concurrent_derivations_share_one_object_per_part(self):
        """Tables derived from one parent on several threads share its
        pool: each is exact, and equal parts are still one object."""
        schema = _toy(7)
        table = _filled(MultiVersionFactTable.build(schema))
        for fact in list(schema.facts)[::3]:
            schema.add_fact(fact.coordinates, fact.t, dict(fact.values))
        expected = _digest(MultiVersionFactTable.build(schema))
        derived, errors = [], []
        barrier = threading.Barrier(4, timeout=10)

        def derive():
            try:
                barrier.wait()
                derived.append(table.refreshed())
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=derive) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(derived) == 4
        assert {_digest(d) for d in derived} == {expected}
        ids = {}
        for d in derived:
            for mode in d.modes.version_modes:
                for row in d.slice(mode.label):
                    for part in (row.coordinates, row.confidences):
                        ids.setdefault(tuple(part.items()), set()).add(id(part))
                    ids.setdefault(row.provenance, set()).add(id(row.provenance))
        assert all(len(found) == 1 for found in ids.values())


class TestMemory:
    def test_build_retains_little_per_cell(self):
        """Cells are columns over interned parts, not row objects: 11k
        cells, every slot filled, retain well under 2 MB (row objects
        took about 6 MB)."""
        schema = generate_workload(
            WorkloadConfig(seed=0, n_departments=100, n_years=10)
        ).schema
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = _filled(MultiVersionFactTable.build(schema))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(table) == 11_000
        assert retained < 2_000_000, f"{retained / 1e6:.2f} MB retained"
