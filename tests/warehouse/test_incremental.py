"""Tests for incremental MultiVersion maintenance.

The schema keeps its current MultiVersion fact table
(``schema.multiversion_facts()``) and brings it up to date on each read
after ``schema.add_fact``.  A maintained table must be *exactly* the
table a full rebuild gives — same rows in the same order, same values,
confidences and provenance, same unmapped facts — and it must never
change under a reader's feet.
"""

import random

import pytest

from repro.cache import VersionedResultCache
from repro.core import (
    AVG,
    COUNT,
    LevelGroup,
    Measure,
    MultiVersionFactTable,
    Query,
    QueryEngine,
    TimeGroup,
    YEAR,
)
from repro.core.chronology import ym
from repro.observability import MetricsRegistry, instrumented
from repro.robustness import TransactionManager
from repro.workloads.case_study import (
    ORG,
    _apply_evolutions,
    _base_schema,
    build_case_study,
    fact_instant,
)
from repro.workloads.generator import WorkloadConfig, generate_workload


def snapshot(mvft):
    """Everything observable about a MV table, in order: per mode the row
    list (coordinates, t, values, confidences, provenance), then the
    unmapped facts and what ``lookup`` answers for every row."""
    out = {}
    for label in mvft.modes.labels:
        out[label] = [
            (
                tuple(r.coordinates.items()),
                r.t,
                r.mode,
                tuple((m, repr(v)) for m, v in r.values.items()),
                tuple((m, c.symbol) for m, c in r.confidences.items()),
                r.provenance,
            )
            for r in mvft.slice(label)
        ]
    out["unmapped"] = [
        (u.mode, u.dimension, u.source, u.fact) for u in mvft.unmapped
    ]
    out["lookup"] = [
        mvft.lookup(r.coordinates, r.t, r.mode) for r in mvft.rows()
    ]
    return out


DIVISIONS = Query(group_by=(TimeGroup(YEAR), LevelGroup(ORG, "Division")))


def sales_2001(mvft, cache=None):
    result = QueryEngine(mvft, cache=cache).execute(DIVISIONS)
    return result.as_dict()[("2001", "Sales")]["amount"]


class TestEquivalenceToBatchRebuild:
    def test_appends_match_full_rebuild(self):
        """Grow the fact table fact by fact; after every append the
        schema's table equals a from-scratch rebuild."""
        reference = build_case_study()
        stream = [
            (dict(row.coordinates), row.t, {m: row.value(m) for m in row.values})
            for row in reference.schema.facts
        ]
        study = build_case_study(with_facts=False)
        schema = study.schema
        assert len(schema.multiversion_facts()) == 0
        for coordinates, t, values in stream:
            schema.add_fact(coordinates, t, values)
            rebuilt = MultiVersionFactTable.build(schema)
            assert snapshot(schema.multiversion_facts()) == snapshot(rebuilt)

    def test_final_state_matches_case_study(self, mvft):
        reference = build_case_study()
        schema = build_case_study(with_facts=False).schema
        schema.multiversion_facts()
        for row in reference.schema.facts:
            schema.add_fact(
                dict(row.coordinates), row.t, {m: row.value(m) for m in row.values}
            )
        assert snapshot(schema.multiversion_facts()) == snapshot(mvft)


class TestMergingCells:
    def test_second_fact_merges_into_mapped_cell(self):
        """Two facts at the same instant on Bill and Paul both map onto
        the Jones cell in mode V2 and must fold to their sum."""
        schema = build_case_study(with_facts=False).schema
        schema.multiversion_facts()
        t = fact_instant(2003)
        schema.add_fact({ORG: "bill"}, t, amount=150.0)
        schema.add_fact({ORG: "paul"}, t, amount=50.0)
        cell = schema.multiversion_facts().lookup({ORG: "jones"}, t, "V2")
        assert cell is not None
        assert cell.value("amount") == 200.0
        assert cell.confidence("amount").symbol == "em"


class TestAppendRegressions:
    """Each of these failed while appends were folded into the live table
    in place."""

    def test_cached_engine_sees_append(self):
        schema = build_case_study().schema
        cache = VersionedResultCache()
        assert sales_2001(schema.multiversion_facts(), cache) == 150.0
        schema.add_fact({ORG: "jones"}, fact_instant(2001), amount=1000.0)
        assert sales_2001(schema.multiversion_facts(), cache) == 1150.0
        assert sales_2001(schema.multiversion_facts()) == 1150.0

    def test_served_table_is_not_stale(self):
        schema = build_case_study().schema
        schema.multiversion_facts()
        schema.add_fact({ORG: "jones"}, fact_instant(2001), amount=1000.0)
        assert schema.multiversion_facts().is_stale() is False

    def test_facts_on_one_cell_keep_one_tcm_row_each(self):
        schema = build_case_study().schema
        before = len(schema.multiversion_facts().slice("tcm"))
        schema.add_fact({ORG: "jones"}, fact_instant(2001), amount=1000.0)
        assert len(schema.multiversion_facts().slice("tcm")) == before + 1 == 11
        assert snapshot(schema.multiversion_facts()) == snapshot(
            MultiVersionFactTable.build(schema)
        )

    def test_derived_provenance_keeps_mapping_and_source(self):
        schema = build_case_study().schema
        schema.multiversion_facts()
        t = fact_instant(2003)
        schema.add_fact({ORG: "bill"}, t, amount=5.0)
        cell = schema.multiversion_facts().lookup({ORG: "jones"}, t, "V1")
        assert cell.provenance[-1] == "bill -> jones via {'amount': 'x -> x'}"
        # A fact loaded with its ETL origin.
        schema.add_fact({ORG: "paul"}, t, amount=6.0, source="erp#7")
        derived = schema.multiversion_facts()
        cell = derived.lookup({ORG: "jones"}, t, "V1")
        assert cell.provenance[-1] == "paul -> jones via {'amount': 'x -> x'} [from erp#7]"
        assert derived.slice("tcm")[-1].provenance == ("source data [from erp#7]",)
        assert snapshot(derived) == snapshot(MultiVersionFactTable.build(schema))


class TestLifecycle:
    def test_validation_still_enforced(self):
        schema = build_case_study(with_facts=False).schema
        schema.multiversion_facts()
        from repro.core import FactValidityError

        with pytest.raises(FactValidityError):
            schema.add_fact({ORG: "jones"}, fact_instant(2003), amount=1.0)

    def test_batch_of_appends_folds_in_one_derive(self):
        schema = build_case_study().schema
        schema.multiversion_facts()
        with instrumented(metrics=MetricsRegistry()) as (_, metrics):
            for year in (2001, 2002):
                schema.add_fact({ORG: "jones"}, fact_instant(year), amount=1.0)
            schema.multiversion_facts()
        assert metrics.snapshot()["counters"] == {'mvft.builds{kind="derived"}': 1}

    def test_unroutable_fact_recorded_as_unmapped(self):
        from repro.core import EvolutionManager

        study = build_case_study(with_facts=False)
        manager = EvolutionManager(study.schema)
        manager.create_member(
            "org", "orphan", "Dpt.Orphan", fact_instant(2003) - 1,
            parents=["sales"], level="Department",
        )
        schema = study.schema
        schema.multiversion_facts()
        schema.add_fact({ORG: "orphan"}, fact_instant(2003), amount=5.0)
        assert any(u.source == "orphan" for u in schema.multiversion_facts().unmapped)

    def test_evolution_forces_rebuild(self):
        from repro.core import EvolutionManager

        study = build_case_study()
        schema = study.schema
        first = schema.multiversion_facts()
        EvolutionManager(schema).split_member(
            ORG,
            "smith",
            {"smith_a": ("Dpt.Smith-A", 0.5), "smith_b": ("Dpt.Smith-B", 0.5)},
            ym(2004, 1),
        )
        assert schema.multiversion_facts() is not first
        assert schema.multiversion_facts().modes.labels == ["tcm", "V1", "V2", "V3", "V4"]
        assert snapshot(schema.multiversion_facts()) == snapshot(
            MultiVersionFactTable.build(schema)
        )

    def test_non_foldable_aggregate_rebuilds(self):
        """Count and avg cannot resume a folded cell, so an append
        rebuilds the table, which still equals a fresh build."""
        schema, manager = _base_schema([Measure("n", COUNT), Measure("mean", AVG)])
        _apply_evolutions(manager, split_shares_bill=0.4, split_shares_paul=0.6)
        for year, dept in ((2001, "jones"), (2002, "smith"), (2003, "bill")):
            schema.add_fact({ORG: dept}, fact_instant(year), n=1.0, mean=10.0)
        first = schema.multiversion_facts()
        snapshot(first)  # every mode filled
        with instrumented(metrics=MetricsRegistry()) as (_, metrics):
            schema.add_fact({ORG: "paul"}, fact_instant(2003), n=1.0, mean=30.0)
            table = schema.multiversion_facts()
        assert metrics.snapshot()["counters"] == {'mvft.builds{kind="full"}': 1}
        assert table is not first and table.modes.labels == ["tcm", "V1", "V2", "V3"]
        assert snapshot(table) == snapshot(MultiVersionFactTable.build(schema))


class _History:
    """A seeded random history of appends, rollbacks and evolutions over a
    generated schema; every change goes through a transaction manager."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.workload = generate_workload(
            WorkloadConfig(
                seed=seed, n_years=3, n_departments=6,
                transforms_per_year=1, deletions_per_year=1,
            )
        )
        self.schema = self.workload.schema
        self.txm = TransactionManager(self.schema)
        self.year = self.workload.config.start_year + self.workload.config.n_years - 1
        self.fresh = 0

    def _new_fact(self):
        rng, org = self.rng, self.schema.dimension(ORG)
        if rng.random() < 0.25 and len(self.schema.facts):
            # Another fact on an existing (coordinates, t).
            old = rng.choice(list(self.schema.facts))
            return dict(old.coordinates), old.t
        start = self.workload.config.start_year
        t = ym(rng.randint(start, self.year), rng.randint(1, 12))
        return {ORG: rng.choice(sorted(org.at(t).leaves()))}, t

    def append(self) -> None:
        with self.txm.transaction():
            for _ in range(self.rng.randint(1, 3)):
                coordinates, t = self._new_fact()
                self.txm.add_fact(
                    coordinates, t,
                    amount=round(self.rng.uniform(1, 100), 2),
                    source=f"feed#{self.rng.randint(0, 9)}"
                    if self.rng.random() < 0.5 else None,
                )

    def begin_doomed(self) -> None:
        """Open a transaction with facts that will be rolled back."""
        self.txm.begin()
        coordinates, t = self._new_fact()
        self.txm.add_fact(coordinates, t, amount=round(self.rng.uniform(1, 100), 2))

    def rollback(self) -> None:
        self.txm.rollback()

    def evolve(self) -> None:
        rng = self.rng
        self.year += 1
        t = ym(self.year, 1)
        snap = self.schema.dimension(ORG).at(t - 1)
        departments = sorted(
            m for m in snap.leaves() if snap.member(m).level == "Department"
        )
        divisions = sorted(snap.levels()["Division"])
        self.fresh += 1
        kind = rng.choice(["split", "create", "delete"])
        with self.txm.transaction():
            manager = self.txm.evolution
            if kind == "split" and departments:
                share = round(rng.uniform(0.2, 0.8), 2)
                manager.split_member(
                    ORG,
                    rng.choice(departments),
                    {
                        f"s{self.fresh}a": (f"S-{self.fresh}a", share),
                        f"s{self.fresh}b": (f"S-{self.fresh}b", round(1 - share, 2)),
                    },
                    t,
                )
            elif kind == "delete" and len(departments) > 1:
                manager.delete_member(ORG, rng.choice(departments), t)
            else:
                manager.create_member(
                    ORG, f"n{self.fresh}", f"New-{self.fresh}", t,
                    parents=[rng.choice(divisions)], level="Department",
                )


class TestDerivedEqualsRebuiltProperty:
    """Derived tables are byte-identical to full inference, and cached
    answers equal uncached ones, over seeded random histories whose
    tables have a random subset of their version modes filled."""

    STEPS = 14

    @pytest.mark.parametrize("seed", range(8))
    def test_random_histories(self, seed):
        history = _History(seed)
        table = MultiVersionFactTable.build(history.schema)
        cache = VersionedResultCache()
        with instrumented(metrics=MetricsRegistry()) as (_, metrics):
            for _ in range(self.STEPS):
                self.fill_some(table, history.rng)
                step = history.rng.choice(
                    ["append", "append", "append", "rollback", "evolve"]
                )
                if step == "rollback":
                    # Refresh while the doomed facts are visible, so the
                    # next refresh must notice the prefix it folded is gone.
                    history.begin_doomed()
                    table = table.refreshed()
                    self.fill_some(table, history.rng)
                    history.rollback()
                    history.append()
                else:
                    getattr(history, step)()
                if history.rng.random() < 0.7:
                    # The check fills every slot, so it reads a sibling
                    # derived from the same parent and the kept table
                    # stays partly filled.
                    parent, table = table, table.refreshed()
                    self.check(history.schema, parent._successor(), cache)
            table = table.refreshed()
            self.check(history.schema, table, cache)
            builds = metrics.snapshot()["counters"]
        assert builds.get('mvft.builds{kind="derived"}', 0) > 0

    @staticmethod
    def fill_some(table, rng):
        """Fill a random subset of ``table``'s version modes."""
        labels = [mode.label for mode in table.modes.version_modes]
        for label in rng.sample(labels, rng.randint(0, len(labels))):
            table.slice(label)

    @staticmethod
    def check(schema, table, cache):
        rebuilt = MultiVersionFactTable.build(schema)
        assert table.is_stale() is False
        assert snapshot(table) == snapshot(rebuilt)
        assert table.refreshed() is table
        for label in rebuilt.modes.labels:
            query = DIVISIONS.with_mode(label)
            cached = QueryEngine(table, cache=cache).execute(query)
            uncached = QueryEngine(rebuilt).execute(query)
            assert cached.as_dict() == uncached.as_dict()
            assert cached.confidences() == uncached.confidences()


class TestDeltaReconstructionProperty:
    """Hypothesis: delta-store reconstruction equals the full table on
    random full-mix workloads."""

    def test_random_workloads(self):
        from hypothesis import given, settings, strategies as st
        from repro.warehouse import DeltaMultiVersionStore

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=10_000))
        def check(seed):
            wl = generate_workload(
                WorkloadConfig(
                    seed=seed, n_years=3, n_departments=7,
                    transforms_per_year=1, deletions_per_year=1,
                )
            )
            mvft = wl.schema.multiversion_facts()
            delta = DeltaMultiVersionStore(mvft)
            for label in mvft.modes.labels:
                assert snapshot_mode(mvft, label) == snapshot_mode_rows(
                    delta.slice(label)
                )

        def snapshot_mode(mvft, label):
            return snapshot_mode_rows(mvft.slice(label))

        def snapshot_mode_rows(rows):
            return {
                (tuple(sorted(r.coordinates.items())), r.t): (
                    dict(r.values),
                    {m: c.symbol for m, c in r.confidences.items()},
                )
                for r in rows
            }

        check()
