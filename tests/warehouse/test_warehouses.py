"""Tests for the temporal / multiversion warehouses, delta storage and
metadata (§5)."""

import pytest

from repro.warehouse import (
    DeltaMultiVersionStore,
    MAPPING_TABLE,
    MV_FACT_TABLE,
    MultiVersionDataWarehouse,
    TemporalDataWarehouse,
    describe_evolutions,
    mapping_relations_extract,
    member_history,
    member_version_metadata,
)
from repro.core import ym
from repro.workloads.case_study import ORG, fact_instant
from repro.workloads.generator import WorkloadConfig, generate_workload


@pytest.fixture(scope="module")
def tdw(case_study):
    return TemporalDataWarehouse.from_schema(
        case_study.schema, case_study.manager.journal
    )


@pytest.fixture(scope="module")
def mvdw(mvft):
    return MultiVersionDataWarehouse.build(mvft)


class TestTemporalDW:
    def test_member_versions_materialized(self, tdw):
        rows = tdw.member_rows(ORG)
        assert len(rows) == 7  # sales, rd, jones, smith, brian, bill, paul
        jones = [r for r in rows if r["mvid"] == "jones"][0]
        assert jones["valid_from"] == ym(2001, 1)
        assert jones["valid_to"] == ym(2002, 12)

    def test_open_validity_stored_as_null(self, tdw):
        bill = [r for r in tdw.member_rows(ORG) if r["mvid"] == "bill"][0]
        assert bill["valid_to"] is None

    def test_relationships_materialized(self, tdw):
        rels = list(tdw.db.table(TemporalDataWarehouse.RELATIONSHIP_TABLE).rows())
        smith_edges = sorted(
            (r["parent"], r["valid_from"], r["valid_to"])
            for r in rels
            if r["child"] == "smith"
        )
        assert smith_edges == [
            ("rd", ym(2002, 1), None),
            ("sales", ym(2001, 1), ym(2001, 12)),
        ]

    def test_consistent_facts_match_table_3(self, tdw, case_study):
        assert len(tdw.fact_rows()) == len(case_study.schema.facts)

    def test_journal_materialized_in_order(self, tdw, case_study):
        rows = tdw.journal_rows()
        assert [r["operator"] for r in rows] == [
            r.operator for r in case_study.manager.journal
        ]

    def test_mapping_relations_present(self, tdw):
        table = tdw.db.table(MAPPING_TABLE)
        assert len(table) == 2  # jones->bill, jones->paul


class TestTable12:
    def test_two_measure_extract_matches_paper(self, two_measure_study):
        rows = {r["to"]: r for r in mapping_relations_extract(two_measure_study.schema)}
        paul, bill = rows["Dpt.Paul"], rows["Dpt.Bill"]
        assert (paul["k_turnover"], paul["k_profit"]) == (0.6, 0.8)
        assert (bill["k_turnover"], bill["k_profit"]) == (0.4, 0.2)
        assert paul["k_inv_turnover"] == paul["k_inv_profit"] == 1.0
        assert paul["confidence"] == 1      # am
        assert paul["confidence_inv"] == 2  # em
        assert paul["from"] == "Dpt.Jones"


class TestMultiVersionDW:
    def test_fact_rows_match_conceptual_table(self, mvdw, mvft):
        assert mvdw.storage_cells() == len(mvft)

    def test_relational_q1_matches_paper_tables(self, mvdw):
        tcm = {
            (r["year"], r["label"]): r["total"]
            for r in mvdw.query_level_totals("tcm", ORG, "Division", "amount")
            if r["year"] in (2001, 2002)
        }
        assert tcm == {
            (2001, "Sales"): 150.0,
            (2001, "R&D"): 100.0,
            (2002, "Sales"): 100.0,
            (2002, "R&D"): 150.0,
        }
        v1 = {
            (r["year"], r["label"]): r["total"]
            for r in mvdw.query_level_totals("V1", ORG, "Division", "amount")
            if r["year"] in (2001, 2002)
        }
        assert v1[(2002, "Sales")] == 200.0
        assert v1[(2002, "R&D")] == 50.0

    def test_relational_confidence_codes(self, mvdw):
        rows = mvdw.query_level_totals("V3", ORG, "Department", "amount")
        bill_2002 = [r for r in rows if r == {**r, "year": 2002, "label": "Dpt.Bill"}]
        by_key = {(r["year"], r["label"]): r["confidence"] for r in rows}
        assert by_key[(2002, "Dpt.Bill")] == 1  # am
        assert by_key[(2003, "Dpt.Bill")] == 3  # sd
        assert bill_2002  # sanity: the row exists

    def test_tmp_dimension_in_db(self, mvdw):
        assert len(mvdw.db.table("dim_tmp")) == 4

    def test_mv_fact_primary_key_holds(self, mvdw):
        table = mvdw.db.table(MV_FACT_TABLE)
        keys = {(r["mode"], r[ORG], r["t"]) for r in table.rows()}
        assert len(keys) == len(table)


class TestDeltaStorage:
    def test_reconstruction_equals_full_slices(self, mvft):
        delta = DeltaMultiVersionStore(mvft)
        for mode in ("tcm", "V1", "V2", "V3"):
            full = {
                (tuple(sorted(r.coordinates.items())), r.t): (
                    dict(r.values),
                    {m: c.symbol for m, c in r.confidences.items()},
                )
                for r in mvft.slice(mode)
            }
            rebuilt = {
                (tuple(sorted(r.coordinates.items())), r.t): (
                    dict(r.values),
                    {m: c.symbol for m, c in r.confidences.items()},
                )
                for r in delta.slice(mode)
            }
            assert full == rebuilt, mode

    def test_reconstructed_rows_share_the_tcm_row_parts(self, mvft):
        delta = DeltaMultiVersionStore(mvft)
        tcm = {(tuple(sorted(r.coordinates.items())), r.t): r for r in delta.slice("tcm")}
        passed = [
            (r, tcm[(tuple(sorted(r.coordinates.items())), r.t)])
            for r in delta.slice("V1") if r.provenance[0].startswith("source data")
        ]
        assert passed
        for row, base in passed:
            assert row.mode == "V1"
            assert row.coordinates is base.coordinates
            assert row.values is base.values
            assert row.confidences is base.confidences

    def test_delta_stores_fewer_cells_than_full(self, mvft):
        delta = DeltaMultiVersionStore(mvft)
        assert delta.total_stored() < delta.full_replication_cells()
        assert 0.0 < delta.savings_ratio() < 1.0

    def test_case_study_counts(self, mvft):
        delta = DeltaMultiVersionStore(mvft)
        # tcm kept in full (10); per version only the mapped cells:
        # V1: jones@2003 (merged); V2: same; V3: bill/paul for 2001+2002.
        assert delta.stored_cells() == {"tcm": 10, "V1": 1, "V2": 1, "V3": 4}

    def test_savings_track_churn_rate(self):
        """Delta storage pays per *change*: a slowly-evolving dimension
        saves more than a heavily-churning one of the same size."""
        low = generate_workload(
            WorkloadConfig(
                seed=3, n_years=5, n_departments=20,
                splits_per_year=1, merges_per_year=0,
                reclassifications_per_year=0,
            )
        )
        high = generate_workload(
            WorkloadConfig(
                seed=3, n_years=5, n_departments=20,
                splits_per_year=3, merges_per_year=3,
                reclassifications_per_year=2,
            )
        )
        d_low = DeltaMultiVersionStore(low.schema.multiversion_facts())
        d_high = DeltaMultiVersionStore(high.schema.multiversion_facts())
        assert d_low.savings_ratio() > d_high.savings_ratio()


class TestMetadata:
    def test_member_version_metadata(self, case_study):
        records = member_version_metadata(case_study.schema, ORG)
        jones = [r for r in records if r["mvid"] == "jones"][0]
        assert jones["valid_from_label"] == "01/2001"
        assert jones["valid_to_label"] == "12/2002"
        assert jones["level"] == "Department"

    def test_member_history_tracks_reclassification(self, case_study):
        history = member_history(case_study.schema, ORG, "Dpt.Smith")
        assert len(history) == 1
        parents = history[0]["parents"]
        assert {p["parent"] for p in parents} == {"Sales", "R&D"}

    def test_describe_evolutions_for_jones(self, case_study):
        sentences = describe_evolutions(
            case_study.schema, case_study.manager.journal, "jones"
        )
        assert any("excluded" in s for s in sentences)
        assert any("mapped onto 'bill'" in s for s in sentences)

    def test_describe_evolutions_for_created_member(self, case_study):
        sentences = describe_evolutions(
            case_study.schema, case_study.manager.journal, "bill"
        )
        assert any(s.startswith("created at 01/2003") for s in sentences)
        assert any("mapped from 'jones'" in s for s in sentences)

    def test_describe_reclassification(self, case_study):
        sentences = describe_evolutions(
            case_study.schema, case_study.manager.journal, "smith"
        )
        assert any("reclassified at 01/2002" in s for s in sentences)


class TestRelationalConceptualParity:
    """The star-schema path must agree with the conceptual engine on
    random workloads (single-parent hierarchies: merges disabled, since a
    multi-parent star row concatenates labels while the engine multi-counts)."""

    def test_query_level_totals_matches_engine(self):
        from repro.core import LevelGroup, Query, QueryEngine, TimeGroup, YEAR

        for seed in (3, 17, 202):
            wl = generate_workload(
                WorkloadConfig(
                    seed=seed, n_years=3, n_departments=8, merges_per_year=0
                )
            )
            mvft = wl.schema.multiversion_facts()
            mvdw = MultiVersionDataWarehouse.build(mvft)
            engine = QueryEngine(mvft)
            for mode in mvft.modes.labels:
                relational = {
                    (str(r["year"]), r["label"]): r["total"]
                    for r in mvdw.query_level_totals(mode, "org", "Division", "amount")
                }
                conceptual = {
                    group: cells["amount"]
                    for group, cells in engine.execute(
                        Query(
                            mode=mode,
                            group_by=(TimeGroup(YEAR), LevelGroup("org", "Division")),
                        )
                    ).as_dict().items()
                }
                for key, total in relational.items():
                    assert conceptual[key] == pytest.approx(total), (seed, mode, key)


class TestSnowflakeQueryPath:
    def test_layouts_validation(self, mvft):
        with pytest.raises(Exception):
            MultiVersionDataWarehouse.build(mvft, layouts=("pyramid",))

    def test_snowflake_requires_materialization(self, mvdw):
        from repro.core import ModelError

        with pytest.raises(ModelError):
            mvdw.query_level_totals_snowflake("tcm", ORG, "Division", "amount")

    def test_snowflake_matches_star_on_case_study(self, mvft):
        dw = MultiVersionDataWarehouse.build(mvft, layouts=("star", "snowflake"))
        for mode in ("tcm", "V1", "V2", "V3"):
            star = {
                (r["year"], r["label"]): (r["total"], r["confidence"])
                for r in dw.query_level_totals(mode, ORG, "Division", "amount")
            }
            snowflake = {
                (r["year"], r["label"]): (r["total"], r["confidence"])
                for r in dw.query_level_totals_snowflake(
                    mode, ORG, "Division", "amount"
                )
            }
            assert star == snowflake, mode

    def test_snowflake_handles_multiple_hierarchies(self):
        """A leaf under two units: the star concatenates ('U1 | U2'); the
        snowflake contributes to both — matching the conceptual engine."""
        from repro.core import (
            Interval,
            LevelGroup,
            Measure,
            MemberVersion,
            Query,
            QueryEngine,
            SUM,
            TemporalDimension,
            TemporalRelationship,
            TemporalMultidimensionalSchema,
        )

        d = TemporalDimension("org")
        d.add_member(MemberVersion("u1", "Unit-1", Interval(0), level="Unit"))
        d.add_member(MemberVersion("u2", "Unit-2", Interval(0), level="Unit"))
        d.add_member(MemberVersion("lab", "Lab", Interval(0), level="Team"))
        d.add_relationship(TemporalRelationship("lab", "u1", Interval(0)))
        d.add_relationship(TemporalRelationship("lab", "u2", Interval(0)))
        schema = TemporalMultidimensionalSchema([d], [Measure("amount", SUM)])
        schema.add_fact({"org": "lab"}, 5, amount=12.0)
        mvft = schema.multiversion_facts()
        dw = MultiVersionDataWarehouse.build(mvft, layouts=("star", "snowflake"))

        snowflake = {
            r["label"]: r["total"]
            for r in dw.query_level_totals_snowflake("tcm", "org", "Unit", "amount")
        }
        assert snowflake == {"Unit-1": 12.0, "Unit-2": 12.0}
        engine = QueryEngine(mvft)
        conceptual = engine.execute(
            Query(group_by=(LevelGroup("org", "Unit"),))
        ).as_dict()
        assert conceptual[("Unit-1",)]["amount"] == 12.0
        assert conceptual[("Unit-2",)]["amount"] == 12.0
        # the star cannot: it concatenates the two ancestors into one label
        star = {
            r["label"]: r["total"]
            for r in dw.query_level_totals("tcm", "org", "Unit", "amount")
        }
        assert star == {"Unit-1 | Unit-2": 12.0}
