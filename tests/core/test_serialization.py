"""Tests for TMD schema JSON serialization."""

import json

import pytest

from repro.core import (
    AVG,
    CallableMapping,
    Interval,
    MappingRelationship,
    Measure,
    MeasureMap,
    MemberVersion,
    SUM,
    SerializationError,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    TruthTableAggregator,
    load_schema,
    save_schema,
    schema_from_dict,
    schema_to_dict,
)
from repro.core.confidence import AM
from repro.workloads.case_study import build_case_study, organization_table


class TestRoundtrip:
    def test_case_study_roundtrips(self, tmp_path, case_study):
        path = tmp_path / "schema.json"
        save_schema(case_study.schema, path)
        loaded = load_schema(path)
        assert len(loaded.facts) == len(case_study.schema.facts)
        assert len(loaded.mappings) == len(case_study.schema.mappings)
        assert loaded.measure_names == case_study.schema.measure_names

    def test_roundtrip_preserves_query_results(self, tmp_path, case_study, engine):
        from repro.core import Query, QueryEngine, TimeGroup, LevelGroup, YEAR

        path = tmp_path / "schema.json"
        save_schema(case_study.schema, path)
        loaded_engine = QueryEngine(load_schema(path).multiversion_facts())
        q = Query(group_by=(TimeGroup(YEAR), LevelGroup("org", "Department")))
        for mode in ("tcm", "V1", "V2", "V3"):
            assert (
                loaded_engine.execute(q.with_mode(mode)).as_dict()
                == engine.execute(q.with_mode(mode)).as_dict()
            )

    def test_roundtrip_preserves_attributes_and_levels(self, tmp_path):
        d = TemporalDimension("org")
        d.add_member(
            MemberVersion(
                "a", "A", Interval(0, 9),
                attributes={"size": "small", "city": "Lyon"},
                level="Department",
            )
        )
        schema = TemporalMultidimensionalSchema([d], [Measure("amount", SUM)])
        path = tmp_path / "s.json"
        save_schema(schema, path)
        mv = load_schema(path).dimension("org").member("a")
        assert dict(mv.attributes) == {"size": "small", "city": "Lyon"}
        assert mv.level == "Department"
        assert mv.valid_time == Interval(0, 9)

    def test_roundtrip_preserves_now_endpoints(self, tmp_path, case_study):
        path = tmp_path / "s.json"
        save_schema(case_study.schema, path)
        loaded = load_schema(path)
        assert loaded.dimension("org").member("bill").valid_time.open_ended

    def test_roundtrip_preserves_dimension_snapshots(self, tmp_path, case_study):
        from repro.workloads.case_study import CaseStudy

        path = tmp_path / "s.json"
        save_schema(case_study.schema, path)
        loaded = CaseStudy(schema=load_schema(path), manager=case_study.manager)
        for year in (2001, 2002, 2003):
            assert organization_table(loaded, year) == organization_table(
                case_study, year
            )

    def test_unknown_mappings_roundtrip(self, tmp_path):
        from repro.core import EvolutionManager, TemporalRelationship, UK

        d = TemporalDimension("org")
        d.add_member(MemberVersion("p", "P", Interval(0), level="Division"))
        for mvid in ("x", "y"):
            d.add_member(
                MemberVersion(mvid, mvid.upper(), Interval(0), level="Department")
            )
            d.add_relationship(TemporalRelationship(mvid, "p", Interval(0)))
        schema = TemporalMultidimensionalSchema([d], [Measure("amount", SUM)])
        EvolutionManager(schema).merge_members(
            "org", ["x", "y"], "xy", "XY", 10, reverse_shares={"x": 0.5, "y": None}
        )
        path = tmp_path / "s.json"
        save_schema(schema, path)
        loaded = load_schema(path)
        rel = [r for r in loaded.mappings if r.source == "y"][0]
        mm = rel.measure_map("amount", direction="reverse")
        assert mm.confidence is UK and mm.apply(1.0) is None


class TestLimits:
    def test_callable_mapping_rejected(self, case_study):
        schema = build_case_study().schema
        schema.mappings.add(
            MappingRelationship(
                "smith", "brian",
                forward={
                    "amount": MeasureMap(CallableMapping(lambda x: x + 1), AM)
                },
            )
        )
        with pytest.raises(SerializationError):
            schema_to_dict(schema)

    def test_custom_cf_aggregator_rejected(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0)))
        schema = TemporalMultidimensionalSchema(
            [d], [Measure("m", SUM)], cf_aggregator=TruthTableAggregator()
        )
        with pytest.raises(SerializationError):
            schema_to_dict(schema)

    def test_avg_measure_serializes(self, tmp_path):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0)))
        schema = TemporalMultidimensionalSchema([d], [Measure("mean", AVG)])
        path = tmp_path / "s.json"
        save_schema(schema, path)
        assert load_schema(path).measure("mean").aggregate is AVG

    def test_bad_format_version_rejected(self):
        with pytest.raises(SerializationError):
            schema_from_dict({"format": 99})

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_schema(path)

    def test_loaded_schema_is_validated(self, tmp_path, case_study):
        """Tampering with the file surfaces as a model error on load."""
        path = tmp_path / "s.json"
        save_schema(case_study.schema, path)
        payload = json.loads(path.read_text())
        payload["facts"].append(
            {"coordinates": {"org": "jones"}, "t": 10**6, "values": {"amount": 1.0}}
        )
        path.write_text(json.dumps(payload))
        with pytest.raises(Exception):
            load_schema(path)


class TestPinnedBytes:
    """``schema_to_dict`` is hashed by snapshot fingerprints and by the
    layer benchmark's input fingerprint, so its bytes must not drift."""

    def test_400_department_generator_schema(self):
        import hashlib

        from repro.workloads.generator import WorkloadConfig, generate_workload

        schema = generate_workload(
            WorkloadConfig(seed=1, n_departments=400, n_years=10, start_year=2000)
        ).schema
        blob = json.dumps(schema_to_dict(schema), separators=(",", ":")).encode()
        assert len(blob) == 369029
        assert hashlib.sha256(blob).hexdigest() == (
            "adf8b8fc7c27852f54d0b6d4277ca24f47a986330c0031f58ab93099a9944f3d"
        )
