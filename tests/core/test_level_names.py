"""``StructureVersion.level_names`` against the snapshot it stands in for.

Level names are read off a restriction's members when every member
carries an explicit ``level`` (Definition 4), without building the
``D(t)`` snapshot.  On seeded generator histories they must equal the
snapshot's levels exactly, in the same first-seen order, and every
surface that lists them (``SHOW LEVELS``, the RLS and MVQL errors and
the cube's axes) must list what the snapshot loop listed.
"""

import re
from dataclasses import replace

import pytest

from repro.core import (
    MultiVersionFactTable,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    ym,
)
from repro.core.versions import levels_across
from repro.mvql import MVQLCompileError, MVQLSession
from repro.olap import Cube, LevelAxis
from repro.server.rls import RLSConfigError, RLSPolicy, RLSRule
from repro.workloads.generator import (
    ORG,
    TwoDimWorkloadConfig,
    WorkloadConfig,
    generate_two_dim_workload,
    generate_workload,
)

SEEDS = range(6)


def evolving_schema(seed):
    """Mid-history Insert, Exclude and Reclassify, plus a level that
    appears above the divisions and later disappears again."""
    workload = generate_workload(
        WorkloadConfig(
            seed=seed,
            n_years=5,
            creations_per_year=1,
            deletions_per_year=1,
            reclassifications_per_year=2,
        )
    )
    schema = workload.schema
    snap = schema.dimension(ORG).at(ym(2002, 1))
    divisions = snap.levels()["Division"]
    workload.manager.create_level(
        ORG,
        {"region-n": "North"},
        ym(2002, 1),
        level="Region",
        children_of={"region-n": divisions[:1]},
    )
    workload.manager.delete_level(ORG, "Region", ym(2004, 1))
    return schema


def without_levels(schema):
    """The same history with every ``level`` field dropped (depth levels)."""
    dims = []
    for did, dim in schema.dimensions.items():
        bare = TemporalDimension(did, dim.name)
        for mv in dim.members.values():
            bare.add_member(replace(mv, level=None))
        for rel in dim.relationships:
            bare.add_relationship(rel)
        dims.append(bare)
    return TemporalMultidimensionalSchema(dims, schema.measures)


def snapshot_levels(version, did):
    return list(version.dimension(did).at(version.valid_time.start).levels())


def snapshot_levels_across(versions, did):
    """The loop every caller ran before ``level_names`` existed."""
    levels = []
    for version in versions:
        for level in snapshot_levels(version, did):
            if level not in levels:
                levels.append(level)
    return levels


def schemas():
    for seed in SEEDS:
        yield f"evolving-{seed}", evolving_schema(seed)
        yield f"depth-{seed}", without_levels(evolving_schema(seed))
        yield f"two-dim-{seed}", generate_two_dim_workload(
            TwoDimWorkloadConfig(seed=seed)
        ).schema


CASES = dict(schemas())


@pytest.mark.parametrize("name", list(CASES))
def test_level_names_equal_the_snapshot_levels(name):
    schema = CASES[name]
    versions = schema.structure_versions()
    assert len(versions) > 1
    for version in versions:
        for did in schema.dimension_ids:
            assert version.level_names(did) == snapshot_levels(version, did)
    for did in schema.dimension_ids:
        assert levels_across(versions, did) == snapshot_levels_across(versions, did)


def test_the_histories_exercise_both_paths():
    evolving = CASES["evolving-0"].structure_versions()
    per_version = [tuple(v.level_names(ORG)) for v in evolving]
    assert ("Division", "Department", "Region") in per_version
    assert ("Division", "Department") in per_version
    depth = CASES["depth-0"].structure_versions()
    assert all(v.level_names(ORG)[0] == "depth-0" for v in depth)


def test_mixed_levels_fall_back_to_depth():
    """A member without a ``level`` inserted mid-history turns the later
    versions' levels into depth levels."""
    workload = generate_workload(WorkloadConfig(seed=1))
    workload.manager.create_member(ORG, "stray", "Stray", ym(2001, 3))
    versions = workload.schema.structure_versions()
    for version in versions:
        assert version.level_names(ORG) == snapshot_levels(version, ORG)
    assert versions[0].level_names(ORG) == ["Division", "Department"]
    assert versions[-1].level_names(ORG)[0] == "depth-0"


def available(message):
    return re.search(r"available: (\[.*?\])", message).group(1)


@pytest.mark.parametrize("name", ["evolving-2", "depth-2"])
def test_surfaces_list_the_snapshot_levels(name):
    schema = CASES[name]
    mvft = MultiVersionFactTable.build(schema)
    versions = [mode.version for mode in mvft.modes.version_modes]
    expected = snapshot_levels_across(versions, ORG)
    session = MVQLSession(mvft)
    assert session.execute(f"SHOW LEVELS {ORG}") == expected
    measure = schema.measure_names[0]
    with pytest.raises(MVQLCompileError) as group_error:
        session.execute(f"SELECT {measure} BY year, {ORG}.Nope")
    assert available(str(group_error.value)) == repr(expected)
    with pytest.raises(MVQLCompileError) as where_error:
        session.execute(f"SELECT {measure} BY year WHERE {ORG}.Nope = 'x'")
    assert available(str(where_error.value)) == repr(expected)
    with pytest.raises(RLSConfigError) as rls_error:
        RLSPolicy([RLSRule(ORG, "Nope", ("x",))]).validate(mvft)
    assert available(str(rls_error.value)) == repr(expected)
    assert Cube(mvft).level_axes() == [
        LevelAxis(did, level)
        for did in schema.dimension_ids
        for level in snapshot_levels(versions[-1], did)
    ]
