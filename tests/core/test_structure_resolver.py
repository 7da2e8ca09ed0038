"""The one resolver of a mode's hierarchy.

Structure versions are the maximal spans over which the structure does
not change (§3.1), so the hierarchy ``tcm`` shows at ``t``, ``D(t)``, is
the structure of the version that contains ``t``.  The engine and
:class:`DataAggregator` read it through
:meth:`ModeSet.version_at` and the version's memoized
:meth:`StructureVersion.snapshot` / :meth:`StructureVersion.level_labels`.

* **§3.1 equivalence** — over seeded histories (mid-history Insert /
  Exclude / Reclassify, splits and merges, two dimensions, gaps),
  ``dim.at(t)`` equals the covering version's snapshot, members and
  relationships in order, and an instant no version covers has an
  empty ``D(t)``.
* **Cold-read counts** — a cold read calls ``DimensionSnapshot.levels``
  at most once per (version, dimension, level), and a second engine on
  the same table calls it not at all.
* **Concurrent first readers** — racing cold reads give the serial
  answer and keep the serial maps.
* **Aggregator parity** — ``DataAggregator.value`` equals a reference
  that walks ``D(t)`` of the live dimension per cell.
"""

import sys
import threading

import pytest

from repro.core import (
    DataAggregator,
    LevelGroup,
    MultiVersionFactTable,
    Query,
    QueryEngine,
    QueryError,
    TimeGroup,
    YEAR,
)
from repro.core.dimension import DimensionSnapshot
from repro.core.presentation import build_modes
from repro.core.versions import infer_structure_versions
from repro.workloads.case_study import build_case_study
from repro.workloads.generator import WorkloadConfig, generate_workload

from tests.core.test_structure_sweep import GENERATED


def probe_instants(schema):
    """Every fact time, every critical instant and the instant before it,
    and one instant past the end of history."""
    points = set(schema.critical_instants())
    points |= {t - 1 for t in points}
    points |= {row.t for row in schema.facts}
    return sorted(points | {max(points, default=0) + 1000})


def assert_tcm_reads_the_covering_version(schema):
    modes = build_modes(infer_structure_versions(schema))
    for t in probe_instants(schema):
        version = modes.version_at(modes.tcm, t)
        for did, dim in schema.dimensions.items():
            expected = dim.at(t)
            if version is None:
                assert not expected.members and not expected.relationships, t
                continue
            actual = version.snapshot(did)
            assert list(actual.members.items()) == list(expected.members.items()), (did, t)
            assert actual.relationships == expected.relationships, (did, t)


class TestTcmReadsTheCoveringVersion:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", sorted(GENERATED))
    def test_seeded_histories(self, kind, seed):
        assert_tcm_reads_the_covering_version(GENERATED[kind](seed))

    @pytest.mark.parametrize("n_departments", [100, 400])
    def test_generator_at_bench_scale(self, n_departments):
        schema = generate_workload(
            WorkloadConfig(seed=1, n_departments=n_departments, n_years=10)
        ).schema
        assert_tcm_reads_the_covering_version(schema)

    def test_uncovered_instant_reads_empty(self):
        schema = GENERATED["gaps_closed"](1)
        modes = build_modes(infer_structure_versions(schema))
        assert modes.version_at(modes.tcm, 12) is None
        assert modes.version_at(modes.version_modes[0], 12) is modes.version_modes[0].version
        with pytest.raises(QueryError, match="no structure version covers instant 12"):
            modes.mode_for_instant(12)

    def test_snapshot_and_labels_are_built_once(self):
        version = build_case_study().schema.structure_versions()[0]
        assert version.snapshot("org") is version.snapshot("org")
        assert version.level_labels("org", "Division") is version.level_labels(
            "org", "Division"
        )
        assert version.level_labels("org", "Team") == {}


@pytest.fixture(scope="module")
def schema_400():
    return generate_workload(
        WorkloadConfig(seed=1, n_departments=400, n_years=10)
    ).schema


@pytest.fixture()
def levels_calls(monkeypatch):
    calls = []
    real = DimensionSnapshot.levels

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(DimensionSnapshot, "levels", counting)
    return calls


class TestColdReadCounts:
    """The parent walked ``levels()`` once per (leaf, t): 4,000 calls for
    the ``tcm`` read below."""

    QUERY = Query(group_by=(TimeGroup(YEAR), LevelGroup("org", "Division")))

    def test_cold_tcm_read(self, schema_400, levels_calls):
        mvft = MultiVersionFactTable.build(schema_400)
        versions = len(mvft.modes.version_modes)
        QueryEngine(mvft).execute(self.QUERY)
        assert 0 < len(levels_calls) <= versions  # one dimension, one level
        levels_calls.clear()
        QueryEngine(mvft).execute(self.QUERY)
        assert levels_calls == []

    def test_cold_version_read(self, schema_400, levels_calls):
        mvft = MultiVersionFactTable.build(schema_400)
        QueryEngine(mvft).execute(self.QUERY.with_mode("V1"))
        assert len(levels_calls) == 1
        levels_calls.clear()
        QueryEngine(mvft).execute(self.QUERY.with_mode("V1"))
        assert levels_calls == []

    def test_unknown_level_still_lists_the_available_ones(self, schema_400):
        mvft = MultiVersionFactTable.build(schema_400)
        with pytest.raises(QueryError, match=r"has no level 'Team' in mode 'tcm' "
                           r"\(available: \['Department', 'Division'\]\)"):
            QueryEngine(mvft).execute(
                Query(group_by=(LevelGroup("org", "Team"),))
            )


class TestConcurrentFirstReaders:
    def test_racing_cold_reads_agree_with_a_serial_read(self):
        """Eight threads race to resolve a fresh table's versions with a
        tiny switch interval.  A reader may build a map another already
        built; every answer and every kept map must still be the serial
        one."""
        schema = generate_workload(WorkloadConfig(seed=3, n_departments=40)).schema
        query = Query(group_by=(TimeGroup(YEAR), LevelGroup("org", "Division")))
        expected = QueryEngine(MultiVersionFactTable.build(schema)).execute(query).as_dict()
        mvft = MultiVersionFactTable.build(schema)
        answers, errors = [], []
        barrier = threading.Barrier(8)

        def read():
            try:
                barrier.wait(timeout=10)
                answers.append(QueryEngine(mvft).execute(query).as_dict())
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers == [expected] * 8
        fresh = infer_structure_versions(schema)
        for version, reference in zip(mvft.modes.version_modes, fresh):
            assert version.version.level_labels("org", "Division") == (
                reference.level_labels("org", "Division")
            )


def reference_value(mvft, mode_label, coords, t, measure, memo=None):
    """Definition 12 over ``D(t)`` of the live dimension in ``tcm`` and the
    version's restriction at its start otherwise, walked per cell."""
    memo = {} if memo is None else memo
    key = (tuple(sorted(coords.items())), t, measure)
    if key in memo:
        return memo[key]
    mode = mvft.modes.mode(mode_label)
    schema = mvft.schema
    expand, children = None, []
    for did, mvid in coords.items():
        if mode.is_tcm:
            snap = schema.dimension(did).at(t)
        else:
            snap = mode.version.dimension(did).at(mode.version.valid_time.start)
        if mvid not in snap:
            memo[key] = (None, None)
            return memo[key]
        if snap.children(mvid):
            expand, children = did, snap.children(mvid)
            break
    if expand is None:
        cell = mvft.measure_at(coords, t, mode_label, measure)
        memo[key] = (None, None) if cell is None else cell
        return memo[key]
    values, confidences = [], []
    for child in children:
        v, cf = reference_value(mvft, mode_label, {**coords, expand: child}, t, measure, memo)
        if cf is not None:
            values.append(v)
            confidences.append(cf)
    memo[key] = (None, None) if not confidences else (
        schema.measure(measure).aggregate.combine_all(values),
        schema.cf_aggregator.combine_all(confidences),
    )
    return memo[key]


def assert_aggregator_parity(schema):
    mvft = MultiVersionFactTable.build(schema)
    aggregator = DataAggregator(mvft)
    (did,) = schema.dimension_ids
    members = sorted(schema.dimension(did).members)
    for mode in mvft.modes.labels:
        for t in probe_instants(schema):
            memo = {}
            for mvid in members:
                for measure in schema.measure_names:
                    expected = reference_value(mvft, mode, {did: mvid}, t, measure, memo)
                    actual = aggregator.value(mode, {did: mvid}, t, measure)
                    assert repr(actual) == repr(expected), (mode, mvid, t, measure)


class TestAggregatorParity:
    def test_case_study(self):
        assert_aggregator_parity(build_case_study().schema)

    def test_generator(self):
        assert_aggregator_parity(
            generate_workload(WorkloadConfig(seed=5, n_departments=12)).schema
        )
