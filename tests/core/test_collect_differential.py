"""The column collect against a row-by-row reference, on seeded queries.

``reference_collect`` groups ``slice()`` views one row at a time, the way
the engine grouped row objects before the table became columnar, and
resolves each row's labels with its own walk of ``D(t)`` rather than the
structure versions' memoized maps.  Every
query runs through the engine's one pipeline twice, once with each
collect, and the two :class:`ResultTable`s and every ``explain_cell``
rendering must be identical.
"""

import itertools
import random

import pytest

from repro.core import (
    MONTH,
    QUARTER,
    SUM,
    MAX,
    YEAR,
    AttributeGroup,
    EvolutionManager,
    Interval,
    LevelFilter,
    LevelGroup,
    Measure,
    MemberVersion,
    MultiVersionFactTable,
    Query,
    QueryEngine,
    QueryError,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    TemporalRelationship,
    TimeGroup,
    TruthTableAggregator,
)
from repro.observability import LineageRecorder
from repro.workloads.generator import WorkloadConfig, generate_workload

from tests.core.test_multiversion import golden_fixture
from tests.integration.test_custom_confidence import ES, build_truth_table


def reference_snapshot(engine, mode, did, t):
    """The hierarchy ``mode`` shows along ``did`` at ``t``, walked per
    (leaf, t) without the structure versions' memos: the live dimension's
    ``D(t)`` in ``tcm``, the version's restriction at its start
    otherwise."""
    if mode.is_tcm:
        return engine._mvft.schema.dimension(did).at(t)
    version = mode.version
    return version.dimension(did).at(version.valid_time.start)


def reference_labels(engine, mode, term, leaf, t):
    """The names of ``leaf``'s ancestors-or-self at ``term.level``, by id."""
    snap = reference_snapshot(engine, mode, term.dimension, t)
    if leaf not in snap:
        return (None,)
    level_ids = set(snap.levels().get(term.level, ()))
    if not level_ids:
        raise QueryError(
            f"dimension {term.dimension!r} has no level {term.level!r} in "
            f"mode {mode.label!r} (available: {sorted(snap.levels())})"
        )
    hits = sorted(({leaf} | snap.ancestors(leaf)) & level_ids)
    return tuple(snap.member(mvid).name for mvid in hits) if hits else (None,)


def reference_collect(engine, query):
    """Group ``(value, confidence)`` pairs from row views, row by row."""
    mode, measures = engine.resolve(query)
    lineage = engine.lineage
    groups = {}
    for row in engine._mvft.slice(mode.label):
        if query.time_range is not None and not query.time_range.contains(row.t):
            continue
        if query.coordinate_filter is not None and not query.coordinate_filter(row):
            continue
        if not all(
            any(
                label in flt.values
                for label in reference_labels(
                    engine, mode, LevelGroup(flt.dimension, flt.level),
                    row.coordinates[flt.dimension], row.t,
                )
            )
            for flt in query.level_filters
        ):
            continue
        label_sets = []
        for term in query.group_by:
            if isinstance(term, TimeGroup):
                label_sets.append(
                    (term.granularity.label(term.granularity.bucket(row.t)),)
                )
            elif isinstance(term, AttributeGroup):
                snap = reference_snapshot(engine, mode, term.dimension, row.t)
                leaf = row.coordinates[term.dimension]
                label_sets.append((
                    snap.member(leaf).attributes.get(term.attribute)
                    if leaf in snap else None,
                ))
            else:
                label_sets.append(reference_labels(
                    engine, mode, term, row.coordinates[term.dimension], row.t
                ))
        for combo in itertools.product(*label_sets):
            acc = groups.setdefault(combo, {m: [] for m in measures})
            for m in measures:
                acc[m].append((row.value(m), row.confidence(m)))
            if lineage.enabled:
                lineage.add_contribution(mode.label, combo, row)
    return groups


def _rendered(table):
    return (
        table.columns, table.measures, table.mode, table.to_text(),
        [
            (row.group, [
                (c.measure, repr(c.value), c.confidence and c.confidence.symbol)
                for c in row.cells
            ])
            for row in table.rows
        ],
    )


def _explained(recorder):
    return [
        recorder.explain_cell(group, measure, mode=mode).to_text()
        for mode, group, measure in recorder.cells()
    ]


def assert_same(mvft, query):
    columns = QueryEngine(mvft, lineage=LineageRecorder())
    rows = QueryEngine(mvft, lineage=LineageRecorder())
    expected = rows._execute_uncached(query, lambda q: reference_collect(rows, q))
    actual = columns._execute_uncached(query)
    assert _rendered(actual) == _rendered(expected)
    assert _explained(columns.lineage) == _explained(rows.lineage)
    # Without lineage no row view is built, and the answer is unchanged.
    assert _rendered(QueryEngine(mvft).execute(query)) == _rendered(expected)


def attribute_schema():
    """Members with attributes, a custom ``es`` factor on a merge's back
    shares, and facts mixing ints, floats and unknown (``None``) values."""
    org = TemporalDimension("org")
    org.add_member(MemberVersion("div", "Division", Interval(0), level="Division"))
    for mvid, region in (("a", "north"), ("b", "south"), ("c", None)):
        attributes = {} if region is None else {"region": region}
        org.add_member(MemberVersion(
            mvid, mvid.upper(), Interval(0), attributes=attributes, level="Department",
        ))
        org.add_relationship(TemporalRelationship(mvid, "div", Interval(0)))
    schema = TemporalMultidimensionalSchema(
        [org], [Measure("amount", SUM), Measure("peak", MAX)],
        cf_aggregator=TruthTableAggregator(build_truth_table()),
    )
    EvolutionManager(schema).merge_members(
        "org", ["a", "b"], "ab", "AB", 10,
        reverse_shares={"a": 0.5, "b": 0.5}, confidence=ES,
    )
    for org_id, t, amount, peak in (
        ("a", 3, 10.0, 2), ("b", 3, 20, None), ("c", 4, -0.0, 1.5),
        ("a", 7, 5.5, 3.0), ("ab", 12, 50.0, None), ("c", 14, 7, 7),
        ("ab", 15, None, 4.0),
    ):
        schema.add_fact({"org": org_id}, t, {"amount": amount, "peak": peak})
    return schema


def _toy():
    return generate_workload(WorkloadConfig(seed=5, n_departments=12)).schema


def seeded_queries(mvft, dimension, seed, count=12):
    """Queries over every mode: a grain, Division or Department, and
    sometimes a ``DURING`` window, a ``WHERE`` and a measure subset."""
    rng = random.Random(seed)
    times = sorted({row.t for row in mvft.slice("tcm")})
    divisions = sorted(
        {g[0] for g in QueryEngine(mvft).execute(
            Query(group_by=(LevelGroup(dimension, "Division"),))
        ).as_dict()} - {None}
    )
    measures = mvft.schema.measure_names
    for _ in range(count):
        group_by = []
        if rng.random() < 0.8:
            group_by.append(TimeGroup(rng.choice((YEAR, QUARTER, MONTH))))
        group_by.append(LevelGroup(dimension, rng.choice(("Division", "Department"))))
        rng.shuffle(group_by)
        window = None
        if rng.random() < 0.5:
            start = rng.choice(times)
            window = Interval(start, rng.choice([t for t in times if t >= start]))
        filters = ()
        if rng.random() < 0.5:
            filters = (LevelFilter(dimension, "Division", tuple(
                rng.sample(divisions, rng.randint(1, len(divisions)))
            )),)
        chosen = ()
        if rng.random() < 0.3:
            chosen = tuple(rng.sample(measures, rng.randint(1, len(measures))))
        yield Query(
            mode=rng.choice(mvft.modes.labels), group_by=tuple(group_by),
            measures=chosen, time_range=window, level_filters=filters,
        )


class TestColumnCollectMatchesRowReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_generator_workload(self, seed):
        mvft = MultiVersionFactTable.build(_toy())
        for query in seeded_queries(mvft, "org", seed):
            assert_same(mvft, query)

    @pytest.mark.parametrize("seed", range(2))
    def test_two_dimensions_with_unknown_values(self, seed):
        mvft = MultiVersionFactTable.build(golden_fixture())
        rng = random.Random(seed)
        for query in seeded_queries(mvft, "org", seed, count=8):
            query = Query(
                mode=query.mode,
                group_by=(*query.group_by, LevelGroup("product", "Item"))[
                    rng.randint(0, 1):
                ],
                measures=query.measures, time_range=query.time_range,
                level_filters=query.level_filters,
            )
            assert_same(mvft, query)

    @pytest.mark.parametrize("mode_index", range(3))
    def test_attribute_group_and_custom_confidence(self, mode_index):
        mvft = MultiVersionFactTable.build(attribute_schema())
        mode = mvft.modes.labels[mode_index]
        for group_by in (
            (AttributeGroup("org", "region"),),
            (TimeGroup(YEAR), AttributeGroup("org", "region"),
             LevelGroup("org", "Department")),
            (TimeGroup(MONTH), LevelGroup("org", "Division")),
        ):
            assert_same(mvft, Query(mode=mode, group_by=group_by))

    @pytest.mark.parametrize("mode", ["tcm", "V2"])
    def test_coordinate_filter(self, mode):
        mvft = MultiVersionFactTable.build(_toy())
        kept = sorted({r.coordinates["org"] for r in mvft.slice(mode)})[::2]
        assert_same(mvft, Query(
            mode=mode,
            group_by=(TimeGroup(QUARTER), LevelGroup("org", "Department")),
            time_range=Interval(min(r.t for r in mvft.slice(mode)) + 3, 10**6),
            coordinate_filter=lambda row: row.coordinates["org"] in kept,
        ))
