"""Differential test of the Definition-11 kernel against a fact-major
reference fold: every contribution goes through the per-cell fold and
the cells sort on ``(t, key, key id)``.  Over seeded random schemas, both
must give byte-identical tables, built and derived."""

import math
import random

import pytest

from repro.core import (
    AM,
    AVG,
    COUNT,
    EM,
    MAX,
    MIN,
    SUM,
    CallableMapping,
    IdentityMapping,
    Interval,
    LinearMapping,
    MappingRelationship,
    Measure,
    MeasureMap,
    MemberVersion,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    TemporalRelationship,
)
from repro.core import multiversion
from repro.core.multiversion import MultiVersionFactTable, UnmappedFact, _Kernel
from repro.observability import MetricsRegistry, instrumented

from .test_multiversion import _digest


class ReferenceKernel(_Kernel):
    """The kernel's planning with the fact-major fold it replaced."""

    def group(self, facts):
        return facts

    def fold(self, label, facts, existing):
        measures, parts = self.measures, self.parts
        plans, cells, unmapped = {}, {}, []
        for fact in facts:
            leaves = tuple(fact.coordinate(d) for d in self.dimension_ids)
            plan = plans.get(leaves)
            if plan is None:
                plan = plans[leaves] = self.plan(fact, label)
            if isinstance(plan, str):
                unmapped.append(UnmappedFact(fact, label, plan, fact.coordinate(plan)))
                continue
            for landing in plan:
                converted = []
                for m, chain in zip(measures, landing.chains):
                    value = fact.values.get(m)
                    for apply in chain:
                        value = apply(value)
                    converted.append(value)
                provenance = landing.provenance
                if fact.source is not None:
                    provenance = parts.provenance_id(
                        (f"{landing.entry} [from {fact.source}]",)
                    )
                cells.setdefault((fact.t, landing.key, landing.key_id), []).append(
                    (landing.confidences, tuple(converted), provenance)
                )
        if not cells:
            return existing, unmapped
        aggregator, factors = self.schema.cf_aggregator, parts.confidences
        rows = []
        for t, key, key_id in sorted(cells):
            contributions = cells[(t, key, key_id)]
            at, found = existing.find(t, key, parts.keys) if existing else (0, False)
            if found:
                contributions.insert(0, (
                    existing.confidences[at],
                    [column[at] for column in existing.values],
                    existing.provenance[at],
                ))
            if len(contributions) == 1:
                confidences, _, provenance = contributions[0]
            else:
                confidences = parts.confidence_id(tuple(
                    aggregator.combine_all([factors[c[0]][i] for c in contributions])
                    for i in range(len(measures))
                ))
                provenance = parts.provenance_id(tuple(
                    entry for c in contributions for entry in parts.provenance[c[2]]
                ))
            columns = zip(*(c[1] for c in contributions))
            values = [agg.combine_all(col) for agg, col in zip(self.aggregates, columns)]
            rows.append((key_id, t, *values, confidences, provenance))
        return existing.spliced([list(column) for column in zip(*rows)], parts), unmapped


VALUES = (lambda r: r.randint(-5, 50), lambda r: round(r.uniform(-10, 90), 2),
          lambda r: -0.0, lambda r: math.nan, lambda r: None, lambda r: 0)
PERIODS = (0, 10, 20)  # each period's first chronon; the last is open


def _dimension(rng, name, measures):
    """A dimension whose leaves (but the first) evolve at each period
    boundary by staying, splitting, merging, being transformed or being
    deleted (no mapping); returns it, its mapping relationships and each
    leaf's first and last chronon."""
    members = {f"{name}{i}": 0 for i in range(rng.randint(2, 5))}  # id -> start
    ends, mappings = {}, []
    fresh = iter(range(1000))

    def maps(kind):
        picked = [m for m in measures if rng.random() < 0.85]  # the rest: unknown
        if kind == "callable":
            fn = CallableMapping(lambda v: v - 1, "x -> x-1")
            return {m: MeasureMap(fn, EM) for m in picked}
        if kind == "share":
            share = rng.choice((0.25, 0.5, 0.75))
            return {m: MeasureMap(LinearMapping(share), AM) for m in picked}
        return {m: MeasureMap(IdentityMapping(), EM) for m in picked}

    for boundary in PERIODS[1:]:
        alive = [m for m in members if m not in ends and m != f"{name}0"]  # one stays
        rng.shuffle(alive)
        while alive:
            op = rng.choice(("stay", "stay", "split", "merge", "transform", "delete"))
            source = alive.pop()
            if op == "stay":
                continue
            ends[source] = boundary - 1
            if op == "delete":
                continue
            sources = [source]
            if op == "merge" and alive:
                ends[alive[-1]] = boundary - 1
                sources.append(alive.pop())
            targets = [f"{name}n{next(fresh)}" for _ in range(2 if op == "split" else 1)]
            for target in targets:
                members[target] = boundary
                for src in sources:
                    mappings.append(MappingRelationship(
                        src, target,
                        forward=maps("share" if op == "split" else "identity"),
                        reverse=maps("callable" if op == "transform" else "identity"),
                    ))
    dimension = TemporalDimension(name)
    dimension.add_member(MemberVersion(f"{name}_all", "All", Interval(0), level="All"))
    for mvid, start in members.items():
        valid = Interval(start, ends[mvid]) if mvid in ends else Interval(start)
        dimension.add_member(MemberVersion(mvid, mvid.upper(), valid, level="Leaf"))
        dimension.add_relationship(TemporalRelationship(mvid, f"{name}_all", valid))
    return dimension, mappings, members, ends


def random_schema(seed, aggregates=(SUM, MIN, MAX, COUNT, AVG), n_facts=40):
    """A random schema with one or two dimensions, a measure per aggregate
    in a random order, and facts mixing ints, floats, ``-0.0``, ``nan``,
    ``None``, ETL sources and repeated ``(leaves, t)``."""
    rng = random.Random(seed)
    aggregates = list(aggregates)
    rng.shuffle(aggregates)
    measures = [f"m{i}" for i in range(len(aggregates))]
    names = ("org", "product")[:rng.randint(1, 2)]
    built = [_dimension(rng, name, measures) for name in names]
    schema = TemporalMultidimensionalSchema(
        [dimension for dimension, *_ in built],
        [Measure(m, agg) for m, agg in zip(measures, aggregates)],
    )
    for _, mappings, _, _ in built:
        for mapping in mappings:
            schema.add_mapping(mapping)
    facts = []
    for i in range(n_facts):
        if facts and rng.random() < 0.15:
            coordinates, t = rng.choice(facts)  # a second fact on one cell
        else:
            t = rng.randrange(PERIODS[-1] + 10)
            coordinates = {
                dimension.did: rng.choice([
                    m for m, start in members.items()
                    if start <= t and ends.get(m, t) >= t
                ])
                for dimension, _, members, ends in built
            }
        facts.append((coordinates, t))
        values = {m: rng.choice(VALUES)(rng) for m in measures}
        source = f"erp#{i}" if rng.random() < 0.3 else None
        schema.add_fact(coordinates, t, values, source=source)
    return schema


@pytest.fixture
def reference(monkeypatch):
    """Build a table with the reference fold instead of the kernel's,
    every mode filled while the reference is in place."""

    def build(make):
        with monkeypatch.context() as patch:
            patch.setattr(multiversion, "_Kernel", ReferenceKernel)
            table = make()
            table.unmapped  # fills every mode
            return table

    return build


SEEDS = range(30)


class TestKernelEqualsReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_build(self, seed, reference):
        schema = random_schema(seed)
        table = MultiVersionFactTable.build(schema)
        expected = reference(lambda: MultiVersionFactTable.build(schema))
        assert _digest(table) == _digest(expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derived(self, seed, reference):
        full = random_schema(seed, aggregates=(SUM, MIN, MAX, SUM), n_facts=0)
        rows = list(random_schema(seed, aggregates=(SUM, MIN, MAX, SUM)).facts)
        prefix = random.Random(seed).randrange(len(rows) + 1)
        for fact in rows[:prefix]:
            full.add_fact(fact.coordinates, fact.t, dict(fact.values), source=fact.source)
        table = MultiVersionFactTable.build(full)
        table.unmapped  # fills every mode, so the derive folds into each
        expected = reference(lambda: MultiVersionFactTable.build(full))
        for fact in rows[prefix:]:
            full.add_fact(fact.coordinates, fact.t, dict(fact.values), source=fact.source)
        with instrumented(metrics=MetricsRegistry()) as (_, metrics):
            derived = table.refreshed()
        assert metrics.snapshot()["counters"] == {'mvft.builds{kind="derived"}': 1}
        assert _digest(derived) == _digest(reference(expected.refreshed))
        assert _digest(derived) == _digest(MultiVersionFactTable.build(full))

    def test_schemas_cover_the_cases(self):
        """The seeds hit every case the kernel distinguishes."""
        seen = set()
        for seed in SEEDS:
            schema = random_schema(seed)
            facts = list(schema.facts)
            if len(schema.dimensions) == 2:
                seen.add("two dimensions")
            cells = [(tuple(sorted(f.coordinates.items())), f.t) for f in facts]
            if len(set(cells)) < len(cells):
                seen.add("two facts on one cell")
            if any(f.source for f in facts):
                seen.add("sources")
            for value in (v for f in facts for v in f.values.values()):
                if value is None:
                    seen.add("None")
                elif isinstance(value, int):
                    seen.add("int")
                elif math.isnan(value):
                    seen.add("nan")
                elif value == 0 and math.copysign(1, value) < 0:
                    seen.add("-0.0")
            with instrumented() as (tracer, _):
                table = MultiVersionFactTable.build(schema)
                unmapped = table.unmapped  # fills every mode
            fills = [
                span.attributes for span in tracer.find("mvft.build")
                if span.attributes["kind"] == "mode"
            ]
            assert len(fills) == len(table.modes.version_modes)
            if sum(fill["cells_blocked"] for fill in fills):
                seen.add("blocks")
            if sum(fill["cells_folded"] for fill in fills):
                seen.add("shared cells")
            if unmapped:
                seen.add("unmapped")
            provenance = " ".join(p for row in table.rows() for p in row.provenance)
            for text in ("x -> 0.", "x -> x-1", "x -> ?"):
                if text in provenance:
                    seen.add(text)
        assert seen == {
            "two dimensions", "two facts on one cell", "sources", "None", "int",
            "nan", "-0.0", "blocks", "shared cells", "unmapped",
            "x -> 0.", "x -> x-1", "x -> ?",
        }
