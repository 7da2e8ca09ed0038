"""Structure versions from one sweep equal the per-span filter.

:func:`infer_structure_versions` restricts every dimension to every span
in one pass (:meth:`TemporalDimension.restrictions`).  The reference
below is the filter it replaced: for each span, test every member
version and relationship with ``valid_throughout``.  Over seeded
histories — ``Insert`` / ``Exclude`` / ``Reclassify``, splits and merges
mid-history, two dimensions, gaps in which no member is valid, and the
``horizon=`` argument — both must give the same versions: vsids, valid
times, member order and relationship order.
"""

import random

import pytest

from repro.core import (
    NOW,
    Interval,
    Measure,
    MemberVersion,
    ModelError,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    TemporalRelationship,
)
from repro.core.versions import infer_structure_versions
from repro.workloads.generator import (
    TwoDimWorkloadConfig,
    WorkloadConfig,
    generate_two_dim_workload,
    generate_workload,
)


def reference_restrict(dim, interval):
    """The per-span filter: ``(members, relationships)`` of ``dim`` valid
    throughout ``interval``, in the dimension's order."""
    members = {
        mvid: mv for mvid, mv in dim.members.items() if mv.valid_throughout(interval)
    }
    relationships = [
        rel
        for rel in dim.relationships
        if rel.valid_throughout(interval)
        and rel.child in members
        and rel.parent in members
    ]
    return members, relationships


def reference_versions(schema, horizon=None):
    """``[(vsid, valid_time, {did: (member items, relationships)})]``."""
    points = schema.critical_instants()
    has_open = any(
        mv.valid_time.open_ended
        for dim in schema.dimensions.values()
        for mv in dim.members.values()
    )
    spans = []
    for i, start in enumerate(points):
        if i + 1 < len(points):
            spans.append(Interval(start, points[i + 1] - 1))
        elif has_open:
            spans.append(Interval(start, NOW))
        elif horizon is not None and horizon >= start:
            spans.append(Interval(start, horizon))
    out = []
    for span in spans:
        restricted = {
            did: reference_restrict(dim, span)
            for did, dim in schema.dimensions.items()
        }
        if not any(members for members, _ in restricted.values()):
            continue
        out.append((
            f"V{len(out) + 1}",
            span,
            {did: (list(m.items()), rels) for did, (m, rels) in restricted.items()},
        ))
    return out


def swept_versions(schema, horizon=None):
    return [
        (
            version.vsid,
            version.valid_time,
            {
                did: (list(dim.members.items()), dim.relationships)
                for did, dim in version.dimensions.items()
            },
        )
        for version in infer_structure_versions(schema, horizon=horizon)
    ]


def gappy_schema(seed, *, n_dims=2, open_ended=True):
    """Random dimensions whose member versions leave gaps in history.

    Member versions live in one of a few disjoint eras, so no member is
    valid between eras; relationships link a member to a member one level
    up, over a random sub-interval both are valid in."""
    rng = random.Random(seed)
    eras = [(0, 9), (15, 30), (34, 34), (40, 60)]
    dims = []
    for d in range(n_dims):
        dim = TemporalDimension(f"d{d}", f"Dim-{d}")
        by_level = [[], [], []]
        for i in range(rng.randint(16, 30)):
            lo, hi = rng.choice(eras)
            start = rng.randint(lo, hi)
            if open_ended and (lo, hi) == eras[-1] and rng.random() < 0.5:
                end = NOW
            else:
                end = rng.randint(start, hi)
            level = rng.randrange(3)
            mv = MemberVersion(f"m{d}_{i}", f"M{i}", Interval(start, end), level=f"L{level}")
            dim.add_member(mv)
            by_level[level].append(mv)
        for level in (1, 2):
            for child in by_level[level]:
                for parent in by_level[level - 1]:
                    common = child.valid_time.intersect(parent.valid_time)
                    if common is None or rng.random() < 0.2:
                        continue
                    start = rng.randint(common.start, common.start + 3)
                    if not common.contains(start):
                        continue
                    if common.open_ended:
                        end = NOW if rng.random() < 0.5 else start + rng.randint(0, 5)
                    else:
                        end = rng.randint(start, common.end)
                    dim.add_relationship(
                        TemporalRelationship(child.mvid, parent.mvid, Interval(start, end)),
                        check_acyclic=False,
                    )
        dims.append(dim)
    return TemporalMultidimensionalSchema(dims, [Measure("amount")])


GENERATED = {
    "evolving": lambda seed: generate_workload(
        WorkloadConfig(
            seed=seed,
            n_departments=30,
            n_years=6,
            splits_per_year=2,
            merges_per_year=2,
            reclassifications_per_year=2,
            creations_per_year=2,
            deletions_per_year=1,
            transforms_per_year=1,
        )
    ).schema,
    "two_dims": lambda seed: generate_two_dim_workload(
        TwoDimWorkloadConfig(seed=seed, n_years=5)
    ).schema,
    "gaps": lambda seed: gappy_schema(seed),
    "gaps_closed": lambda seed: gappy_schema(seed, open_ended=False),
}


class TestSweepEqualsPerSpanFilter:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", sorted(GENERATED))
    def test_versions_match(self, kind, seed):
        schema = GENERATED[kind](seed)
        assert swept_versions(schema) == reference_versions(schema)

    @pytest.mark.parametrize("horizon", [None, 33, 60, 75])
    @pytest.mark.parametrize("seed", range(4))
    def test_horizon_matches(self, seed, horizon):
        schema = gappy_schema(seed, open_ended=False)
        assert swept_versions(schema, horizon) == reference_versions(schema, horizon)

    def test_gaps_drop_empty_spans(self):
        schema = gappy_schema(1, n_dims=1, open_ended=False)
        spans = [v.valid_time for v in infer_structure_versions(schema)]
        assert spans, "the schema has members"
        for gap in (Interval(10, 14), Interval(31, 33), Interval(35, 39)):
            assert not any(span.overlaps(gap) for span in spans)

    @pytest.mark.parametrize("seed", range(4))
    def test_restrict_is_the_one_span_sweep(self, seed):
        schema = gappy_schema(seed)
        for dim in schema.dimensions.values():
            for interval in (Interval(0, 9), Interval(3, 5), Interval(16, 16),
                             Interval(40), Interval(12, 45)):
                restricted = dim.restrict(interval)
                members, rels = reference_restrict(dim, interval)
                assert list(restricted.members.items()) == list(members.items())
                assert restricted.relationships == rels

    def test_spans_need_not_touch(self):
        dim = gappy_schema(2, n_dims=1).dimension("d0")
        spans = [Interval(1, 2), Interval(16, 20), Interval(41, 50), Interval(55)]
        for restricted, span in zip(dim.restrictions(spans), spans):
            members, rels = reference_restrict(dim, span)
            assert list(restricted.members.items()) == list(members.items())
            assert restricted.relationships == rels


class TestSweepMechanics:
    def test_inference_adds_no_member(self, monkeypatch):
        schema = GENERATED["two_dims"](1)

        def refuse(self, mv):
            raise AssertionError("structure-version inference called add_member")

        monkeypatch.setattr(TemporalDimension, "add_member", refuse)
        assert infer_structure_versions(schema)

    def test_each_restriction_has_its_own_token(self):
        dim = gappy_schema(3, n_dims=1).dimension("d0")
        restricted = dim.restrictions([Interval(0, 9), Interval(15, 30), Interval(40)])
        tokens = {r.version_token for r in restricted}
        assert len(tokens) == 3 and dim.version_token not in tokens

    @pytest.mark.parametrize("spans", [
        [Interval(5, 9), Interval(0, 4)],
        [Interval(0, 5), Interval(5, 9)],
        [Interval(0), Interval(10, 12)],
    ])
    def test_unsorted_or_overlapping_spans_are_refused(self, spans):
        dim = gappy_schema(0, n_dims=1).dimension("d0")
        with pytest.raises(ModelError, match="sorted and disjoint"):
            dim.restrictions(spans)
