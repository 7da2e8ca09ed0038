"""Which reading of Definition 12 each surface computes.

Definition 12 defines a non-leaf member's value by folding its
*children's* values with ``⊕``, recursively down to the leaf cells.
:class:`DataAggregator` computes exactly that.  :class:`QueryEngine`
groups leaf cells by their ancestor at the requested level and folds the
leaves once.  For min and max the two agree, and for sum up to float
rounding order.  For avg and count they differ once a hierarchy has
three levels; the three-level hierarchy below pins both answers.
"""

import pytest

from repro.core import (
    AVG,
    COUNT,
    DataAggregator,
    Interval,
    LevelGroup,
    Measure,
    MemberVersion,
    MultiVersionFactTable,
    Query,
    QueryEngine,
    SUM,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    TemporalRelationship,
)

T = 5


@pytest.fixture(scope="module")
def mvft():
    """Division ``div`` over departments ``a`` (teams ``a1``, ``a2``) and
    ``b`` (team ``b1``); one fact per team at ``T``: 1, 3 and 10."""
    org = TemporalDimension("org")
    org.add_member(MemberVersion("div", "Div", Interval(0), level="Division"))
    for dept, teams in (("a", ("a1", "a2")), ("b", ("b1",))):
        org.add_member(MemberVersion(dept, dept.upper(), Interval(0), level="Department"))
        org.add_relationship(TemporalRelationship(dept, "div", Interval(0)))
        for team in teams:
            org.add_member(MemberVersion(team, team.upper(), Interval(0), level="Team"))
            org.add_relationship(TemporalRelationship(team, dept, Interval(0)))
    schema = TemporalMultidimensionalSchema(
        [org],
        [Measure("mean", AVG), Measure("n", COUNT), Measure("total", SUM)],
    )
    for team, value in (("a1", 1.0), ("a2", 3.0), ("b1", 10.0)):
        schema.add_fact({"org": team}, T, {"mean": value, "n": value, "total": value})
    return MultiVersionFactTable.build(schema)


@pytest.mark.parametrize("mode", ["tcm", "V1"])
class TestDefinition12:
    def test_aggregator_folds_the_childrens_aggregates(self, mvft, mode):
        aggregator = DataAggregator(mvft)
        value = lambda measure: aggregator.value(mode, {"org": "div"}, T, measure)[0]
        assert value("mean") == 6.0  # avg(avg(1, 3), avg(10))
        assert value("n") == 2.0  # count(count(a1, a2), count(b1)): two children
        assert value("total") == 14.0

    def test_engine_folds_the_leaves_once(self, mvft, mode):
        table = QueryEngine(mvft).execute(
            Query(mode=mode, group_by=(LevelGroup("org", "Division"),))
        )
        assert table.as_dict() == {("Div",): {"mean": 14.0 / 3, "n": 3.0, "total": 14.0}}
