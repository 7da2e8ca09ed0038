"""Unit tests for measures, aggregates and the consistent fact table."""

import math

import pytest

from repro.core import (
    AVG,
    COUNT,
    AggregateFunction,
    FactError,
    MAX,
    MIN,
    Measure,
    SUM,
    TemporallyConsistentFactTable,
)


class _Median(AggregateFunction):
    """A custom aggregate that keeps the default ``combine_each``."""

    name = "median"

    def fold(self, values):
        ordered = sorted(values)
        return ordered[len(ordered) // 2] * 1.0


class TestAggregates:
    def test_sum(self):
        assert SUM.combine_all([1.0, 2.0, 3.0]) == 6.0

    def test_min_max(self):
        assert MIN.combine_all([3.0, 1.0, 2.0]) == 1.0
        assert MAX.combine_all([3.0, 1.0, 2.0]) == 3.0

    def test_count(self):
        assert COUNT.combine_all([5.0, 6.0]) == 2.0

    def test_avg(self):
        assert AVG.combine_all([2.0, 4.0]) == 3.0

    def test_unknowns_skipped(self):
        assert SUM.combine_all([1.0, None, 2.0]) == 3.0
        assert COUNT.combine_all([1.0, None]) == 1.0

    def test_all_unknown_is_unknown(self):
        assert SUM.combine_all([None, None]) is None
        assert SUM.combine_all([]) is None


class TestCombineEach:
    """``combine_each`` folds each value on its own, exactly as
    ``combine_all((v,))`` does: sum adds it to ``0`` (``-0.0`` becomes
    ``0.0``), count gives ``1.0``, avg a float."""

    VALUES = [3, 2.5, -0.0, math.nan, math.inf, -math.inf, None, 0, -7]

    @pytest.mark.parametrize("aggregate", [SUM, MIN, MAX, COUNT, AVG, _Median()],
                             ids=lambda a: a.name)
    @pytest.mark.parametrize("values", [VALUES, [v for v in VALUES if v is not None],
                                        [None, None], []], ids=["mixed", "known",
                                                                "unknown", "empty"])
    def test_equals_combine_all_of_each_value(self, aggregate, values):
        expected = [aggregate.combine_all((v,)) for v in values]
        got = aggregate.combine_each(values)
        assert type(got) is list
        assert list(map(repr, got)) == list(map(repr, expected))
        assert list(map(type, got)) == list(map(type, expected))

    def test_sum_turns_negative_zero_into_zero(self):
        assert repr(SUM.combine_each([-0.0])) == "[0.0]"
        assert repr(MIN.combine_each([-0.0])) == "[-0.0]"
        assert COUNT.combine_each([5, None]) == [1.0, None]

    def test_input_is_not_mutated(self):
        values = [1, None]
        for aggregate in (SUM, MIN, MAX, COUNT, AVG):
            aggregate.combine_each(values)
        assert values == [1, None]


class TestMeasure:
    def test_needs_name(self):
        with pytest.raises(FactError):
            Measure("")

    def test_default_aggregate_is_sum(self):
        assert Measure("amount").aggregate is SUM


def make_table():
    return TemporallyConsistentFactTable(
        dimensions=["org", "product"],
        measures=[Measure("amount", SUM), Measure("peak", MAX)],
    )


class TestTableConstruction:
    def test_needs_dimensions(self):
        with pytest.raises(FactError):
            TemporallyConsistentFactTable([], [Measure("m")])

    def test_needs_measures(self):
        with pytest.raises(FactError):
            TemporallyConsistentFactTable(["d"], [])

    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(FactError):
            TemporallyConsistentFactTable(["d", "d"], [Measure("m")])

    def test_duplicate_measures_rejected(self):
        with pytest.raises(FactError):
            TemporallyConsistentFactTable(["d"], [Measure("m"), Measure("m")])

    def test_unknown_measure_lookup(self):
        with pytest.raises(FactError):
            make_table().measure("nope")


class TestAddingRows:
    def test_shape_validation_missing_dimension(self):
        t = make_table()
        with pytest.raises(FactError):
            t.add({"org": "a"}, 0, amount=1.0, peak=1.0)

    def test_shape_validation_extra_dimension(self):
        t = make_table()
        with pytest.raises(FactError):
            t.add({"org": "a", "product": "p", "zzz": "x"}, 0, amount=1.0, peak=1.0)

    def test_shape_validation_missing_measure(self):
        t = make_table()
        with pytest.raises(FactError):
            t.add({"org": "a", "product": "p"}, 0, amount=1.0)

    def test_shape_validation_unknown_measure(self):
        t = make_table()
        with pytest.raises(FactError):
            t.add({"org": "a", "product": "p"}, 0, amount=1.0, peak=1.0, zz=2.0)

    def test_values_mapping_and_kwargs_merge(self):
        t = make_table()
        row = t.add({"org": "a", "product": "p"}, 3, {"amount": 1.0}, peak=9.0)
        assert row.value("amount") == 1.0 and row.value("peak") == 9.0

    def test_unknown_value_allowed(self):
        t = make_table()
        row = t.add({"org": "a", "product": "p"}, 3, amount=None, peak=1.0)
        assert row.value("amount") is None


class TestLookups:
    def test_rows_at(self):
        t = make_table()
        t.add({"org": "a", "product": "p"}, 1, amount=1.0, peak=1.0)
        t.add({"org": "a", "product": "p"}, 2, amount=2.0, peak=2.0)
        assert [r.t for r in t.rows_at(2)] == [2]

    def test_rows_for(self):
        t = make_table()
        t.add({"org": "a", "product": "p"}, 1, amount=1.0, peak=1.0)
        t.add({"org": "b", "product": "p"}, 1, amount=2.0, peak=2.0)
        assert len(t.rows_for("org", "a")) == 1
        with pytest.raises(FactError):
            t.rows_for("nope", "a")

    def test_lookup_returns_latest_duplicate(self):
        t = make_table()
        t.add({"org": "a", "product": "p"}, 1, amount=1.0, peak=1.0)
        t.add({"org": "a", "product": "p"}, 1, amount=5.0, peak=5.0)
        row = t.lookup({"org": "a", "product": "p"}, 1)
        assert row is not None and row.value("amount") == 5.0

    def test_lookup_miss(self):
        assert make_table().lookup({"org": "zz", "product": "p"}, 1) is None

    def test_total_uses_measure_aggregate(self):
        t = make_table()
        t.add({"org": "a", "product": "p"}, 1, amount=1.0, peak=7.0)
        t.add({"org": "b", "product": "p"}, 1, amount=2.0, peak=3.0)
        assert t.total("amount") == 3.0
        assert t.total("peak") == 7.0  # MAX aggregate

    def test_to_records(self):
        t = make_table()
        t.add({"org": "a", "product": "p"}, 1, amount=1.0, peak=7.0)
        rec = t.to_records()[0]
        assert rec == {"org": "a", "product": "p", "t": 1, "amount": 1.0, "peak": 7.0}

    def test_fact_row_coordinate_validation(self):
        t = make_table()
        row = t.add({"org": "a", "product": "p"}, 1, amount=1.0, peak=7.0)
        assert row.coordinate("org") == "a"
        with pytest.raises(FactError):
            row.coordinate("zzz")

    def test_len_and_iter(self):
        t = make_table()
        t.add({"org": "a", "product": "p"}, 1, amount=1.0, peak=1.0)
        assert len(t) == 1
        assert len(list(t)) == 1
