"""Unit tests for the §5.2 quality factor Q and mode ranking."""

import pytest

from repro.core import (
    DEFAULT_WEIGHTS,
    Interval,
    LevelGroup,
    Query,
    QualityError,
    TimeGroup,
    YEAR,
    quality_factor,
    rank_modes,
    ym,
)
from repro.core.query import ResultTable
from repro.core.confidence import AM, EM, SD, UK


def table_with(confidences):
    return ResultTable(
        ["g"], ["m"], "test",
        group_columns=[range(len(confidences))],
        value_columns=[[1.0] * len(confidences)],
        confidence_columns=[confidences],
    )


Q2 = Query(
    group_by=(TimeGroup(YEAR), LevelGroup("org", "Department")),
    time_range=Interval(ym(2002, 1), ym(2003, 12)),
)


class TestQualityFactor:
    def test_all_source_data_scores_one(self):
        assert quality_factor(table_with([SD, SD, SD])) == 1.0

    def test_all_unknown_scores_zero(self):
        assert quality_factor(table_with([UK, UK])) == 0.0

    def test_mixed_confidences_follow_formula(self):
        # (10 + 8 + 5 + 0) / (4 * 10)
        assert quality_factor(table_with([SD, EM, AM, UK])) == pytest.approx(0.575)

    def test_empty_cell_counts_as_unknown(self):
        assert quality_factor(table_with([SD, None])) == pytest.approx(0.5)

    def test_empty_table_scores_zero(self):
        assert quality_factor(table_with([])) == 0.0

    def test_custom_weights(self):
        weights = {"sd": 10, "em": 10, "am": 10, "uk": 10}
        assert quality_factor(table_with([UK, AM]), weights) == 1.0

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(QualityError):
            quality_factor(table_with([SD]), {"sd": 11, "em": 8, "am": 5, "uk": 0})

    def test_undeclared_confidence_rejected(self):
        with pytest.raises(QualityError):
            quality_factor(table_with([SD]), {"em": 8, "am": 5, "uk": 0})

    def test_default_weights_cover_canonical_range(self):
        assert set(DEFAULT_WEIGHTS) == {"sd", "em", "am", "uk"}


class TestModeRanking:
    def test_tcm_ranks_best_for_q2(self, engine):
        """Consistent data is all-sd, so tcm always tops the ranking."""
        ranked = rank_modes(engine, Q2)
        assert ranked[0][0] == "tcm"
        assert ranked[0][1] == 1.0

    def test_mode_with_approximated_mappings_ranks_below_exact(self, engine):
        ranked = {label: q for label, q, _ in rank_modes(engine, Q2)}
        # V2 presents 2003 data exactly (em merge); V3 approximates 2002
        # data (am split): exact mapping must score at least as well.
        assert ranked["V2"] >= ranked["V3"]
        assert ranked["V3"] < 1.0

    def test_ranking_is_sorted_descending(self, engine):
        scores = [q for _, q, _ in rank_modes(engine, Q2)]
        assert scores == sorted(scores, reverse=True)

    def test_ranking_returns_result_tables(self, engine):
        for label, _, table in rank_modes(engine, Q2):
            assert table.mode == label
            assert len(table) > 0
