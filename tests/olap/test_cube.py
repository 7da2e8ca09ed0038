"""Tests for the OLAP cube, its operators and the front end."""

import pytest

from repro.core import Interval, QueryError, ym
from repro.core.chronology import MONTH, YEAR
from repro.olap import (
    AggregateLattice,
    Cube,
    LevelAxis,
    TimeAxis,
    dice,
    drill_down,
    grid_quality,
    quality_report,
    render_dimension_graph,
    render_view,
    roll_up,
    rotate,
    slice_view,
    switch_mode,
    time_window,
)
from repro.workloads.case_study import ORG

Q2_RANGE = Interval(ym(2002, 1), ym(2003, 12))


@pytest.fixture(scope="module")
def cube(mvft):
    return Cube(mvft)


@pytest.fixture(scope="module")
def dept_view(cube):
    return cube.pivot(
        "V3", TimeAxis(), LevelAxis(ORG, "Department"), "amount", time_range=Q2_RANGE
    )


class TestPivot:
    def test_grid_matches_table_10(self, dept_view):
        assert dept_view.rows == ["2002", "2003"]
        assert dept_view.cols == ["Dpt.Bill", "Dpt.Brian", "Dpt.Paul", "Dpt.Smith"]
        assert dept_view.cell("2002", "Dpt.Bill").value == 40.0
        assert dept_view.cell("2002", "Dpt.Bill").confidence.symbol == "am"
        assert dept_view.cell("2003", "Dpt.Bill").value == 150.0

    def test_empty_cell(self, cube):
        view = cube.pivot("tcm", TimeAxis(), LevelAxis(ORG, "Department"), "amount")
        cell = view.cell("2003", "Dpt.Jones")
        assert cell.empty and cell.value is None

    def test_identical_axes_rejected(self, cube):
        axis = LevelAxis(ORG, "Department")
        with pytest.raises(QueryError):
            cube.pivot("tcm", axis, axis, "amount")

    def test_modes_and_axes_discovery(self, cube):
        assert cube.modes == ["tcm", "V1", "V2", "V3"]
        names = {a.level for a in cube.level_axes()}
        assert names == {"Division", "Department"}


class TestOperators:
    def test_roll_up_to_division(self, cube, dept_view):
        up = roll_up(cube, dept_view, on="cols")
        assert up.cols == ["R&D", "Sales"]
        assert up.cell("2002", "Sales").value == 100.0
        assert up.time_range == Q2_RANGE  # window preserved

    def test_drill_down_back(self, cube, dept_view):
        up = roll_up(cube, dept_view, on="cols")
        down = drill_down(cube, up, on="cols")
        assert down.cols == dept_view.cols

    def test_roll_up_beyond_top_rejected(self, cube, dept_view):
        up = roll_up(cube, dept_view, on="cols")
        with pytest.raises(QueryError):
            roll_up(cube, up, on="cols")

    def test_roll_up_time_axis_rejected(self, cube, dept_view):
        with pytest.raises(QueryError):
            roll_up(cube, dept_view, on="rows")

    def test_bad_axis_selector_rejected(self, cube, dept_view):
        with pytest.raises(QueryError):
            roll_up(cube, dept_view, on="diagonal")

    def test_rotate_swaps_axes(self, dept_view):
        r = rotate(dept_view)
        assert r.rows == dept_view.cols and r.cols == dept_view.rows
        assert r.cell("Dpt.Bill", "2002").value == 40.0

    def test_double_rotate_is_identity(self, dept_view):
        r2 = rotate(rotate(dept_view))
        assert r2.rows == dept_view.rows and r2.cols == dept_view.cols

    def test_slice_row(self, dept_view):
        s = slice_view(dept_view, row="2002")
        assert s.rows == ["2002"] and s.cols == dept_view.cols

    def test_slice_requires_exactly_one_coordinate(self, dept_view):
        with pytest.raises(QueryError):
            slice_view(dept_view)
        with pytest.raises(QueryError):
            slice_view(dept_view, row="2002", col="Dpt.Bill")

    def test_slice_unknown_label_rejected(self, dept_view):
        with pytest.raises(QueryError):
            slice_view(dept_view, row="1999")

    def test_dice_subsets(self, dept_view):
        d = dice(dept_view, cols=["Dpt.Bill", "Dpt.Paul"])
        assert d.cols == ["Dpt.Bill", "Dpt.Paul"]
        assert d.rows == dept_view.rows

    def test_dice_with_predicate(self, dept_view):
        d = dice(dept_view, cols=lambda c: "B" in str(c))
        assert d.cols == ["Dpt.Bill", "Dpt.Brian"]

    def test_dice_unknown_labels_rejected(self, dept_view):
        with pytest.raises(QueryError):
            dice(dept_view, rows=["1999"])

    def test_switch_mode(self, cube, dept_view):
        v2 = switch_mode(cube, dept_view, "V2")
        assert v2.mode == "V2"
        assert v2.cell("2003", "Dpt.Jones").value == 200.0
        assert v2.time_range == Q2_RANGE

    def test_time_window(self, cube, dept_view):
        narrowed = time_window(cube, dept_view, Interval(ym(2003, 1), ym(2003, 12)))
        assert narrowed.rows == ["2003"]

    def test_time_axis_granularity_change(self, cube):
        view = cube.pivot(
            "tcm", TimeAxis(MONTH), LevelAxis(ORG, "Division"), "amount"
        )
        assert "06/2001" in view.rows


class TestFrontend:
    def test_render_plain(self, dept_view):
        text = render_view(dept_view)
        assert "Dpt.Bill" in text
        assert "40 (am)" in text
        assert "150 (sd)" in text

    def test_render_colour_wraps_ansi(self, dept_view):
        text = render_view(dept_view, colour=True)
        assert "\x1b[33m" in text  # yellow for am
        assert "\x1b[0m" in text

    def test_empty_cells_rendered_as_dot(self, cube):
        view = cube.pivot("tcm", TimeAxis(), LevelAxis(ORG, "Department"), "amount")
        assert "·" in render_view(view)

    def test_grid_quality_full_grid_denominator(self, cube):
        """tcm at department grain has empty cross-points, so its grid
        quality is below a version mode's — §2.1's 'complementary views'."""
        tcm = cube.pivot(
            "tcm", TimeAxis(), LevelAxis(ORG, "Department"), "amount",
            time_range=Q2_RANGE,
        )
        v2 = cube.pivot(
            "V2", TimeAxis(), LevelAxis(ORG, "Department"), "amount",
            time_range=Q2_RANGE,
        )
        assert grid_quality(tcm) < grid_quality(v2)

    def test_quality_report_ranks_all_modes(self, cube):
        report = quality_report(
            cube, TimeAxis(), LevelAxis(ORG, "Department"), "amount",
            time_range=Q2_RANGE,
        )
        assert len(report) == 4
        scores = [q for _, q, _ in report]
        assert scores == sorted(scores, reverse=True)

    def test_quality_weights_validated(self, dept_view):
        from repro.core import QualityError

        with pytest.raises(QualityError):
            grid_quality(dept_view, {"sd": 99, "em": 8, "am": 5, "uk": 0})

    def test_dimension_graph_is_figure_2(self, case_study):
        text = render_dimension_graph(case_study.org)
        assert "Dpt.Jones [01/2001 ; 12/2002]" in text
        assert "-[01/2001 ; 12/2002]-> Sales" in text
        assert "Dpt.Paul [01/2003 ; Now]" in text


class TestAggregateLattice:
    def test_lattice_materializes_nodes(self, mvft):
        lattice = AggregateLattice(mvft)
        assert lattice.node_count > 0
        assert lattice.cell_count() > 0

    def test_lookup_hit_matches_engine(self, mvft, engine):
        from repro.core import LevelGroup, Query, TimeGroup

        lattice = AggregateLattice(mvft)
        hit = lattice.lookup("V2", YEAR, ORG, "Division", "amount", ("2002", "R&D"))
        assert hit is not None
        value, cf = hit
        result = engine.execute(
            Query(mode="V2", group_by=(TimeGroup(YEAR), LevelGroup(ORG, "Division")))
        ).as_dict()
        assert value == result[("2002", "R&D")]["amount"]

    def test_lookup_miss_returns_none(self, mvft):
        lattice = AggregateLattice(mvft)
        assert lattice.lookup("V2", YEAR, ORG, "Continent", "amount", ("x",)) is None
        assert (
            lattice.lookup("V2", YEAR, ORG, "Division", "amount", ("1999", "Zzz"))
            is None
        )

    def test_totals_node(self, mvft):
        lattice = AggregateLattice(mvft)
        node = lattice.totals("tcm", YEAR, ORG, "Division", "amount")
        assert node[("2001", "Sales")][0] == 150.0


class TestLatticeBackedCube:
    def test_materialized_pivot_matches_engine_pivot(self, mvft):
        plain = Cube(mvft)
        fast = Cube(mvft, materialize=True)
        axes = (TimeAxis(), LevelAxis(ORG, "Division"))
        for mode in plain.modes:
            a = plain.pivot(mode, *axes, "amount")
            b = fast.pivot(mode, *axes, "amount")
            assert a.rows == b.rows and a.cols == b.cols
            for r in a.rows:
                for c in a.cols:
                    assert a.cell(r, c).value == b.cell(r, c).value
                    assert a.cell(r, c).confidence == b.cell(r, c).confidence

    def test_transposed_axes_served_from_lattice(self, mvft):
        fast = Cube(mvft, materialize=True)
        view = fast.pivot("tcm", LevelAxis(ORG, "Division"), TimeAxis(), "amount")
        assert view.rows == ["R&D", "Sales"]
        assert view.cell("Sales", "2001").value == 150.0

    def test_time_windowed_pivot_falls_back_to_engine(self, mvft):
        from repro.core import Interval, ym

        fast = Cube(mvft, materialize=True)
        view = fast.pivot(
            "tcm", TimeAxis(), LevelAxis(ORG, "Division"), "amount",
            time_range=Interval(ym(2001, 1), ym(2001, 12)),
        )
        assert view.rows == ["2001"]

    def test_materialized_cube_pivots_a_version_mode(self, mvft):
        cube = Cube(mvft, materialize=True)
        view = cube.pivot("V2", TimeAxis(), LevelAxis(ORG, "Division"), "amount")
        assert view.cell("2002", "Sales").value == 100.0


class TestTimeHierarchyNavigation:
    """Roll-up / drill-down along the Time dimension's own hierarchy."""

    def test_drill_down_year_to_quarter(self, cube, dept_view):
        down = drill_down(cube, dept_view, on="rows")
        assert down.row_axis.granularity.name == "quarter"
        assert "2002Q2" in down.rows

    def test_quarter_rolls_back_up_to_year(self, cube, dept_view):
        down = drill_down(cube, dept_view, on="rows")
        up = roll_up(cube, down, on="rows")
        assert up.rows == dept_view.rows

    def test_month_is_the_finest_granularity(self, cube, dept_view):
        months = drill_down(cube, drill_down(cube, dept_view, on="rows"), on="rows")
        assert months.row_axis.granularity.name == "month"
        with pytest.raises(QueryError):
            drill_down(cube, months, on="rows")

    def test_year_is_the_coarsest_granularity(self, cube, dept_view):
        with pytest.raises(QueryError):
            roll_up(cube, dept_view, on="rows")

    def test_time_navigation_preserves_totals(self, cube, dept_view):
        """Quarterly cells re-aggregate to the yearly cells."""
        down = drill_down(cube, dept_view, on="rows")
        for col in dept_view.cols:
            for year in dept_view.rows:
                quarterly = sum(
                    down.cell(r, col).value or 0.0
                    for r in down.rows
                    if str(r).startswith(str(year))
                )
                assert quarterly == pytest.approx(
                    dept_view.cell(year, col).value or 0.0
                )

    def test_instant_granularity_outside_hierarchy_rejected(self, cube):
        from repro.core.chronology import INSTANT

        view = cube.pivot(
            "tcm", TimeAxis(INSTANT), LevelAxis(ORG, "Division"), "amount"
        )
        with pytest.raises(QueryError):
            drill_down(cube, view, on="rows")


class TestHtmlRendering:
    def test_html_table_structure(self, dept_view):
        from repro.olap import render_view_html

        html = render_view_html(dept_view)
        assert html.startswith("<table")
        assert "<caption>" in html
        assert "Dpt.Bill" in html

    def test_confidence_backgrounds(self, dept_view):
        from repro.olap import HTML_COLOURS, render_view_html

        html = render_view_html(dept_view)
        assert HTML_COLOURS["am"] in html  # the 40/60 estimates
        assert HTML_COLOURS["sd"] in html

    def test_empty_cells_red_with_tooltip(self, cube):
        from repro.olap import HTML_COLOURS, render_view_html

        view = cube.pivot("tcm", TimeAxis(), LevelAxis(ORG, "Department"), "amount")
        html = render_view_html(view)
        assert HTML_COLOURS["uk"] in html
        assert "empty cross-point" in html

    def test_custom_title_escaped(self, dept_view):
        from repro.olap import render_view_html

        html = render_view_html(dept_view, title="<b>R&D</b>")
        assert "&lt;b&gt;R&amp;D&lt;/b&gt;" in html


class TestFilteredPivot:
    def test_pivot_with_level_filter(self, cube):
        from repro.core import LevelFilter

        view = cube.pivot(
            "tcm", TimeAxis(), LevelAxis(ORG, "Department"), "amount",
            filters=(LevelFilter(ORG, "Division", ("Sales",)),),
        )
        # Smith leaves Sales in 2002 (tcm follows the move):
        assert view.cell("2001", "Dpt.Smith").value == 50.0
        assert view.cell("2002", "Dpt.Smith").empty
        assert "Dpt.Brian" not in view.cols or all(
            view.cell(r, "Dpt.Brian").empty for r in view.rows
        )

    def test_filtered_pivot_bypasses_lattice(self, mvft):
        from repro.core import LevelFilter

        fast = Cube(mvft, materialize=True)
        filtered = fast.pivot(
            "tcm", TimeAxis(), LevelAxis(ORG, "Division"), "amount",
            filters=(LevelFilter(ORG, "Division", ("Sales",)),),
        )
        assert filtered.cols == ["Sales"]
        unfiltered = fast.pivot(
            "tcm", TimeAxis(), LevelAxis(ORG, "Division"), "amount"
        )
        assert unfiltered.cols == ["R&D", "Sales"]


class TestExplainCell:
    def test_source_cell_explanation(self, mvft):
        from repro.olap import explain_cell
        from repro.workloads.case_study import fact_instant

        text = explain_cell(mvft, {ORG: "brian"}, fact_instant(2001), "V1")
        assert "amount = 100" in text
        assert "[sd:" in text
        assert "valid in version (source data)" in text

    def test_mapped_cell_explanation_names_sources_and_functions(self, mvft):
        from repro.olap import explain_cell
        from repro.workloads.case_study import fact_instant

        text = explain_cell(mvft, {ORG: "bill"}, fact_instant(2002), "V3")
        assert "amount = 40" in text
        assert "[am:" in text
        assert "jones -> bill" in text
        assert "0.4*x" in text

    def test_merged_cell_lists_every_contribution(self, mvft):
        from repro.olap import explain_cell
        from repro.workloads.case_study import fact_instant

        text = explain_cell(mvft, {ORG: "jones"}, fact_instant(2003), "V2")
        assert "bill -> jones" in text and "paul -> jones" in text

    def test_empty_cell_reports_cross_point(self, mvft):
        from repro.olap import explain_cell
        from repro.workloads.case_study import fact_instant

        text = explain_cell(mvft, {ORG: "jones"}, fact_instant(2003), "V3")
        assert "empty cross-point" in text


class TestUnknownValueRendering:
    def test_unknown_value_cells_render_question_mark(self):
        """A merge with an unknown back-share produces ?-cells tagged uk."""
        from repro.core import (
            EvolutionManager,
            Interval,
            Measure,
            MemberVersion,
            SUM,
            TemporalDimension,
            TemporalMultidimensionalSchema,
            TemporalRelationship,
        )
        from repro.olap import render_view, render_view_html

        d = TemporalDimension(ORG)
        d.add_member(MemberVersion("div", "Div", Interval(0), level="Division"))
        for mvid in ("x", "y"):
            d.add_member(
                MemberVersion(mvid, mvid.upper(), Interval(0), level="Department")
            )
            d.add_relationship(TemporalRelationship(mvid, "div", Interval(0)))
        schema = TemporalMultidimensionalSchema([d], [Measure("amount", SUM)])
        EvolutionManager(schema).merge_members(
            ORG, ["x", "y"], "xy", "XY", 10, reverse_shares={"x": 0.5, "y": None}
        )
        schema.add_fact({ORG: "xy"}, 15, amount=100.0)
        cube = Cube(schema.multiversion_facts())
        v1 = schema.structure_versions()[0].vsid
        view = cube.pivot(v1, TimeAxis(), LevelAxis(ORG, "Department"), "amount")
        text = render_view(view)
        assert "? (uk)" in text
        html = render_view_html(view)
        assert ">?</td>" in html
