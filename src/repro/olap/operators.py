"""Classic OLAP operators over the multiversion cube (§1.1).

"Common OLAP operators include roll-up, drill-down, slice and dice,
rotate" — implemented here against :class:`~repro.olap.cube.Cube` views,
all mode-aware: every operator keeps the presentation mode (and therefore
the confidence tagging) of the view it transforms.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.chronology import Interval
from repro.core.errors import QueryError
from .cube import Axis, Cube, CubeView, LevelAxis, TimeAxis

__all__ = ["roll_up", "drill_down", "slice_view", "dice", "rotate", "switch_mode"]


def _level_order(cube: Cube, dimension: str) -> list[str]:
    """Levels of a dimension from coarsest (roots) to finest (leaves).

    Orders the latest structure version's levels by minimum member depth,
    which matches both explicit level fields and inferred ``depth-<k>``
    levels.
    """
    version_modes = cube.mvft.modes.version_modes
    if not version_modes:
        raise QueryError("cube has no structure versions to navigate")
    last = version_modes[-1].version
    assert last is not None
    snap = last.snapshot(dimension)
    levels = snap.levels()

    def min_depth(members: list[str]) -> int:
        return min(snap.depth(m) for m in members)

    return sorted(levels, key=lambda lvl: min_depth(levels[lvl]))


_TIME_ORDER = ("year", "quarter", "month")
"""Time granularities from coarsest to finest (the Time hierarchy)."""


def _shift_level(cube: Cube, axis: Axis, step: int) -> Axis:
    if isinstance(axis, TimeAxis):
        # The Time dimension's own hierarchy: year > quarter > month.
        from repro.core.chronology import MONTH, QUARTER, YEAR

        granularities = {"year": YEAR, "quarter": QUARTER, "month": MONTH}
        if axis.granularity.name not in _TIME_ORDER:
            raise QueryError(
                f"granularity {axis.granularity.name!r} is not part of the "
                f"time hierarchy {_TIME_ORDER}"
            )
        idx = _TIME_ORDER.index(axis.granularity.name) + step
        if not 0 <= idx < len(_TIME_ORDER):
            direction = "coarser" if step < 0 else "finer"
            raise QueryError(
                f"no {direction} time granularity beyond "
                f"{axis.granularity.name!r}"
            )
        return TimeAxis(granularities[_TIME_ORDER[idx]])
    order = _level_order(cube, axis.dimension)
    if axis.level not in order:
        raise QueryError(
            f"level {axis.level!r} is not a level of {axis.dimension!r} "
            f"(available: {order})"
        )
    idx = order.index(axis.level) + step
    if not 0 <= idx < len(order):
        direction = "coarser" if step < 0 else "finer"
        raise QueryError(f"no {direction} level beyond {axis.level!r}")
    return LevelAxis(axis.dimension, order[idx])


def roll_up(cube: Cube, view: CubeView, *, on: str = "rows") -> CubeView:
    """Re-pivot one level coarser along the chosen axis."""
    if on not in ("rows", "cols"):
        raise QueryError("on must be 'rows' or 'cols'")
    if on == "rows":
        return cube.pivot(
            view.mode, _shift_level(cube, view.row_axis, -1), view.col_axis,
            view.measure, time_range=view.time_range,
        )
    return cube.pivot(
        view.mode, view.row_axis, _shift_level(cube, view.col_axis, -1),
        view.measure, time_range=view.time_range,
    )


def drill_down(cube: Cube, view: CubeView, *, on: str = "rows") -> CubeView:
    """Re-pivot one level finer along the chosen axis."""
    if on not in ("rows", "cols"):
        raise QueryError("on must be 'rows' or 'cols'")
    if on == "rows":
        return cube.pivot(
            view.mode, _shift_level(cube, view.row_axis, 1), view.col_axis,
            view.measure, time_range=view.time_range,
        )
    return cube.pivot(
        view.mode, view.row_axis, _shift_level(cube, view.col_axis, 1),
        view.measure, time_range=view.time_range,
    )


def slice_view(view: CubeView, *, row: object = None, col: object = None) -> CubeView:
    """Fix one coordinate: keep a single row (or column) of the grid."""
    if (row is None) == (col is None):
        raise QueryError("slice fixes exactly one of row / col")
    if row is not None:
        if row not in view.rows:
            raise QueryError(f"{row!r} is not a row of this view")
        return CubeView(
            view.mode, view.row_axis, view.col_axis, view.measure,
            [row], list(view.cols),
            {(row, c): view.cell(row, c) for c in view.cols},
            time_range=view.time_range,
        )
    if col not in view.cols:
        raise QueryError(f"{col!r} is not a column of this view")
    return CubeView(
        view.mode, view.row_axis, view.col_axis, view.measure,
        list(view.rows), [col],
        {(r, col): view.cell(r, col) for r in view.rows},
        time_range=view.time_range,
    )


def dice(
    view: CubeView,
    *,
    rows: Iterable[object] | Callable[[object], bool] | None = None,
    cols: Iterable[object] | Callable[[object], bool] | None = None,
) -> CubeView:
    """Keep a sub-grid: row/column subsets or predicates."""

    def resolve(spec, labels: list[object]) -> list[object]:
        if spec is None:
            return list(labels)
        if callable(spec):
            return [x for x in labels if spec(x)]
        wanted = list(spec)
        missing = [x for x in wanted if x not in labels]
        if missing:
            raise QueryError(f"labels {missing} are not in this view")
        return wanted

    keep_rows = resolve(rows, view.rows)
    keep_cols = resolve(cols, view.cols)
    return CubeView(
        view.mode, view.row_axis, view.col_axis, view.measure,
        keep_rows, keep_cols,
        {
            (r, c): view.cell(r, c)
            for r in keep_rows
            for c in keep_cols
        },
        time_range=view.time_range,
    )


def rotate(view: CubeView) -> CubeView:
    """Swap the row and column axes (a.k.a. pivot/transpose)."""
    return view.transpose()


def switch_mode(cube: Cube, view: CubeView, mode: str) -> CubeView:
    """Re-present the same view in another temporal mode of presentation —
    the §4.1 'switching between temporal modes' the flat TMP dimension
    enables."""
    return cube.pivot(
        mode, view.row_axis, view.col_axis, view.measure,
        time_range=view.time_range,
    )


def time_window(cube: Cube, view: CubeView, interval: Interval) -> CubeView:
    """Restrict the view to facts inside a time interval."""
    return cube.pivot(
        view.mode, view.row_axis, view.col_axis, view.measure, time_range=interval
    )
