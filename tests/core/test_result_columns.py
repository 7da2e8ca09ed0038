"""Result tables held as columns, checked against the row-object finalize.

The reference below is the finalize the engine ran before tables became
columns: one :class:`ResultCell` per measure folded with ``combine_all``,
one :class:`ResultRow` per group, rows sorted by their labels (``None``
last), and the table's readers written over those row objects.  Every
mode × {year, quarter, month} × {Division, Department} × {no filter,
``WHERE``, ``DURING``} query of three schemas must read the same through
the columnar table, its row views and its pickle / deepcopy clones.
"""

import copy
import pickle

import pytest

import repro.core.query
from repro.core import MultiVersionFactTable
from repro.core.errors import QueryError
from repro.core.query import QueryEngine, ResultCell, ResultRow, ResultTable
from repro.mvql import MVQLSession
from repro.mvql.parser import parse
from repro.workloads.case_study import build_case_study
from repro.workloads.generator import WorkloadConfig, generate_workload

GRAINS = ("year", "quarter", "month")
LEVELS = ("Division", "Department")


def _sort_key(value):
    if value is None:
        return (1, "")
    return (0, str(value))


def _render_label(value):
    return "(none)" if value is None else str(value)


def reference_rows(schema, query, groups):
    """The row-object finalize: cells folded with ``combine_all``, rows
    sorted by ``_sort_key`` of their group labels."""
    measures = list(query.measures) or schema.measure_names
    rows = []
    for group, acc in groups.items():
        cells = []
        for m in measures:
            contribs = acc[m]
            agg = schema.measure(m).aggregate
            value = agg.combine_all(v for v, _ in contribs)
            confidence = (
                schema.cf_aggregator.combine_all(cf for _, cf in contribs)
                if contribs
                else None
            )
            cells.append(ResultCell(m, value, confidence))
        rows.append(ResultRow(group=group, cells=tuple(cells)))
    return sorted(rows, key=lambda r: tuple(_sort_key(g) for g in r.group))


def reference_as_dict(rows):
    return {row.group: {cell.measure: cell.value for cell in row.cells} for row in rows}


def reference_confidences(rows):
    return {
        row.group: {
            cell.measure: cell.confidence.symbol if cell.confidence else None
            for cell in row.cells
        }
        for row in rows
    }


def reference_cell_confidences(rows):
    return [cell.confidence for row in rows for cell in row.cells]


def reference_text(columns, measures, rows):
    headers = [*columns, *measures]
    body = []
    for row in rows:
        labels = [_render_label(g) for g in row.group]
        for cell in row.cells:
            text = "?" if cell.value is None else f"{cell.value:g}"
            if cell.confidence is not None:
                text += f" ({cell.confidence.symbol})"
            labels.append(text)
        body.append(labels)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def generated(seed):
    schema = generate_workload(
        WorkloadConfig(seed=seed, n_departments=100, n_years=10)
    ).schema
    return MultiVersionFactTable.build(schema), "DIV0", "2003..2005"


def case_study():
    return build_case_study().schema.multiversion_facts(), "Sales", "2002"


SCHEMAS = {
    "generated-seed0": lambda: generated(0),
    "generated-seed1": lambda: generated(1),
    "case-study": case_study,
}


@pytest.fixture(scope="module", params=sorted(SCHEMAS))
def warehouse(request):
    return SCHEMAS[request.param]()


def statements(mvft, division, during):
    for mode in mvft.modes.labels:
        for grain in GRAINS:
            for level in LEVELS:
                shape = f"SELECT amount BY {grain}, org.{level} IN MODE {mode}"
                yield shape
                yield f"{shape} WHERE org.Division = {division}"
                yield f"{shape} DURING {during}"


def compiled(mvft, division, during):
    session = MVQLSession(mvft)
    for statement in statements(mvft, division, during):
        yield statement, session.compile_select(parse(statement))


def state(table):
    """Everything a table holds; ``repr`` tells ``-0.0`` from ``0.0`` and
    ``1`` from ``1.0``."""
    return repr((
        table.columns, table.measures, table.mode,
        table.group_columns, table.value_columns, table.confidence_columns,
    ))


def test_columns_read_as_the_row_object_finalize(warehouse):
    mvft, division, during = warehouse
    engine = QueryEngine(mvft)
    shapes = 0
    for statement, query in compiled(mvft, division, during):
        table = engine.execute(query)
        rows = reference_rows(mvft.schema, query, engine.collect_contributions(query))
        assert len(table) == len(rows), statement
        assert repr(table.rows) == repr(rows), statement
        assert repr(table.as_dict()) == repr(reference_as_dict(rows)), statement
        assert table.confidences() == reference_confidences(rows), statement
        assert table.cell_confidences() == reference_cell_confidences(rows), statement
        assert table.to_text() == reference_text(table.columns, table.measures, rows), statement
        for clone in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert state(clone) == state(table), statement
        shapes += 1
    assert shapes == len(mvft.modes.labels) * len(GRAINS) * len(LEVELS) * 3


def test_rows_are_views_built_on_each_access(warehouse):
    mvft, _division, _during = warehouse
    table = QueryEngine(mvft).execute(
        MVQLSession(mvft).compile_select(parse("SELECT amount BY year, org.Division"))
    )
    first, second = table.rows, table.rows
    assert first == second
    assert all(a is not b for a, b in zip(first, second))


def test_finalize_builds_no_row_or_cell_objects(warehouse, monkeypatch):
    mvft, division, during = warehouse
    engine = QueryEngine(mvft)
    queries = [query for _, query in compiled(mvft, division, during)][:12]
    expected = [engine.execute(query).as_dict() for query in queries]

    def refuse(*args, **kwargs):
        raise AssertionError("finalize built a row or cell object")

    monkeypatch.setattr(repro.core.query, "ResultRow", refuse)
    monkeypatch.setattr(repro.core.query, "ResultCell", refuse)
    for query, answer in zip(queries, expected):
        table = engine.finalize(query, engine.collect_contributions(query))
        assert table.as_dict() == answer


@pytest.mark.parametrize("columns", [
    {"group_columns": [], "value_columns": [], "confidence_columns": []},
    {"group_columns": [("2001", "2002")], "value_columns": [(1.0,)],
     "confidence_columns": [(None,)]},
    {"group_columns": [("2001",)], "value_columns": [], "confidence_columns": []},
], ids=["no-group-column", "ragged", "no-measure-column"])
def test_constructor_rejects_misshapen_columns(columns):
    names = ["year"] if columns["group_columns"] else []
    with pytest.raises(QueryError):
        ResultTable(names, ["amount"], "tcm", **columns)
