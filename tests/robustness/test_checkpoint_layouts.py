"""Both checkpoint layouts recover the schema they snapshot.

A checkpoint journals its fact table as columns (schema format 2).
Journals whose checkpoint holds one object per fact row (format 1, the
layout of ``schema_to_dict``) must keep recovering.  Over seeded
two-dimension, two-measure schemas — facts with keys out of declaration
order, ``None`` / ``-0.0`` / ``nan`` / ``±inf`` / int / ``5e-324``
values, non-ASCII member names, ``source`` on some rows, and no facts at
all — both layouts must rebuild the original's canonical serialization
and its MultiVersion fact table byte for byte, and pass ``repro recover``
and ``repro doctor --wal``.
"""

import io
import json
import random

import pytest

from repro.cli import main as cli_main
from repro.core import MultiVersionFactTable, schema_from_dict, schema_to_dict
from repro.core.serialization import SerializationError, schema_to_columns
from repro.robustness import WriteAheadJournal, recover_schema
from repro.workloads.generator import TwoDimWorkloadConfig, generate_two_dim_workload

from ..core.test_multiversion import _digest

SPECIAL_VALUES = [None, -0.0, float("nan"), float("inf"), float("-inf"), 7, 5e-324]


def two_measure_schema(seed, *, facts=True):
    """A seeded two-dimension workload, given a second measure (``qty``,
    aggregated by ``max``), non-ASCII member names, tagged rows and facts
    whose coordinates and values are out of declaration order."""
    payload = schema_to_dict(
        generate_two_dim_workload(TwoDimWorkloadConfig(seed=seed)).schema
    )
    payload["measures"].append(
        {"name": "qty", "aggregate": "max", "description": "units — Stück"}
    )
    for rel in payload["mappings"]:
        for direction in ("forward", "reverse"):
            rel[direction]["qty"] = dict(rel[direction]["amount"])
    for dim in payload["dimensions"]:
        for member in dim["members"]:
            member["name"] += " · Zürich 東京"
    rng = random.Random(seed)
    rows = payload["facts"] if facts else []
    for i, row in enumerate(rows):
        row["values"]["qty"] = rng.randint(0, 9)
        if i % 3 == 0:
            row["source"] = f"érp.csv#{i}"
    payload["facts"] = rows
    schema = schema_from_dict(payload)
    if facts:
        first = rows[0]
        for i, value in enumerate(SPECIAL_VALUES):
            schema.add_fact(
                {"store": first["coordinates"]["store"],
                 "product": first["coordinates"]["product"]},
                first["t"],
                {"qty": rng.choice(SPECIAL_VALUES), "amount": value},
                source=f"ß#{i}" if i % 2 else None,
            )
    return schema


def canonical(schema):
    return json.dumps(schema_to_dict(schema), sort_keys=True)


def new_journal(schema, path):
    with WriteAheadJournal(path) as wal:
        wal.checkpoint(schema)
    return path


def row_layout_journal(schema, path):
    """A journal whose checkpoint holds one object per fact row."""
    with WriteAheadJournal(path) as wal:
        wal.append("checkpoint", schema=schema_to_dict(schema))
    return path


LAYOUTS = {"columns": new_journal, "rows": row_layout_journal}
SCHEMAS = {
    "seed3": lambda: two_measure_schema(3),
    "seed8": lambda: two_measure_schema(8),
    "no_facts": lambda: two_measure_schema(5, facts=False),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", sorted(SCHEMAS))
class TestRecovery:
    def test_recovers_the_original(self, tmp_path, name, layout):
        schema = SCHEMAS[name]()
        path = LAYOUTS[layout](schema, tmp_path / "j.wal")
        recovered, _ = recover_schema(path)
        assert canonical(recovered) == canonical(schema)
        assert len(recovered.facts) == len(schema.facts)
        assert _digest(MultiVersionFactTable.build(recovered)) == _digest(
            MultiVersionFactTable.build(schema)
        )

    def test_cli_recover_and_doctor_pass(self, tmp_path, name, layout):
        path = LAYOUTS[layout](SCHEMAS[name](), tmp_path / "j.wal")
        out = io.StringIO()
        assert cli_main(["recover", str(path)], out=out) == 0, out.getvalue()
        out = io.StringIO()
        assert cli_main(["doctor", "--wal", str(path)], out=out) == 0, out.getvalue()


class TestLayout:
    def test_checkpoint_journals_the_facts_as_columns(self, tmp_path):
        schema = two_measure_schema(3)
        (record,) = WriteAheadJournal(new_journal(schema, tmp_path / "j.wal")).records()
        payload = record["schema"]
        assert payload["format"] == 2
        rows = schema_to_dict(schema)
        for key in ("dimensions", "measures", "mappings"):
            assert payload[key] == rows[key]
        facts = payload["facts"]
        assert list(facts) == ["t", "coordinates", "values", "source"]
        assert list(facts["coordinates"]) == ["product", "store"]
        assert list(facts["values"]) == ["amount", "qty"]
        assert facts["t"] == [row.t for row in schema.facts]
        assert facts["source"] == [row.source for row in schema.facts]

    def test_source_column_only_when_some_row_has_one(self):
        payload = schema_to_columns(two_measure_schema(5, facts=False))
        assert payload["facts"] == {
            "t": [],
            "coordinates": {"product": [], "store": []},
            "values": {"amount": [], "qty": []},
        }

    def test_columns_of_unequal_length_are_refused(self):
        payload = schema_to_columns(two_measure_schema(3))
        payload["facts"]["values"]["qty"].pop()
        with pytest.raises(SerializationError, match="one entry per row"):
            schema_from_dict(payload)

    def test_unknown_format_is_refused(self):
        payload = schema_to_columns(two_measure_schema(5, facts=False))
        payload["format"] = 3
        with pytest.raises(SerializationError, match="unsupported schema format 3"):
            schema_from_dict(payload)

    def test_column_checkpoint_is_smaller(self, tmp_path):
        schema = two_measure_schema(8)
        columns = new_journal(schema, tmp_path / "c.wal").stat().st_size
        rows = row_layout_journal(schema, tmp_path / "r.wal").stat().st_size
        assert columns < rows

    def test_row_keys_come_back_in_declaration_order(self, tmp_path):
        """Columns keep each row's coordinates and values, not the order
        of their keys: a row given out of declaration order recovers in
        it, and equals the original as a mapping."""
        schema = two_measure_schema(3)
        (original,) = [row for row in schema.facts if row.source == "ß#1"]
        assert list(original.coordinates) == ["store", "product"]
        assert list(original.values) == ["qty", "amount"]
        recovered, _ = recover_schema(new_journal(schema, tmp_path / "j.wal"))
        (row,) = [row for row in recovered.facts if row.source == "ß#1"]
        assert list(row.coordinates) == ["product", "store"]
        assert list(row.values) == ["amount", "qty"]
        assert row.coordinates == original.coordinates
        assert row.values == original.values
