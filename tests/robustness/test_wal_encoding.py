"""The exact bytes of a journal line.

An append encodes its record once and splices the CRC in before the
closing brace.  These tests pin that the result is the format journals
have always had: the compact JSON of the record with ``crc`` as its last
field, where ``crc`` is the CRC32 of the same JSON without it.
"""

import json
from pathlib import Path

import pytest

from repro.core import (
    SUM,
    Interval,
    Measure,
    MemberVersion,
    TemporalDimension,
    TemporalMultidimensionalSchema,
)
from repro.robustness import TransactionManager, WALError, WriteAheadJournal
from repro.robustness.wal import WAL_FORMAT, record_crc

from .conftest import build_schema


def expected_line(record, checksum=True):
    """The line the journal format prescribes for ``record``."""
    if checksum:
        record = {**record, "crc": record_crc(record)}
    return json.dumps(record, separators=(",", ":"))


@pytest.fixture()
def captured(monkeypatch):
    """Every record appended, as ``{"lsn", "format", "kind", **fields}``."""
    records = []
    original = WriteAheadJournal.append

    def spy(self, kind, **fields):
        lsn = original(self, kind, **fields)
        records.append({"lsn": lsn, "format": WAL_FORMAT, "kind": kind, **fields})
        return lsn

    monkeypatch.setattr(WriteAheadJournal, "append", spy)
    return records


def written_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def unicode_schema():
    d = TemporalDimension("Org")
    d.add_member(MemberVersion("idP", "Société Générale", Interval(0), level="Division"))
    d.add_member(MemberVersion("idQ", "東京 — Zürich ✓", Interval(0), level="Division"))
    return TemporalMultidimensionalSchema([d], [Measure("m", SUM)])


class TestLineBytes:
    def test_manager_records_match_the_format(self, tmp_path, captured):
        path = tmp_path / "j.wal"
        txm = TransactionManager(build_schema(), wal=path)
        with txm.transaction():
            txm.evolution.create_member("Org", "idX", "Ünïcødé", 5, parents=["idP1"])
            txm.add_fact({"Org": "idV1"}, 3, {"m": -0.0})
            txm.add_fact({"Org": "idV2"}, 4, {"m": 1e-7}, source="ß.csv#0")
            txm.add_fact({"Org": "idV"}, 4, {"m": 5e-324})
        kinds = {record["kind"] for record in captured}
        assert {"checkpoint", "begin", "op", "fact", "commit"} <= kinds
        lines = written_lines(path)
        assert lines == [expected_line(record) for record in captured]
        assert [r["lsn"] for r in txm.wal.records()] == [r["lsn"] for r in captured]

    def test_checkpoint_of_non_ascii_schema(self, tmp_path, captured):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as wal:
            wal.checkpoint(unicode_schema())
        (line,) = written_lines(path)
        assert line == expected_line(captured[0])
        assert "\\u00e9" in line  # ASCII-escaped, as json.dumps defaults to

    def test_float_edge_values_round_trip(self, tmp_path, captured):
        path = tmp_path / "j.wal"
        values = {"zero": -0.0, "tiny": 5e-324, "small": 1e-7, "third": 1 / 3}
        with WriteAheadJournal(path) as wal:
            wal.fact(1, {"Org": "idV"}, 0, values)
        (line,) = written_lines(path)
        assert line == expected_line(captured[0])
        (record,) = WriteAheadJournal(path).records()
        assert record["values"] == values
        assert str(record["values"]["zero"]) == "-0.0"

    def test_without_checksums_no_crc_field(self, tmp_path, captured):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path, checksum=False) as wal:
            wal.checkpoint(unicode_schema())
            wal.begin(1)
            wal.fact(1, {"Org": "idP"}, 0, {"m": -0.0})
            wal.commit(1)
        lines = written_lines(path)
        assert lines == [expected_line(r, checksum=False) for r in captured]
        assert all('"crc"' not in line for line in lines)
        assert len(WriteAheadJournal(path).records()) == 4

    def test_every_line_verifies(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as wal:
            wal.checkpoint(unicode_schema())
            wal.begin(1)
            wal.fact(1, {"Org": "idQ"}, 2, {"m": 1e-7})
            wal.commit(1)
        records = WriteAheadJournal(path).records()
        assert len(records) == 4
        for record in records:
            assert list(record)[-1] == "crc"
            assert record["crc"] == record_crc(record)

    def test_caller_supplied_crc_is_rejected(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadJournal(path) as wal:
            with pytest.raises(WALError, match="crc"):
                wal.append("begin", txid=1, crc=0)
            assert wal.last_lsn == 0
        assert written_lines(path) == []


class TestReopen:
    def test_manager_over_reopened_journal_adds_no_checkpoint(self, tmp_path):
        path = tmp_path / "j.wal"
        TransactionManager(build_schema(), wal=path).wal.close()
        before = path.read_bytes()
        txm = TransactionManager(build_schema(), wal=path)
        assert path.read_bytes() == before
        assert [r["kind"] for r in txm.wal.records()] == ["checkpoint"]

    def test_manager_over_empty_journal_checkpoints(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_text("")
        txm = TransactionManager(build_schema(), wal=path)
        assert [r["kind"] for r in txm.wal.records()] == ["checkpoint"]


class TestOpen:
    """Opening a journal reads it once and checks each CRC on the line's
    own bytes; lines in any other shape fall back to the re-encode."""

    def journal(self, path):
        with WriteAheadJournal(path) as wal:
            wal.checkpoint(unicode_schema())
            wal.begin(1)
            wal.fact(1, {"Org": "idQ"}, 2, {"m": 1e-7}, source="ß.csv#0")
            wal.commit(1)
        return path

    def test_open_reads_the_file_once(self, tmp_path, monkeypatch):
        path = self.journal(tmp_path / "j.wal")
        reads = []
        read_bytes, read_text = Path.read_bytes, Path.read_text
        monkeypatch.setattr(
            Path, "read_bytes", lambda self: reads.append("bytes") or read_bytes(self)
        )
        monkeypatch.setattr(
            Path, "read_text",
            lambda self, *a, **k: reads.append("text") or read_text(self, *a, **k),
        )
        wal = WriteAheadJournal(path)
        wal.close()
        assert reads == ["bytes"]
        assert (wal.last_lsn, wal.last_checkpoint_lsn) == (4, 1)

    def test_crc_checked_without_re_encoding(self, tmp_path, monkeypatch):
        path = self.journal(tmp_path / "j.wal")

        def refuse(*args, **kwargs):
            raise AssertionError("a well-formed line was re-encoded")

        monkeypatch.setattr(json, "dumps", refuse)
        assert len(WriteAheadJournal(path).records()) == 4

    @pytest.mark.parametrize("line", [
        # spaced separators: no ``,"crc":`` to split at
        '{"lsn": 1, "format": 1, "kind": "begin", "txid": 1, "crc": CRC}',
        # raw UTF-8 where the encoder escapes: the bytes differ
        '{"lsn":1,"format":1,"kind":"restore_point","name":"é","crc":CRC}',
    ])
    def test_other_shapes_fall_back_to_the_re_encode(self, tmp_path, line):
        record = json.loads(line.replace("CRC", "0"))
        path = tmp_path / "j.wal"
        path.write_text(line.replace("CRC", str(record_crc(record))) + "\n",
                        encoding="utf-8")
        (read,) = WriteAheadJournal(path).records()
        assert {k: v for k, v in read.items() if k != "crc"} == {
            k: v for k, v in record.items() if k != "crc"
        }

    def test_flipped_digit_in_a_fact_column_is_caught(self, tmp_path):
        path = tmp_path / "j.wal"
        schema = build_schema()
        schema.add_fact({"Org": "idV1"}, 3, {"m": 12.5})
        with WriteAheadJournal(path) as wal:
            wal.checkpoint(schema)
        text = path.read_text(encoding="utf-8")
        assert '"values":{"m":[12.5]}' in text
        path.write_text(text.replace("[12.5]", "[13.5]"), encoding="utf-8")
        with pytest.raises(WALError, match="checksum mismatch"):
            WriteAheadJournal(path)
