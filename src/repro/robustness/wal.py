"""The persistent write-ahead journal (JSONL on disk).

Every transaction the :class:`~repro.robustness.transactions.TransactionManager`
runs is journaled as a sequence of records, one JSON object per line:

* ``checkpoint`` — a full schema snapshot, its fact table as columns
  (:func:`~repro.core.serialization.schema_to_columns`); recovery starts
  from the most recent one;
* ``begin`` / ``commit`` / ``abort`` — transaction boundaries;
* ``op`` — one basic operator (Insert/Exclude/Associate/Reclassify) with
  JSON-serialized arguments, appended *after* the operator succeeded in
  memory but strictly *before* the transaction's commit record — a logical
  redo journal: replaying the committed records reproduces the schema;
* ``fact`` — one fact row loaded inside a transaction;
* ``catalog`` — one relational table schema (columns, keys, secondary
  indexes), emitted before the first DML record touching a table the
  journal does not yet describe;
* ``dml`` — one relational write (``row.insert`` / ``row.update`` /
  ``row.delete``) with the row id, the post-image and — for updates and
  deletes — the pre-image, so the warehouse tier recovers together with
  the schema (:func:`repro.robustness.recovery.recover_warehouse`);
* ``restore_point`` — a named LSN tag; point-in-time recovery
  (:mod:`repro.robustness.pitr`) rewinds to it by name.

Every record carries a per-record CRC32 over its serialized body
(``checksum=False`` disables writing them; verification always happens when
the field is present, so journals written by older versions stay readable).
The CRC is checked on the line's own bytes before ``,"crc":``; a line in any
other shape is checked by re-encoding its parsed record.

Torn tails are expected: a crash mid-append leaves a final line that is not
valid JSON.  :meth:`WriteAheadJournal.records` silently drops a torn *final*
line (the record was never durable) but raises :class:`WALError` on garbage
anywhere else — that is corruption, not a crash.  Opening a journal repairs
the torn tail on disk (truncating the fragment) so the next append starts on
a fresh line instead of concatenating onto it.  Mid-file damage is governed
by the ``corruption_policy``: ``"fail"`` (default) refuses the journal,
``"quarantine"`` moves everything from the first damaged line onwards into
``<journal>.quarantine`` and recovers to the last valid record.

Compaction (:meth:`WriteAheadJournal.truncate_before`) archives instead of
destroys: the dropped prefix moves to numbered segment files
(``<journal>.0001.seg``, …) listed in ``<journal>.manifest.json``, and
:func:`read_chain` re-reads the full history (archives + live journal) for
time travel.
"""

from __future__ import annotations

import json
import os
import time
import warnings
import zlib
from pathlib import Path
from typing import Any, Iterator

from repro.core.chronology import NOW
from repro.core.mapping import MappingRelationship
from repro.core.schema import TemporalMultidimensionalSchema
from repro.core.serialization import (
    measure_map_from_json,
    measure_map_to_json,
    schema_to_columns,
)
from repro.observability import runtime as _obs

from .errors import WALError

__all__ = [
    "WAL_FORMAT",
    "RECORD_KINDS",
    "DML_ACTIONS",
    "CORRUPTION_POLICIES",
    "WriteAheadJournal",
    "operator_payload",
    "mapping_relationship_to_json",
    "mapping_relationship_from_json",
    "record_crc",
    "manifest_path",
    "read_manifest",
    "read_chain",
    "sweep_journal",
]

WAL_FORMAT = 1

RECORD_KINDS = (
    "checkpoint",
    "begin",
    "op",
    "fact",
    "catalog",
    "dml",
    "commit",
    "abort",
    "restore_point",
)

DML_ACTIONS = ("row.insert", "row.update", "row.delete")

CORRUPTION_POLICIES = ("fail", "quarantine")


def mapping_relationship_to_json(rel: MappingRelationship) -> dict[str, Any]:
    """Serialize one mapping relationship (for ``Associate`` records)."""
    return {
        "source": rel.source,
        "target": rel.target,
        "forward": {m: measure_map_to_json(mm) for m, mm in rel.forward.items()},
        "reverse": {m: measure_map_to_json(mm) for m, mm in rel.reverse.items()},
    }


def mapping_relationship_from_json(payload: dict[str, Any]) -> MappingRelationship:
    """Rebuild a mapping relationship from :func:`mapping_relationship_to_json`."""
    return MappingRelationship(
        source=payload["source"],
        target=payload["target"],
        forward={
            m: measure_map_from_json(spec) for m, spec in payload["forward"].items()
        },
        reverse={
            m: measure_map_from_json(spec) for m, spec in payload["reverse"].items()
        },
    )


def operator_payload(operator: str, arguments: dict[str, Any]) -> dict[str, Any]:
    """JSON-encode one basic operator call (``NOW`` becomes ``null``)."""
    encoded: dict[str, Any] = {}
    for key, value in arguments.items():
        if value is NOW:
            encoded[key] = None
        elif isinstance(value, MappingRelationship):
            encoded[key] = mapping_relationship_to_json(value)
        elif isinstance(value, tuple):
            encoded[key] = list(value)
        else:
            encoded[key] = value
    return {"op": operator, "args": encoded}


def record_crc(record: dict[str, Any]) -> int:
    """CRC32 of a record's serialized body, ``crc`` field excluded.

    The checksum covers exactly the bytes :meth:`WriteAheadJournal.append`
    would have written without the field (JSON objects preserve insertion
    order, so stripping ``crc`` from a parsed record reproduces them)."""
    body = {k: v for k, v in record.items() if k != "crc"}
    return zlib.crc32(json.dumps(body, separators=(",", ":")).encode("utf-8"))


_CRC_FIELD = ',"crc":'


def _crc_verifies(line: str, record: dict[str, Any]) -> bool:
    """Whether ``record``'s stored ``crc`` matches, ``line`` being the
    text it was parsed from.

    An appended line is its body with ``,"crc":<n>`` spliced in before
    the closing brace, so the CRC is checked on the body's own bytes
    first — no re-encode.  A line in any other shape, or whose bytes do
    not match, falls back to :func:`record_crc`, so every journal the
    re-encode accepts still verifies.
    """
    cut = line.rfind(_CRC_FIELD)
    if (
        cut != -1
        and line.endswith("}")
        and line[cut + len(_CRC_FIELD):-1].isdigit()
        and zlib.crc32(b"}", zlib.crc32(line[:cut].encode("utf-8"))) == record["crc"]
    ):
        return True
    return record["crc"] == record_crc(record)


def _scan_lines(
    lines: list[str],
    origin: str,
    *,
    strict: bool = True,
    stop_at_problem: bool = False,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Validate journal lines; the one scanner every read path shares.

    Returns ``(records, problems)``.  A torn final line (invalid JSON) is
    dropped silently — that is a crash, not corruption.  Any other defect
    — garbage mid-file, bad format, unknown kind, non-monotonic LSN, a CRC
    mismatch — raises :class:`WALError` when ``strict`` (the error carries
    ``lineno`` and ``checksum_mismatch`` attributes), else is collected as
    ``{"line", "reason", "checksum"}`` dicts.
    """
    records: list[dict[str, Any]] = []
    problems: list[dict[str, Any]] = []
    last_lsn = 0
    for i, line in enumerate(lines):
        reason: str | None = None
        is_crc = False
        record: Any = None
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail: the record never became durable
            reason = "corrupt WAL record (not valid JSON)"
        if reason is None:
            if not isinstance(record, dict):
                reason = "corrupt WAL record (not a JSON object)"
            elif record.get("format") != WAL_FORMAT:
                reason = f"unsupported WAL format {record.get('format')!r}"
            elif record.get("kind") not in RECORD_KINDS:
                reason = f"unknown record kind {record.get('kind')!r}"
            elif not isinstance(record.get("lsn"), int) or record["lsn"] <= last_lsn:
                reason = f"non-monotonic LSN {record.get('lsn')!r}"
            elif "crc" in record and not _crc_verifies(line, record):
                reason = (
                    f"checksum mismatch (stored {record['crc']!r}, "
                    f"computed {record_crc(record)})"
                )
                is_crc = True
        if reason is None:
            last_lsn = record["lsn"]
            records.append(record)
            continue
        if strict:
            error = WALError(f"{origin}:{i + 1}: {reason}")
            error.lineno = i + 1
            error.checksum_mismatch = is_crc
            raise error
        problems.append({"line": i + 1, "reason": reason, "checksum": is_crc})
        if stop_at_problem:
            break
    return records, problems


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _journal_lines(path: Path) -> list[str]:
    return _split_lines(path.read_text(encoding="utf-8"))


class WriteAheadJournal:
    """An append-only JSONL journal with monotonically increasing LSNs.

    ``durable=True`` fsyncs after every append (the crash-safe setting);
    the default flushes only, which is what the benchmarks measure as the
    baseline journaling tax.  Opening an existing journal reads and scans
    it once to continue the LSN and transaction-id sequences.

    ``checksum`` controls whether appends carry a per-record CRC32 (reads
    verify the field whenever present, regardless of this setting);
    ``corruption_policy`` decides what opening a damaged journal does —
    ``"fail"`` raises, ``"quarantine"`` moves the damaged suffix to
    ``<journal>.quarantine`` and keeps the valid prefix; ``archive``
    controls whether :meth:`truncate_before` moves the compacted prefix to
    numbered segment files instead of destroying it.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        durable: bool = False,
        fault_injector: Any = None,
        metrics: Any = None,
        checksum: bool = True,
        corruption_policy: str = "fail",
        archive: bool = True,
    ) -> None:
        if corruption_policy not in CORRUPTION_POLICIES:
            raise WALError(
                f"unknown corruption policy {corruption_policy!r} "
                f"(choose from {', '.join(CORRUPTION_POLICIES)})"
            )
        self.path = Path(path)
        self.durable = durable
        self.fault_injector = fault_injector
        self._metrics = metrics
        self.checksum = checksum
        self.corruption_policy = corruption_policy
        self.archive = archive
        self.quarantined_records = 0
        self._next_lsn = 1
        self._next_txid = 1
        self.last_checkpoint_lsn: int | None = None
        if self.path.exists():
            # Repair the tail *before* reopening in append mode: a torn
            # final line (crash mid-append) must be truncated away, or the
            # next append would concatenate onto the fragment and turn a
            # recoverable crash into mid-file corruption.
            lines = self._repair_tail()
            if corruption_policy == "quarantine":
                records = self._quarantine_damage(lines)
            else:
                records = self._scan(lines)
            for record in records:
                self._next_lsn = record["lsn"] + 1
                txid = record.get("txid")
                if isinstance(txid, int) and txid >= self._next_txid:
                    self._next_txid = txid + 1
                if record["kind"] == "checkpoint":
                    self.last_checkpoint_lsn = record["lsn"]
        # After the repair, st_size is the durable size — never the raw
        # pre-truncation size that would double-count the torn fragment.
        self._bytes = self.path.stat().st_size if self.path.exists() else 0
        self._file = open(self.path, "a", encoding="utf-8")

    def _repair_tail(self) -> list[str]:
        """Make the on-disk journal end in a complete, newline-terminated
        line, and return its lines — the one read of the file on open.

        A torn final line — invalid JSON after a crash mid-append — is
        truncated away (it is exactly what :meth:`records` drops, so the
        file and the record view stay consistent).  A final line that *is*
        valid JSON but lost its newline (crash between the payload and the
        terminator reaching the disk) is durable, so it is terminated
        instead of dropped.
        """
        raw = self.path.read_bytes()
        body, sep, tail = raw.rpartition(b"\n")
        if tail:
            try:
                json.loads(tail.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raw = body + sep
                with open(self.path, "r+b") as handle:
                    handle.truncate(len(raw))
                    handle.flush()
                    if self.durable:
                        os.fsync(handle.fileno())
            else:
                with open(self.path, "ab") as handle:
                    handle.write(b"\n")
                    handle.flush()
                    if self.durable:
                        os.fsync(handle.fileno())
        return _split_lines(raw.decode("utf-8"))

    def _quarantine_damage(self, lines: list[str]) -> list[dict[str, Any]]:
        """Apply the ``quarantine`` corruption policy on open.

        Everything from the first damaged line onwards moves into
        ``<journal>.quarantine`` (appended, so repeated incidents stack up
        for the operator to inspect) and the journal keeps only the valid
        prefix — recovery then stops at the last valid record instead of
        refusing the whole journal.  Records *after* the damage are
        sacrificed deliberately: with an unreadable line between them and
        the prefix there is no trustworthy LSN chain to splice them onto.
        Returns the records of the valid prefix.
        """
        records, problems = _scan_lines(
            lines, str(self.path), strict=False, stop_at_problem=True
        )
        if not problems:
            return records
        first_bad = problems[0]["line"]  # 1-based
        quarantine = self.path.with_name(self.path.name + ".quarantine")
        with open(quarantine, "a", encoding="utf-8") as handle:
            for line in lines[first_bad - 1:]:
                handle.write(line + "\n")
            handle.flush()
            if self.durable:
                os.fsync(handle.fileno())
        tmp = self.path.with_name(self.path.name + ".repair")
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in lines[: first_bad - 1]:
                handle.write(line + "\n")
            handle.flush()
            if self.durable:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self.quarantined_records = len(lines) - first_bad + 1
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("wal.quarantined_records").inc(self.quarantined_records)
            if problems[0]["checksum"]:
                metrics.counter("wal.checksum_failures").inc()
        return records

    def _metrics_now(self) -> Any:
        return self._metrics if self._metrics is not None else _obs.current_metrics()

    @property
    def size_bytes(self) -> int:
        """Bytes appended to (minus truncated from) the journal file."""
        return self._bytes

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record (0 when empty) —
        the version clock of :mod:`repro.concurrency`."""
        return self._next_lsn - 1

    # -- low-level append -------------------------------------------------------

    def append(self, kind: str, **fields: Any) -> int:
        """Append one record; returns its LSN."""
        if kind not in RECORD_KINDS:
            raise WALError(f"unknown WAL record kind {kind!r}")
        if self._file.closed:
            raise WALError(f"{self.path}: journal is closed")
        if "crc" in fields:
            raise WALError("a WAL record's crc field is computed, not supplied")
        if self.fault_injector is not None:
            self.fault_injector.fire("wal.append")
        record = {"lsn": self._next_lsn, "format": WAL_FORMAT, "kind": kind}
        record.update(fields)
        try:
            line = json.dumps(record, separators=(",", ":"))
        except TypeError as exc:
            raise WALError(f"WAL record is not JSON-serializable: {exc}") from exc
        if self.checksum:
            # ``crc`` is the last key and the separators are compact, so
            # splicing it in before the closing brace yields exactly the
            # bytes a second ``json.dumps`` with the field would.
            line = f'{line[:-1]},"crc":{zlib.crc32(line.encode("utf-8"))}}}'
        metrics = self._metrics_now()
        self._file.write(line + "\n")
        self._file.flush()
        if self.durable:
            if metrics.enabled:
                fsync_start = time.perf_counter()
                os.fsync(self._file.fileno())
                metrics.histogram("wal.fsync_seconds").observe(
                    time.perf_counter() - fsync_start
                )
            else:
                os.fsync(self._file.fileno())
        self._next_lsn += 1
        self._bytes += len(line) + 1
        if metrics.enabled:
            metrics.counter("wal.appends", {"kind": kind}).inc()
            metrics.counter("wal.bytes_written").inc(len(line) + 1)
            metrics.gauge("wal.size_bytes").set(self._bytes)
            if self.durable:
                metrics.counter("wal.fsyncs").inc()
        return record["lsn"]

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- record helpers ---------------------------------------------------------

    def next_txid(self) -> int:
        """Allocate the next transaction id."""
        txid = self._next_txid
        self._next_txid += 1
        return txid

    def checkpoint(
        self,
        schema: TemporalMultidimensionalSchema,
        *,
        database: Any = None,
    ) -> int:
        """Write a full schema snapshot; recovery replays from here.

        ``database`` is an optional relational catalog (any object with a
        ``dump()`` method, i.e. :class:`~repro.storage.database.Database`
        or its snapshot); its dump is embedded in the record so warehouse
        recovery — and journal compaction via :meth:`truncate_before` —
        has a row-level baseline to replay from.  Traced as one
        ``wal.checkpoint`` span whose ``bytes`` is the written line and
        ``facts`` the number of fact rows.  The ``schema`` payload is
        format 2: the fact table as columns (see
        :func:`~repro.core.serialization.schema_to_columns`).
        """
        with _obs.current_tracer().span("wal.checkpoint") as span:
            fields: dict[str, Any] = {"schema": schema_to_columns(schema)}
            if database is not None:
                fields["database"] = database.dump()
            before = self._bytes
            lsn = self.append("checkpoint", **fields)
            span.set("bytes", self._bytes - before)
            span.set("facts", len(schema.facts))
        self.last_checkpoint_lsn = lsn
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("wal.checkpoints").inc()
        return lsn

    def truncate_before(self, lsn: int, *, archive: bool | None = None) -> int:
        """Compact the journal: drop every record with an LSN below ``lsn``.

        ``lsn`` should be a checkpoint's LSN — everything before it is
        dead weight for recovery, which replays from the most recent
        checkpoint.  The surviving suffix is rewritten atomically
        (write-temp-then-rename); LSNs are preserved, so the sequence
        stays monotonic and :meth:`records` keeps validating.  Returns
        the number of records dropped from the live journal.

        With archiving on (the constructor default, overridable per call),
        the dropped prefix first moves to a numbered segment file — the
        history point-in-time recovery rewinds through.  Without it,
        compaction that would destroy a restore point raises
        :class:`WALError`, and destroying ``dml`` pre-image history is
        loudly warned about: both make the journal unable to answer
        rewinds it promised.
        """
        records = self.records()
        keep = [record for record in records if record["lsn"] >= lsn]
        dropping = [record for record in records if record["lsn"] < lsn]
        dropped = len(dropping)
        if dropped == 0:
            return 0
        archive = self.archive if archive is None else archive
        if not archive:
            points = sorted(
                {r["name"] for r in dropping if r["kind"] == "restore_point"}
            )
            if points:
                raise WALError(
                    f"{self.path}: compaction would destroy restore point(s) "
                    f"{', '.join(points)}; keep archiving enabled or remove "
                    f"the restore points first"
                )
            if any(r["kind"] == "dml" for r in dropping):
                warnings.warn(
                    f"{self.path}: compaction is destroying dml pre-image "
                    f"history; point-in-time recovery cannot rewind below "
                    f"lsn {lsn} (keep archiving enabled to preserve it)",
                    stacklevel=2,
                )
        else:
            self._archive_records(dropping)
        self._file.close()
        tmp = self.path.with_name(self.path.name + ".compact")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for record in keep:
                    handle.write(json.dumps(record, separators=(",", ":")) + "\n")
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
            if self.fault_injector is not None:
                self.fault_injector.fire("wal.truncate")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        finally:
            # Whatever happened above — temp-file write error, a fault
            # tripping mid-compaction, or the replace going through — the
            # journal must come back usable: reopen the (old or new) file
            # for append and track its true size.
            self._file = open(self.path, "a", encoding="utf-8")
            self._bytes = self.path.stat().st_size
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("wal.truncations").inc()
            metrics.counter("wal.truncated_records").inc(dropped)
            metrics.gauge("wal.size_bytes").set(self._bytes)
        return dropped

    def _archive_records(self, dropping: list[dict[str, Any]]) -> int:
        """Move records compaction is about to drop into a new archive
        segment (``<journal>.NNNN.seg``) and list it in the manifest.

        Idempotent across crash retries: records at or below the
        manifest's high-water LSN are already archived and skipped, so a
        compaction that died between archiving and truncating re-archives
        nothing on the retry.  The segment is written temp-then-rename
        (the ``wal.archive`` fault point sits between the two), and only
        after the rename does the manifest advertise it.
        """
        manifest = read_manifest(self.path)
        segments = manifest["segments"]
        archived_high = segments[-1]["last_lsn"] if segments else 0
        to_archive = [r for r in dropping if r["lsn"] > archived_high]
        if not to_archive:
            return 0
        seq = len(segments) + 1
        name = f"{self.path.name}.{seq:04d}.seg"
        segment_path = self.path.with_name(name)
        data = "".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in to_archive
        ).encode("utf-8")
        tmp = self.path.with_name(name + ".tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
            if self.fault_injector is not None:
                self.fault_injector.fire("wal.archive")
            os.replace(tmp, segment_path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        segments.append(
            {
                "seq": seq,
                "name": name,
                "first_lsn": to_archive[0]["lsn"],
                "last_lsn": to_archive[-1]["lsn"],
                "records": len(to_archive),
                "crc": zlib.crc32(data),
            }
        )
        _write_manifest(self.path, manifest, durable=self.durable)
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("wal.archived_records").inc(len(to_archive))
            metrics.gauge("wal.archive_segments").set(len(segments))
        return len(to_archive)

    def chain_records(self) -> list[dict[str, Any]]:
        """The full history: archived segments plus the live journal
        (see :func:`read_chain`)."""
        return read_chain(self.path)

    def begin(self, txid: int) -> int:
        """Journal a transaction start."""
        return self.append("begin", txid=txid)

    def operator(self, txid: int, payload: dict[str, Any]) -> int:
        """Journal one applied basic operator (see :func:`operator_payload`)."""
        return self.append("op", txid=txid, **payload)

    def fact(
        self,
        txid: int,
        coordinates: dict[str, str],
        t: int,
        values: dict[str, float | None],
        *,
        source: str | None = None,
    ) -> int:
        """Journal one fact row loaded inside a transaction.

        ``source`` names the ETL origin (``"<source>#<row-index>"``); the
        field is written only when set, so untagged journals keep their
        exact byte shape.
        """
        fields: dict[str, Any] = {"coordinates": coordinates, "t": t, "values": values}
        if source is not None:
            fields["source"] = source
        return self.append("fact", txid=txid, **fields)

    def catalog(
        self, txid: int, *, table: dict[str, Any], indexes: list[dict[str, Any]]
    ) -> int:
        """Journal one relational table schema (plus its secondary-index
        specs) so warehouse recovery can rebuild tables created after the
        last checkpoint.  ``table`` is a
        :func:`~repro.storage.schema.table_schema_to_dict` payload."""
        lsn = self.append("catalog", txid=txid, table=table, indexes=indexes)
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("wal.catalog_records").inc()
        return lsn

    def dml(
        self,
        txid: int,
        action: str,
        table: str,
        rid: int,
        *,
        row: dict[str, Any] | None = None,
        pre: dict[str, Any] | None = None,
    ) -> int:
        """Journal one relational write.

        ``row`` is the post-image (inserts and updates), ``pre`` the
        pre-image (updates and deletes) — recovery replays post-images and
        compaction keeps the pre-images auditable.
        """
        if action not in DML_ACTIONS:
            raise WALError(f"unknown DML action {action!r}")
        if self.fault_injector is not None:
            self.fault_injector.fire("wal.dml")
        fields: dict[str, Any] = {"action": action, "table": table, "rid": rid}
        if row is not None:
            fields["row"] = row
        if pre is not None:
            fields["pre"] = pre
        lsn = self.append("dml", txid=txid, **fields)
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("wal.dml_records", {"action": action}).inc()
        return lsn

    def restore_point(self, name: str) -> int:
        """Journal a named restore point — an LSN tag point-in-time
        recovery (:func:`repro.robustness.pitr.recover_to`) rewinds to by
        name.  Re-using a name moves the tag (the newest wins)."""
        if not isinstance(name, str) or not name:
            raise WALError("a restore point needs a non-empty name")
        lsn = self.append("restore_point", name=name)
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("wal.restore_points").inc()
        return lsn

    def commit(self, txid: int) -> int:
        """Journal a commit — the durability point of the transaction."""
        return self.append("commit", txid=txid)

    def abort(self, txid: int) -> int:
        """Journal an explicit rollback (advisory: recovery also discards
        transactions that simply lack a commit record)."""
        return self.append("abort", txid=txid)

    # -- reading ----------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Every durable record, in LSN order.

        A torn final line (crash mid-append) is dropped; a malformed line
        elsewhere, an unknown kind, a bad format version, a non-monotonic
        LSN or a CRC mismatch raises :class:`WALError`.
        """
        if not self.path.exists():
            return []
        return self._scan(_journal_lines(self.path))

    def _scan(self, lines: list[str]) -> list[dict[str, Any]]:
        """:func:`_scan_lines`, strict, counting a checksum failure."""
        try:
            out, _ = _scan_lines(lines, str(self.path))
        except WALError as exc:
            if getattr(exc, "checksum_mismatch", False):
                metrics = self._metrics_now()
                if metrics.enabled:
                    metrics.counter("wal.checksum_failures").inc()
            raise
        return out

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.records())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteAheadJournal({str(self.path)!r}, next_lsn={self._next_lsn})"


# -- archive manifest and full-history reading -----------------------------------


def manifest_path(path: str | Path) -> Path:
    """Where a journal's archive manifest lives (``<journal>.manifest.json``)."""
    path = Path(path)
    return path.with_name(path.name + ".manifest.json")


def read_manifest(path: str | Path) -> dict[str, Any]:
    """The archive manifest of a journal (an empty one when none exists)."""
    target = manifest_path(path)
    if not target.exists():
        return {"format": WAL_FORMAT, "journal": Path(path).name, "segments": []}
    try:
        manifest = json.loads(target.read_text(encoding="utf-8"))
    except ValueError:
        raise WALError(f"{target}: archive manifest is not valid JSON") from None
    if not isinstance(manifest, dict) or not isinstance(
        manifest.get("segments"), list
    ):
        raise WALError(f"{target}: archive manifest has no segment list")
    return manifest


def _write_manifest(
    path: str | Path, manifest: dict[str, Any], *, durable: bool = False
) -> None:
    """Atomically (re)write a journal's archive manifest."""
    target = manifest_path(path)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, separators=(",", ":"))
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    os.replace(tmp, target)


def _segment_records(
    path: Path, segment: dict[str, Any]
) -> list[dict[str, Any]]:
    """Read and validate one archive segment named by the manifest."""
    segment_path = path.with_name(segment["name"])
    if not segment_path.exists():
        raise WALError(
            f"{segment_path}: archive segment named by the manifest is missing"
        )
    data = segment_path.read_bytes()
    if "crc" in segment and zlib.crc32(data) != segment["crc"]:
        raise WALError(
            f"{segment_path}: archive segment does not match its manifest "
            f"checksum"
        )
    lines = data.decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records, _ = _scan_lines(lines, str(segment_path))
    return records


def read_chain(path: str | Path) -> list[dict[str, Any]]:
    """The journal's full history: archived segments, then the live file.

    A compaction that crashed between archiving and truncating leaves the
    live journal still holding records the newest segment also holds; the
    archived copies are pruned (the live journal wins), so the chain is
    always LSN-monotonic — anything else raises :class:`WALError`.
    """
    path = Path(path)
    chain: list[dict[str, Any]] = []
    for segment in read_manifest(path)["segments"]:
        chain.extend(_segment_records(path, segment))
    live: list[dict[str, Any]] = []
    if path.exists():
        live, _ = _scan_lines(_journal_lines(path), str(path))
    if live:
        chain = [record for record in chain if record["lsn"] < live[0]["lsn"]]
        chain.extend(live)
    last_lsn = 0
    for record in chain:
        if record["lsn"] <= last_lsn:
            raise WALError(
                f"{path}: archive chain is not LSN-monotonic at "
                f"lsn {record['lsn']}"
            )
        last_lsn = record["lsn"]
    return chain


def sweep_journal(path: str | Path) -> dict[str, Any]:
    """A lenient integrity sweep over a journal and its archives.

    Unlike :meth:`WriteAheadJournal.records` this never raises on damage:
    it walks every line of the live journal and every manifest segment,
    collecting ``(severity, message)`` problems — ``"fail"`` for
    unreadable records and checksum mismatches, ``"warn"`` for
    missing/misnumbered/stray archive segments — alongside counters.
    ``repro doctor`` turns the result into alerts and metrics.
    """
    path = Path(path)
    out: dict[str, Any] = {
        "records": 0,
        "checksum_failures": 0,
        "archive_segments": 0,
        "archived_records": 0,
        "problems": [],
    }
    problems: list[tuple[str, str]] = out["problems"]
    if path.exists():
        records, damage = _scan_lines(
            _journal_lines(path), str(path), strict=False
        )
        out["records"] = len(records)
        for problem in damage:
            if problem["checksum"]:
                out["checksum_failures"] += 1
            problems.append(
                ("fail", f"{path.name}:{problem['line']}: {problem['reason']}")
            )
    try:
        manifest = read_manifest(path)
    except WALError as exc:
        problems.append(("fail", str(exc)))
        return out
    segments = manifest["segments"]
    out["archive_segments"] = len(segments)
    listed: set[str] = set()
    for expected_seq, segment in enumerate(segments, start=1):
        name = segment.get("name", f"segment #{expected_seq}")
        listed.add(name)
        if segment.get("seq") != expected_seq:
            problems.append(
                (
                    "warn",
                    f"{name}: misnumbered archive segment "
                    f"(seq {segment.get('seq')!r}, expected {expected_seq})",
                )
            )
        segment_path = path.with_name(name)
        if not segment_path.exists():
            problems.append(
                ("warn", f"{name}: archive segment named by the manifest is missing")
            )
            continue
        data = segment_path.read_bytes()
        if "crc" in segment and zlib.crc32(data) != segment["crc"]:
            out["checksum_failures"] += 1
            problems.append(
                (
                    "fail",
                    f"{name}: archive segment does not match its manifest checksum",
                )
            )
            continue
        lines = data.decode("utf-8").split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records, damage = _scan_lines(lines, name, strict=False)
        out["archived_records"] += len(records)
        for problem in damage:
            if problem["checksum"]:
                out["checksum_failures"] += 1
            problems.append(
                ("fail", f"{name}:{problem['line']}: {problem['reason']}")
            )
    for stray in sorted(path.parent.glob(path.name + ".*.seg")):
        if stray.name not in listed:
            problems.append(
                ("warn", f"{stray.name}: archive segment not named by the manifest")
            )
    return out
