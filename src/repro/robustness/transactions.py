"""Transactional evolution: ``begin`` / ``commit`` / ``rollback``.

The §3.2 operators are applied in *sequences* — Table 11 compiles every
simple and complex evolution (merge, split, annexation) into multi-operator
scripts — so a failure mid-sequence must not leave the Temporal
Multidimensional Schema in a state that is neither the old nor the new
structure version.  :class:`TransactionManager` makes every compound
operation of :class:`~repro.core.operations.EvolutionManager` all-or-nothing:

* each basic operator is applied through a :class:`TransactionalEditor`
  that captures a pre-image of the touched dimension and pushes an inverse
  entry onto the transaction's undo log (Insert is compensated by removing
  what it created, Exclude/Reclassify by restoring the truncated members
  and relationships, Associate by removing the registered mapping);
* ``rollback`` applies the undo log in reverse, restoring the schema
  *byte-identically* (container order included, so serialization output
  matches) to its begin state;
* with a :class:`~repro.robustness.wal.WriteAheadJournal` attached, every
  operator is journaled before the commit record, giving replay-based
  crash recovery to the last committed transaction boundary
  (:mod:`repro.robustness.recovery`);
* a :class:`~repro.robustness.faults.FaultInjector` can be woven in to
  trip any of the ``txn.*`` / ``wal.append`` fault points.

Row-level undo for the relational substrate is provided by
:class:`TransactionalDatabase`, which wraps a
:class:`~repro.storage.database.Database` and enlists its writes in the
same transaction.  With a WAL attached, those writes are journaled as
``dml`` records (and ``catalog`` records for table schemas), so
:func:`repro.robustness.recovery.recover_warehouse` rebuilds the
warehouse tier together with the schema after a crash.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.chronology import Endpoint, Instant, NOW
from repro.core.facts import FactRow
from repro.core.mapping import MappingRelationship
from repro.core.member import MemberVersion
from repro.core.operations import EvolutionManager
from repro.core.operators import SchemaEditor
from repro.core.schema import TemporalMultidimensionalSchema
from repro.observability import runtime as _obs
from repro.storage.database import Database
from repro.storage.schema import table_schema_to_dict

from .errors import TransactionError
from .wal import WriteAheadJournal, operator_payload

__all__ = [
    "UndoRecord",
    "Transaction",
    "TransactionalEditor",
    "TransactionManager",
    "TransactionalDatabase",
]


@dataclass
class UndoRecord:
    """One inverse action on the undo log.

    ``description`` names the operator being compensated (for diagnostics
    and the tests' undo-log assertions); ``action`` performs the inverse.
    """

    description: str
    action: Callable[[], None]

    def undo(self) -> None:
        """Apply the inverse action."""
        self.action()


@dataclass
class Transaction:
    """One open unit of work.

    ``journal_mark`` / ``facts_mark`` record where the operator journal and
    the fact table stood at ``begin`` so rollback can truncate both.

    ``touched`` accumulates the ids of every dimension the transaction's
    operators and fact loads reached — the conflict-detection granularity
    of :mod:`repro.concurrency` and the scope of incremental integrity
    checks.  ``cataloged`` names the relational tables whose ``catalog``
    WAL record this transaction emitted — rollback un-registers them so a
    later transaction re-catalogs the table under a txid that commits.
    ``base_version`` is the snapshot version the writer's
    decisions were based on (``None`` when the transaction was not opened
    through a :class:`~repro.concurrency.manager.SnapshotManager`);
    ``commit_lsn`` is the WAL LSN of the commit record, set by
    :meth:`TransactionManager.commit` — the MVCC version clock.
    """

    txid: int
    journal_mark: int
    facts_mark: int
    undo: list[UndoRecord] = field(default_factory=list)
    status: str = "active"
    operators: int = 0
    touched: set[str] = field(default_factory=set)
    cataloged: set[str] = field(default_factory=set)
    base_version: int | None = None
    commit_lsn: int | None = None

    @property
    def active(self) -> bool:
        """Whether the transaction is still open."""
        return self.status == "active"


class TransactionalEditor(SchemaEditor):
    """A :class:`SchemaEditor` whose operators enlist in a transaction.

    Every basic operator requires an active transaction on the owning
    :class:`TransactionManager`; applying one outside a transaction raises
    :class:`TransactionError` — that is the contract that makes compound
    operations atomic.
    """

    def __init__(
        self, schema: TemporalMultidimensionalSchema, manager: "TransactionManager"
    ) -> None:
        super().__init__(schema)
        self._manager = manager

    # Each override snapshots the touched dimension, delegates to the base
    # operator, then registers undo + WAL through the manager.

    def insert(
        self,
        did: str,
        mvid: str,
        name: str,
        ti: Instant,
        tf: Endpoint = NOW,
        *,
        attributes: Mapping[str, Any] | None = None,
        level: str | None = None,
        parents: Sequence[str] = (),
        children: Sequence[str] = (),
    ) -> MemberVersion:
        return self._manager._apply_operator(
            "Insert",
            dims=(did,),
            call=lambda: super(TransactionalEditor, self).insert(
                did,
                mvid,
                name,
                ti,
                tf,
                attributes=attributes,
                level=level,
                parents=parents,
                children=children,
            ),
            wal_args={
                "did": did,
                "mvid": mvid,
                "name": name,
                "ti": ti,
                "tf": tf,
                "attributes": dict(attributes or {}),
                "level": level,
                "parents": list(parents),
                "children": list(children),
            },
        )

    def exclude(self, did: str, mvid: str, tf: Instant) -> MemberVersion:
        return self._manager._apply_operator(
            "Exclude",
            dims=(did,),
            call=lambda: super(TransactionalEditor, self).exclude(did, mvid, tf),
            wal_args={"did": did, "mvid": mvid, "tf": tf},
        )

    def associate(
        self, rel: MappingRelationship, *, allow_non_leaf: bool = False
    ) -> MappingRelationship:
        return self._manager._apply_operator(
            "Associate",
            dims=(),
            call=lambda: super(TransactionalEditor, self).associate(
                rel, allow_non_leaf=allow_non_leaf
            ),
            wal_args={"rel": rel, "allow_non_leaf": allow_non_leaf},
            mapping_rel=rel,
        )

    def reclassify(
        self,
        did: str,
        mvid: str,
        ti: Instant,
        tf: Endpoint = NOW,
        *,
        old_parents: Sequence[str] = (),
        new_parents: Sequence[str] = (),
    ) -> None:
        return self._manager._apply_operator(
            "Reclassify",
            dims=(did,),
            call=lambda: super(TransactionalEditor, self).reclassify(
                did, mvid, ti, tf, old_parents=old_parents, new_parents=new_parents
            ),
            wal_args={
                "did": did,
                "mvid": mvid,
                "ti": ti,
                "tf": tf,
                "old_parents": list(old_parents),
                "new_parents": list(new_parents),
            },
        )


class TransactionManager:
    """Transactions over a TMD schema (and optionally a relational store).

    Parameters
    ----------
    schema:
        The schema to protect.
    wal:
        A :class:`WriteAheadJournal`, a path to create/open one, or ``None``
        for in-memory transactions (rollback still works; crash recovery
        does not).  A fresh, empty journal automatically receives an
        initial checkpoint of the schema.
    database:
        An optional :class:`~repro.storage.database.Database`; use
        :attr:`database` (a :class:`TransactionalDatabase`) to give its
        writes row-level undo within the same transaction.
    fault_injector:
        Optional :class:`~repro.robustness.faults.FaultInjector` fired at
        the ``txn.*`` fault points (and handed to the WAL for
        ``wal.append``).
    checkpoint_every:
        With a WAL attached, automatically write a schema checkpoint
        after every N commits and truncate the journal prefix before it
        (WAL compaction) — recovery replays from the checkpoint, so the
        dropped prefix is dead weight.  ``None`` (the default) disables
        auto-checkpointing.

    Commit-time extension hooks (used by
    :class:`~repro.concurrency.manager.SnapshotManager`):
    ``precommit_hooks`` run after the ``txn.commit`` fault point but
    *before* the WAL commit record — a hook that raises (e.g. a
    write-conflict validator) aborts the commit and, under
    ``transaction()``, rolls the transaction back; ``postcommit_hooks``
    run once the transaction is durably committed (snapshot publication).

    Usage::

        txm = TransactionManager(schema, wal="evolutions.wal")
        with txm.transaction():
            txm.evolution.merge_members("org", ["a", "b"], "ab", "AB", t)
        # committed — or rolled back to the byte-identical begin state
        # if anything inside raised.
    """

    def __init__(
        self,
        schema: TemporalMultidimensionalSchema,
        *,
        wal: WriteAheadJournal | str | Path | None = None,
        database: Database | None = None,
        fault_injector: Any = None,
        checkpoint_every: int | None = None,
        metrics: Any = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise TransactionError("checkpoint_every must be a positive count")
        self.schema = schema
        self.fault_injector = fault_injector
        self.checkpoint_every = checkpoint_every
        self._metrics = metrics
        self.precommit_hooks: list[Callable[[Transaction], None]] = []
        self.postcommit_hooks: list[Callable[[Transaction], None]] = []
        if wal is None or isinstance(wal, WriteAheadJournal):
            self.wal = wal
        else:
            self.wal = WriteAheadJournal(
                wal, fault_injector=fault_injector, metrics=metrics
            )
        self.database = (
            TransactionalDatabase(database, self) if database is not None else None
        )
        # Tables whose schema the journal currently describes (checkpoint
        # dump or a catalog record).  A reopened journal starts empty and
        # re-catalogs lazily — catalog replay is idempotent.
        self._cataloged: set[str] = set()
        if self.wal is not None and self.wal.last_lsn == 0:
            self._write_checkpoint()
        self.editor = TransactionalEditor(schema, self)
        self.evolution = EvolutionManager(schema, editor=self.editor)
        self.current: Transaction | None = None
        self.committed = 0
        self.rolled_back = 0
        self._txid_counter = 0

    # -- fault plumbing ---------------------------------------------------------

    def _fire(self, point: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.fire(point)

    def _metrics_now(self) -> Any:
        return self._metrics if self._metrics is not None else _obs.current_metrics()

    # -- lifecycle --------------------------------------------------------------

    def begin(self) -> Transaction:
        """Open a transaction; nesting is not supported."""
        if self.current is not None and self.current.active:
            raise TransactionError(
                f"transaction {self.current.txid} is still active; "
                f"nested transactions are not supported"
            )
        self._fire("txn.begin")
        if self.wal is not None:
            txid = self.wal.next_txid()
        else:
            self._txid_counter += 1
            txid = self._txid_counter
        txn = Transaction(
            txid=txid,
            journal_mark=len(self.editor.journal),
            facts_mark=len(self.schema.facts),
        )
        if self.wal is not None:
            self.wal.begin(txid)
        self.current = txn
        return txn

    def commit(self) -> Transaction:
        """Make the open transaction durable and permanent.

        Pre-commit hooks run before the WAL commit record: a raising hook
        (write-conflict validation, scoped integrity) aborts the commit
        while rollback is still possible.  Post-commit hooks run once the
        transaction is durable; after them, ``checkpoint_every`` may
        trigger an automatic checkpoint + journal truncation.
        """
        txn = self._require_txn()
        metrics = self._metrics_now()
        commit_start = time.perf_counter() if metrics.enabled else 0.0
        self._fire("txn.commit")
        for hook in self.precommit_hooks:
            hook(txn)
        if self.wal is not None:
            txn.commit_lsn = self.wal.commit(txn.txid)
        self._fire("txn.commit.durable")
        txn.status = "committed"
        txn.undo.clear()
        self.current = None
        self.committed += 1
        for hook in self.postcommit_hooks:
            hook(txn)
        if (
            self.checkpoint_every is not None
            and self.wal is not None
            and self.committed % self.checkpoint_every == 0
        ):
            lsn = self._write_checkpoint()
            self.wal.truncate_before(lsn)
        if metrics.enabled:
            metrics.histogram("txn.commit_seconds").observe(
                time.perf_counter() - commit_start
            )
            metrics.counter("txn.committed").inc()
            metrics.counter("txn.operators_applied").inc(txn.operators)
        return txn

    def rollback(self) -> Transaction:
        """Undo every effect of the open transaction.

        The undo log is applied in reverse; the operator journal and the
        fact table are truncated back to their begin marks.  After the
        call, serializing the schema yields bytes identical to the
        pre-transaction serialization.
        """
        txn = self._require_txn()
        self._fire("txn.rollback")
        for record in reversed(txn.undo):
            record.undo()
        txn.undo.clear()
        # Catalog records this transaction emitted die with it at recovery
        # (no commit record), so the tables must be re-cataloged by the
        # next transaction that touches them.
        self._cataloged -= txn.cataloged
        del self.editor.journal[txn.journal_mark:]
        self.schema.facts.truncate(txn.facts_mark)
        if self.wal is not None:
            try:
                self.wal.abort(txn.txid)
            except Exception:
                # The abort record is advisory — recovery discards any
                # transaction without a commit record — so a failing
                # journal must not block the in-memory rollback.
                pass
        txn.status = "rolled-back"
        self.current = None
        self.rolled_back += 1
        metrics = self._metrics_now()
        if metrics.enabled:
            metrics.counter("txn.rolled_back").inc()
        return txn

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """``with txm.transaction():`` — commit on success, rollback on error."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if self.current is txn and txn.active:
                self.rollback()
            raise
        else:
            if self.current is txn and txn.active:
                try:
                    self.commit()
                except BaseException:
                    # The commit never reached its durability point (e.g. a
                    # fault before/at the WAL commit record): the
                    # transaction aborts as a whole.
                    if self.current is txn and txn.active:
                        self.rollback()
                    raise

    def execute(self, fn: Callable[[EvolutionManager], Any]) -> Any:
        """Run ``fn(evolution_manager)`` inside one transaction."""
        with self.transaction():
            return fn(self.evolution)

    def create_restore_point(self, name: str) -> int:
        """Journal a named restore point and return its LSN.

        The tag marks a committed boundary point-in-time recovery can
        rewind to by name (:func:`repro.robustness.pitr.recover_to`,
        ``repro recover --to <name>``), so it refuses to land inside an
        open transaction — a mid-transaction tag would name a state that
        never existed at any commit boundary.
        """
        if self.wal is None:
            raise TransactionError("no write-ahead journal attached")
        if self.current is not None and self.current.active:
            raise TransactionError(
                "cannot create a restore point inside an open transaction"
            )
        return self.wal.restore_point(name)

    def checkpoint(self) -> int:
        """Write a schema snapshot to the WAL (no open transaction allowed).

        With a database attached, the checkpoint embeds its full dump —
        the row-level recovery baseline that keeps journal compaction
        (:meth:`WriteAheadJournal.truncate_before`) correct for the
        warehouse tier.
        """
        if self.wal is None:
            raise TransactionError("no write-ahead journal attached")
        if self.current is not None and self.current.active:
            raise TransactionError("cannot checkpoint inside an open transaction")
        return self._write_checkpoint()

    def _write_checkpoint(self) -> int:
        """Checkpoint schema (and database, when attached) to the WAL."""
        db = self.database.db if self.database is not None else None
        lsn = self.wal.checkpoint(self.schema, database=db)
        if db is not None:
            # The dump describes every current table; nothing needs a
            # catalog record until a new table appears.
            self._cataloged = set(db.table_names)
        return lsn

    def _require_txn(self) -> Transaction:
        if self.current is None or not self.current.active:
            raise TransactionError(
                "no active transaction; wrap the operation in "
                "`with manager.transaction():`"
            )
        return self.current

    # -- operator interception ---------------------------------------------------

    def _apply_operator(
        self,
        operator: str,
        *,
        dims: tuple[str, ...],
        call: Callable[[], Any],
        wal_args: dict[str, Any],
        mapping_rel: MappingRelationship | None = None,
    ) -> Any:
        """Apply one basic operator under the open transaction.

        A pre-image of every touched dimension is captured first.  On
        failure the pre-images are restored immediately (statement-level
        atomicity: the transaction stays open, the schema shows no trace of
        the failed operator) and the error propagates.  On success an
        :class:`UndoRecord` restoring the pre-images (and removing the
        ``Associate``'d mapping, when there is one) joins the undo log and
        the operator is journaled to the WAL.
        """
        txn = self._require_txn()
        self._fire("txn.op.pre")
        pre_images = [
            (did, self.schema.dimension(did).capture_state()) for did in dims
        ]
        journal_mark = len(self.editor.journal)
        try:
            result = call()
        except BaseException:
            for did, state in pre_images:
                self.schema.dimension(did).restore_state(state)
            del self.editor.journal[journal_mark:]
            raise

        def compensate() -> None:
            if mapping_rel is not None:
                self.schema.mappings.remove(mapping_rel)
            for did, state in pre_images:
                self.schema.dimension(did).restore_state(state)

        # Register the inverse *before* the post-op fault point and the WAL
        # append: once the operator has touched the schema, a failure
        # anywhere downstream must still be able to unwind it.
        txn.undo.append(UndoRecord(description=operator, action=compensate))
        txn.operators += 1
        txn.touched.update(dims)
        if mapping_rel is not None:
            # Associate names no dimension explicitly; both endpoints live
            # in the same dimension (checked by add_mapping), so resolve
            # the touched dimension from the source member version.
            dim, _ = self.schema.find_member(mapping_rel.source)
            txn.touched.add(dim.did)
        self._fire("txn.op.post")
        if self.wal is not None:
            self.wal.operator(txn.txid, operator_payload(operator, wal_args))
        return result

    # -- transactional fact loads -------------------------------------------------

    def add_fact(
        self,
        coordinates: Mapping[str, str],
        t: Instant,
        values: Mapping[str, float | None] | None = None,
        *,
        source: str | None = None,
        **value_kwargs: float | None,
    ) -> FactRow:
        """Record a fact inside the open transaction (undo = truncate).

        ``source`` tags the row — and its WAL record — with the ETL
        origin, so lineage and the change stream can name the source row.
        """
        txn = self._require_txn()
        self._fire("txn.op.pre")
        mark = len(self.schema.facts)
        row = self.schema.add_fact(
            coordinates, t, values, source=source, **value_kwargs
        )
        txn.undo.append(
            UndoRecord(
                description="Fact",
                action=lambda: self.schema.facts.truncate(mark),
            )
        )
        txn.touched.update(coordinates)
        self._fire("txn.op.post")
        if self.wal is not None:
            self.wal.fact(
                txn.txid, dict(coordinates), t, dict(row.values), source=row.source
            )
        return row


class TransactionalDatabase:
    """Row-level undo *and* journaling for
    :class:`~repro.storage.database.Database` writes.

    Writes performed through this wrapper while a transaction is open are
    compensated row by row on rollback: inserts are removed, updates and
    deletes restore the captured pre-image rows.  Reads pass through to the
    wrapped database.  With a WAL attached to the owning manager, every
    write is also journaled as a ``dml`` record (post-image for inserts and
    updates, pre-image for updates and deletes), preceded by a ``catalog``
    record the first time a transaction touches a table the journal does
    not yet describe — so the warehouse tier recovers together with the
    schema (:func:`repro.robustness.recovery.recover_warehouse`).
    """

    def __init__(self, db: Database, manager: TransactionManager) -> None:
        self.db = db
        self._manager = manager

    def __getattr__(self, name: str) -> Any:
        # Reads (table, find, row_counts, ...) pass through untouched.
        return getattr(self.db, name)

    def _txn(self) -> Transaction:
        return self._manager._require_txn()

    # -- journaling --------------------------------------------------------------

    def _journal_catalog(self, txn: Transaction, table: Any) -> None:
        """Emit a ``catalog`` record unless the journal already describes
        the table (checkpoint dump or an earlier committed catalog record)."""
        manager = self._manager
        if manager.wal is None or table.name in manager._cataloged:
            return
        manager.wal.catalog(
            txn.txid,
            table=table_schema_to_dict(table.schema),
            indexes=table.index_specs(),
        )
        manager._cataloged.add(table.name)
        txn.cataloged.add(table.name)

    def _journal_dml(
        self,
        txn: Transaction,
        action: str,
        table: Any,
        rid: int,
        *,
        row: dict[str, Any] | None = None,
        pre: dict[str, Any] | None = None,
    ) -> None:
        manager = self._manager
        if manager.wal is None:
            return
        self._journal_catalog(txn, table)
        manager.wal.dml(txn.txid, action, table.name, rid, row=row, pre=pre)

    # -- writes ------------------------------------------------------------------

    def insert(
        self, table_name: str, row: Mapping[str, Any], *, check_fk: bool = True
    ) -> int:
        """Insert one row; rollback removes it."""
        txn = self._txn()
        rid = self.db.insert(table_name, row, check_fk=check_fk)
        table = self.db.table(table_name)
        # The inverse joins the undo log *before* the WAL append: once the
        # row is in the table, a failure downstream (a journaling fault)
        # must still be able to unwind it at rollback.
        txn.undo.append(
            UndoRecord(
                description=f"db.insert:{table_name}",
                action=lambda: table.remove_row(rid),
            )
        )
        self._journal_dml(txn, "row.insert", table, rid, row=table.row(rid))
        return rid

    def insert_many(
        self,
        table_name: str,
        rows: Iterable[Mapping[str, Any]],
        *,
        check_fk: bool = True,
    ) -> int:
        """Bulk insert: atomic within the statement *and* undone on rollback.

        The batch is journaled only after every row is in — a statement
        that fails halfway peels its rows off the undo log and leaves no
        ``dml`` records behind, so a transaction that catches the error
        and commits does not replay rows the statement rolled back.
        """
        txn = self._txn()
        table = self.db.table(table_name)
        start = len(txn.undo)
        inserted: list[int] = []
        try:
            for row in rows:
                # Mirror Database.insert_many's per-row fault point: the
                # crash matrix must reach mid-batch failures through the
                # transactional wrapper too.
                self.db._fire("db.insert_many.row")
                rid = self.db.insert(table_name, row, check_fk=check_fk)
                inserted.append(rid)
                txn.undo.append(
                    UndoRecord(
                        description=f"db.insert:{table_name}",
                        action=lambda rid=rid: table.remove_row(rid),
                    )
                )
        except Exception:
            # Statement-level atomicity: peel off this statement's rows now
            # so a caught error leaves the table batch-free.
            while len(txn.undo) > start:
                txn.undo.pop().undo()
            raise
        for rid in inserted:
            self._journal_dml(txn, "row.insert", table, rid, row=table.row(rid))
        return len(inserted)

    def update(
        self,
        table_name: str,
        predicate: Callable[[Mapping[str, Any]], bool],
        changes: Mapping[str, Any],
    ) -> int:
        """Update matching rows; rollback restores the pre-image rows."""
        txn = self._txn()
        table = self.db.table(table_name)
        pre = [(rid, row) for rid, row in table.items() if predicate(row)]
        # Register the inverse before applying: a mid-update failure (e.g.
        # a duplicate key on a later row) leaves earlier rows changed, and
        # restoring the pre-images is safe whether or not any row changed.
        txn.undo.append(
            UndoRecord(
                description=f"db.update:{table_name}",
                action=lambda: [table.restore_row(rid, row) for rid, row in pre],
            )
        )
        updated = table.update(predicate, changes)
        for rid, row in pre:
            self._journal_dml(
                txn, "row.update", table, rid, pre=row, row=table.row(rid)
            )
        return updated

    def delete(
        self, table_name: str, predicate: Callable[[Mapping[str, Any]], bool]
    ) -> int:
        """Delete matching rows; rollback restores them in place."""
        txn = self._txn()
        table = self.db.table(table_name)
        pre = [(rid, row) for rid, row in table.items() if predicate(row)]
        txn.undo.append(
            UndoRecord(
                description=f"db.delete:{table_name}",
                action=lambda: [table.restore_row(rid, row) for rid, row in pre],
            )
        )
        removed = table.delete(predicate)
        for rid, row in pre:
            self._journal_dml(txn, "row.delete", table, rid, pre=row)
        return removed
