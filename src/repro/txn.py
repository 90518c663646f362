"""Transactions: atomic, durable groups of operations.

The paper deliberately ignores transaction boundaries ("every logged
operation is treated as committed"), and this library's recovery core
follows it.  ``Transaction`` layers classic ACID-style atomicity and
durability on top *without* touching the redo machinery, using deferred
writes:

* operations executed inside a transaction are **buffered**, applied to
  a private overlay so the transaction reads its own writes;
* ``commit()`` replays the buffer against the database (each operation
  is logged and applied normally, tagged with the transaction's name)
  and forces the log — all-or-nothing durability falls out of the WAL
  boundary: either every record of the transaction is on the stable log
  or (after a crash before the force) none of its effects exist
  anywhere;
* ``abort()`` simply drops the buffer — nothing was ever logged.

The workload/recovery loop runs on one thread, so deferred application
at commit reproduces exactly the states the operations saw when
buffered.

>>> from repro import Database, PhysicalWrite
>>> from repro.ids import PageId
>>> from repro.txn import TransactionManager
>>> db = Database(pages_per_partition=[8])
>>> txns = TransactionManager(db)
>>> with txns.begin("load") as txn:
...     _ = txn.execute(PhysicalWrite(PageId(0, 0), "v"))
>>> db.read(PageId(0, 0))
'v'
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.ids import PageId
from repro.ops.base import Operation


class TransactionError(ReproError):
    """Misuse of the transaction API (double commit, use after end)."""


class Transaction:
    def __init__(self, db, name: str):
        self.db = db
        self.name = name
        self._buffer: List[Operation] = []
        self._overlay: Dict[PageId, Any] = {}
        self._state = "active"

    # --------------------------------------------------------------- queries

    @property
    def is_active(self) -> bool:
        return self._state == "active"

    @property
    def pending_operations(self) -> int:
        return len(self._buffer)

    def read(self, page_id: PageId) -> Any:
        """Read through the transaction: own writes first, then the DB."""
        self._check_active()
        if page_id in self._overlay:
            return self._overlay[page_id]
        return self.db.read(page_id)

    # -------------------------------------------------------------- mutation

    def execute(self, op: Operation) -> Operation:
        """Buffer one operation; its effects are visible to this
        transaction immediately and to the database only at commit."""
        self._check_active()
        reads = {pid: self.read(pid) for pid in op.readset}
        result = op.apply(reads)
        self._overlay.update(result)
        self._buffer.append(op)
        return op

    def commit(self) -> int:
        """Apply and log every buffered operation, then force the log.

        Returns the number of operations committed.
        """
        self._check_active()
        from repro.sim.faults import with_retries

        for op in self._buffer:
            self.db.execute(op, source=self.name)
        with_retries(self.db.log.force, metrics=self.db.metrics)
        count = len(self._buffer)
        self._state = "committed"
        self._buffer.clear()
        self._overlay.clear()
        return count

    def abort(self) -> None:
        """Discard the buffer; the database never sees the operations."""
        self._check_active()
        self._state = "aborted"
        self._buffer.clear()
        self._overlay.clear()

    def _check_active(self) -> None:
        if self._state != "active":
            raise TransactionError(
                f"transaction {self.name!r} is {self._state}"
            )

    # -------------------------------------------------------- context manager

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._state == "active":
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    def __repr__(self):
        return (
            f"Transaction({self.name!r}, {self._state}, "
            f"{len(self._buffer)} pending)"
        )


class TransactionManager:
    """Creates named transactions over one database."""

    def __init__(self, db):
        self.db = db
        self._counter = 0
        self.committed = 0
        self.aborted = 0

    def begin(self, name: Optional[str] = None) -> Transaction:
        self._counter += 1
        txn = Transaction(self.db, name or f"txn-{self._counter}")
        original_commit = txn.commit
        original_abort = txn.abort

        def counted_commit():
            count = original_commit()
            self.committed += 1
            return count

        def counted_abort():
            original_abort()
            self.aborted += 1

        txn.commit = counted_commit  # type: ignore[method-assign]
        txn.abort = counted_abort  # type: ignore[method-assign]
        return txn
