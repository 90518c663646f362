"""``KVStore``: the adoption-grade key-value API over the whole stack.

What a downstream user actually wants: put/get/delete/range over a
durable store with online backup and one-call disaster recovery — built
entirely on this library (B+-tree with logically logged splits, tree
flush policy, online backup engine, media recovery).

>>> from repro import BackupConfig, KVStore
>>> store = KVStore.create(capacity_pages=128)
>>> store.put(1, "one")
>>> store.get(1)
'one'
>>> backup = store.online_backup(BackupConfig(steps=4))
>>> store.simulate_media_failure()
>>> store.restore_from_backup().ok
True
>>> store.get(1)
'one'
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.btree import BTree
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import ReproError
from repro.recovery.explain import RecoveryOutcome
from repro.storage.backup_db import BackupDatabase


class KVStore:
    """A durable ordered key-value store with online backup."""

    def __init__(self, db: Database, tree: BTree):
        self.db = db
        self.tree = tree

    # -------------------------------------------------------------- lifecycle

    @classmethod
    def create(
        cls,
        capacity_pages: int = 256,
        order: int = 16,
        policy: str = "tree",
        logging: str = "tree",
    ) -> "KVStore":
        db = Database(pages_per_partition=[capacity_pages], policy=policy)
        tree = BTree(db, order=order, logging=logging).create()
        return cls(db, tree)

    @classmethod
    def reopen(cls, db: Database, order: int = 16,
               logging: str = "tree") -> "KVStore":
        """Re-attach after recovery (reads the tree's meta page)."""
        tree = BTree.attach(db, order=order, logging=logging)
        return cls(db, tree)

    # --------------------------------------------------------------- KV API

    def put(self, key: Any, value: Any) -> None:
        self.tree.insert(key, value)

    def get(self, key: Any, default: Any = None) -> Any:
        found = self.tree.search(key)
        return default if found is None else found

    def delete(self, key: Any) -> bool:
        return self.tree.delete(key)

    def range(self, low: Any, high: Any) -> Iterator[Tuple[Any, Any]]:
        """All (key, value) pairs with ``low <= key <= high``, in order."""
        for key, value in self.tree.items(low):
            if key > high:
                break
            yield key, value

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return self.tree.items()

    def __len__(self) -> int:
        return sum(1 for _ in self.tree.items())

    def __contains__(self, key: Any) -> bool:
        return self.tree.search(key) is not None

    # ---------------------------------------------------------------- backup

    def online_backup(
        self, config: Optional[BackupConfig] = None
    ) -> BackupDatabase:
        """Take an online backup shaped by ``config`` to completion; safe
        to call while the store keeps serving (drive manually via ``db``
        for interleaved use — see the examples)."""
        self.db.start_backup(config)
        return self.db.run_backup(config)

    # -------------------------------------------------------------- failures

    def simulate_crash(self) -> RecoveryOutcome:
        """Crash the volatile state and recover; returns the outcome."""
        self.db.crash()
        outcome = self.db.recover()
        self.tree = BTree.attach(
            self.db, order=self.tree.order, logging=self.tree.logging
        )
        return outcome

    def simulate_media_failure(self) -> None:
        self.db.media_failure()

    def restore_from_backup(
        self, backup: Optional[BackupDatabase] = None
    ) -> RecoveryOutcome:
        """Media recovery: restore + roll forward, then re-attach."""
        outcome = self.db.media_recover(backup=backup)
        if not outcome.ok:
            raise ReproError(
                f"media recovery failed: {outcome.summary()}"
            )
        self.tree = BTree.attach(
            self.db, order=self.tree.order, logging=self.tree.logging
        )
        return outcome

    # ------------------------------------------------------------ statistics

    def stats(self) -> dict:
        return {
            "keys": len(self),
            "height": self.tree.height(),
            "log_records": self.db.log.end_lsn,
            "log_bytes": self.db.log.bytes_logged(
                self.db.log.first_retained_lsn
            ),
            "backups": len(self.db.engine.completed),
            "iwof_records": self.db.metrics.iwof_records,
            "page_flushes": self.db.metrics.page_flushes,
        }

    def __repr__(self):
        return f"KVStore(keys={len(self)}, height={self.tree.height()})"
