"""Log-shipping standby replica (remote backup for disaster recovery).

The paper's related work (King et al. [6]) maintains "a remote backup
copy for disaster recovery" by shipping the log.  This module builds
that on the reproduction's machinery, and shows why the paper's backup
protocol matters for standbys too:

* a standby is **seeded** from an online fuzzy backup — which is only a
  correct starting point because the engine kept that backup
  recoverable under logical operations (a naive-dump seed can be
  silently wrong, as `tests/integration/test_standby.py` demonstrates);
* after seeding, the standby **applies the shipped log** continuously
  with the same LSN redo test used everywhere else; applying is
  idempotent, so re-shipping overlapping ranges is harmless;
* **failover** promotes the standby into a fresh, fully functional
  :class:`~repro.db.Database` whose state equals the primary's at the
  promotion point.

Lag is measured in LSNs: ``standby.lag()`` is how far behind the
primary's log end the replica has applied.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import NoBackupError, ReproError
from repro.ids import LSN, PageId
from repro.recovery.redo import RedoReplayer, surviving_poison
from repro.storage.backup_db import BackupDatabase
from repro.storage.layout import Layout
from repro.storage.page import PageVersion
from repro.wal.log_manager import LogManager


class StandbyReplica:
    """A warm replica fed by the primary's log stream."""

    def __init__(
        self,
        layout: Layout,
        primary_log: LogManager,
        initial_value: Any = None,
    ):
        self.layout = layout
        self.primary_log = primary_log
        self.initial_value = initial_value
        self._state: Dict[PageId, PageVersion] = {
            pid: PageVersion(initial_value, 0) for pid in layout.all_pages()
        }
        self.applied_through: LSN = 0
        self._replayer = RedoReplayer(initial_value=initial_value)
        self._promoted = False

    # --------------------------------------------------------------- seeding

    @classmethod
    def seed_from_backup(
        cls,
        backup: BackupDatabase,
        primary_log: LogManager,
        layout: Layout,
        initial_value: Any = None,
    ) -> "StandbyReplica":
        """Initialize a standby from an online backup + its media log.

        The replica starts from the fuzzy image and immediately applies
        the media log from the backup's scan start — the identical
        roll-forward media recovery performs, so everything the engine
        guaranteed for B holds for the standby's starting state.
        """
        if not backup.is_complete:
            raise NoBackupError(
                f"backup {backup.backup_id} is {backup.status.value}"
            )
        replica = cls(layout, primary_log, initial_value)
        for pid, version in backup.pages().items():
            replica._state[pid] = version
        replica.applied_through = backup.media_scan_start_lsn - 1
        replica.catch_up()
        return replica

    # -------------------------------------------------------------- shipping

    def catch_up(self, up_to: Optional[LSN] = None) -> int:
        """Apply shipped records; returns how many were processed."""
        if self._promoted:
            raise ReproError("standby already promoted")
        target = (
            self.primary_log.end_lsn if up_to is None
            else min(up_to, self.primary_log.end_lsn)
        )
        if target <= self.applied_through:
            return 0
        records = self.primary_log.scan(self.applied_through + 1, target)
        stats = self._replayer.replay(records, self._state)
        processed = target - self.applied_through
        self.applied_through = target
        return processed

    def lag(self) -> int:
        """LSNs the primary has logged that this replica has not applied."""
        return max(0, self.primary_log.end_lsn - self.applied_through)

    def read_page(self, page_id: PageId) -> Any:
        version = self._state.get(page_id)
        return self.initial_value if version is None else version.value

    def is_consistent_with(self, expected: Dict[PageId, Any]) -> bool:
        for pid, value in expected.items():
            if self.read_page(pid) != value:
                return False
        return True

    def poisoned_pages(self):
        return surviving_poison(self._state)

    # -------------------------------------------------------------- failover

    def promote(self, policy: str = "general") -> "Database":
        """Fail over: turn the replica into a serving database.

        The standby applies everything it can still reach, then becomes
        a fresh :class:`Database` whose stable state is the replica
        state.  (The new primary starts its own log; in a real system
        the old log would be archived alongside.)
        """
        from repro.db import Database

        self.catch_up()
        poisoned = self.poisoned_pages()
        if poisoned:
            raise ReproError(
                f"cannot promote: {len(poisoned)} unrecoverable pages "
                f"(first: {poisoned[0]!r})"
            )
        self._promoted = True
        sizes = [
            self.layout.partition_size(p)
            for p in range(self.layout.num_partitions)
        ]
        db = Database(
            pages_per_partition=sizes,
            policy=policy,
            initial_value=self.initial_value,
        )
        # New LSN epoch: the promoted primary starts its own log at 1,
        # so every inherited page is stamped back to LSN 0 — otherwise
        # stale high page LSNs would make the redo test skip new work.
        epoch_zero = {
            pid: PageVersion(version.value, 0)
            for pid, version in self._state.items()
        }
        db.stable.restore_from(epoch_zero, self.initial_value)
        # The inherited values are the new oracle's ground truth.
        for pid, version in epoch_zero.items():
            if version.value != self.initial_value:
                db.oracle._state[pid] = version.value  # noqa: SLF001
        return db

    def __repr__(self):
        return (
            f"StandbyReplica(applied_through={self.applied_through}, "
            f"lag={self.lag()}, promoted={self._promoted})"
        )
