"""Log retention: how far the log may be physically truncated.

Crash recovery needs the log from the dirty-page truncation point; media
recovery needs it from the **scan start of every backup still retained**
(plus any backup in progress).  The safe physical truncation point is
the minimum of all of these.

Incremental chains (section 6.1) sharpen the backup term: restoring a
retained incremental replays from its *base full backup's* scan start
(``run_media_recovery_chain``), so a retained link pins the log from
the root of its base chain, not from its own (much later) scan start.
For the same reason a mid-chain generation cannot be retired while
later links still chain through it — their overlay would silently miss
its pages — so :meth:`LogRetention.retire_backup` rejects that with
:class:`~repro.errors.ChainPinnedError`; compaction (which merges the
chain into one standalone generation and then retires the sources
newest-first) is the supported release path.

Iw/oF is what makes this interesting (section 3.2): identity-write
records advance rLSNs "permitting the truncation of the log in the same
way that flushing does" — so a hot page that is never flushed does not
pin the log, as long as it keeps being identity-logged.

Retiring old backups releases their log ranges; the oldest retained
backup bounds how much media-recovery history survives.  An instant
restore in progress pins its own generation's scan start until its
drain returns.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ChainPinnedError, NoBackupError
from repro.ids import LSN
from repro.storage.backup_db import BackupDatabase


class LogRetention:
    """Tracks which backups pin which log prefixes."""

    def __init__(self, cm, engine):
        self.cm = cm
        self.engine = engine
        self._retired_ids = set()
        # The instant restore in progress, if any (set and cleared by
        # Database).  Its evaluator and drain read the media-log slice
        # from the live log, so the slice stays pinned until the drain
        # returns — even if its generation is retired meanwhile.
        self.active_restore = None

    def retained_backups(self) -> List[BackupDatabase]:
        return [
            backup
            for backup in self.engine.completed
            if backup.backup_id not in self._retired_ids
        ]

    def _base_chain_ids(self, backup: BackupDatabase) -> List[int]:
        """Backup ids this backup's restore chain passes through
        (excluding its own), walking ``base_backup_id`` to the root."""
        by_id = {b.backup_id: b for b in self.engine.completed}
        ids: List[int] = []
        seen = {backup.backup_id}
        current = backup
        while True:
            base_id = getattr(current, "base_backup_id", None)
            if base_id is None or base_id in seen:
                return ids
            ids.append(base_id)
            seen.add(base_id)
            base = by_id.get(base_id)
            if base is None:  # dangling reference: stop at the break
                return ids
            current = base

    def pin_lsn(self, backup: BackupDatabase) -> LSN:
        """The log position this retained backup pins.

        A standalone full backup pins its own scan start.  An
        incremental pins the scan start of its base chain's *root*: its
        restore overlays the whole chain and replays from there.  A
        dangling chain (root already gone) degrades to the oldest
        reachable link's scan start.
        """
        by_id = {b.backup_id: b for b in self.engine.completed}
        pin = backup.media_scan_start_lsn
        for base_id in self._base_chain_ids(backup):
            base = by_id.get(base_id)
            if base is not None:
                pin = min(pin, base.media_scan_start_lsn)
        return pin

    def retire_backup(self, backup: BackupDatabase) -> None:
        """Release a backup's pin on the log (it can no longer be used
        for media recovery once the log is truncated past it).

        A generation some *retained* backup still chains through cannot
        be retired: raising :class:`ChainPinnedError` here is what keeps
        every retained incremental restorable.  Compact first (the
        compactor retires its sources newest-first, which never trips
        this check).
        """
        dependents = [
            b.backup_id
            for b in self.retained_backups()
            if b.backup_id != backup.backup_id
            and backup.backup_id in self._base_chain_ids(b)
        ]
        if dependents:
            raise ChainPinnedError(backup.backup_id, dependents)
        self._retired_ids.add(backup.backup_id)

    def is_retired(self, backup: BackupDatabase) -> bool:
        return backup.backup_id in self._retired_ids

    def is_usable(self, backup: BackupDatabase) -> bool:
        """Can this backup still be rolled forward with the current log?"""
        if self.is_retired(backup):
            return False
        return (
            self.pin_lsn(backup)
            >= self.cm.log.first_retained_lsn
        )

    def safe_truncation_point(self) -> LSN:
        """Largest LSN such that everything before it is dispensable."""
        log = self.cm.log
        candidates = [self.cm.rec.truncation_point(log.end_lsn)]
        for backup in self.retained_backups():
            candidates.append(self.pin_lsn(backup))
        active = self.engine.active
        if active is not None and not active.is_sealed:
            candidates.append(active.backup.media_scan_start_lsn)
        if self.active_restore is not None:
            candidates.append(self.active_restore.chosen.media_scan_start_lsn)
        return min(candidates)

    def truncate_log(self) -> int:
        """Physically truncate the log to the safe point; returns the
        number of records discarded."""
        return self.cm.log.truncate_prefix(self.safe_truncation_point())

    def latest_usable_backup(self) -> BackupDatabase:
        for backup in reversed(self.retained_backups()):
            if self.is_usable(backup):
                return backup
        raise NoBackupError(
            "no retained backup's media log survives on the truncated log"
        )
