"""Unit tests for the online backup engine (section 3)."""

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import BackupError, BackupInProgressError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite


def pid(slot):
    return PageId(0, slot)


@pytest.fixture
def db():
    return Database(pages_per_partition=[32], policy="general")


class TestBackupLifecycle:
    def test_copy_order_follows_backup_order(self, db):
        db.start_backup(BackupConfig(steps=4))
        backup = db.run_backup(BackupConfig(pages_per_tick=8))
        assert backup.copy_order() == list(db.layout.all_pages())
        assert backup.is_complete

    def test_progress_tracks_steps(self, db):
        run = db.start_backup(BackupConfig(steps=4))
        progress = db.cm.progress[0]
        assert (progress.done, progress.pending) == (0, 8)
        db.backup_step(8)
        db.backup_step(1)  # triggers the step advance
        assert progress.done >= 8
        while db.backup_in_progress():
            db.backup_step(8)
        assert (progress.done, progress.pending) == (0, 0)
        assert progress.steps_taken == 4

    def test_second_backup_needs_first_sealed(self, db):
        db.start_backup(BackupConfig(steps=2))
        with pytest.raises(BackupInProgressError):
            db.start_backup(BackupConfig(steps=2))
        db.run_backup()
        db.start_backup(BackupConfig(steps=2))  # now fine

    def test_scan_start_is_truncation_point(self, db):
        db.execute(PhysicalWrite(pid(0), "a"))   # LSN 1, dirty
        db.execute(PhysicalWrite(pid(1), "b"))   # LSN 2, dirty
        db.flush_page(pid(0))
        run = db.engine.start_backup(steps=2)
        assert run.backup.media_scan_start_lsn == 2

    def test_scan_start_with_clean_cache(self, db):
        db.execute(PhysicalWrite(pid(0), "a"))
        db.checkpoint()
        run = db.engine.start_backup(steps=2)
        assert run.backup.media_scan_start_lsn == db.log.end_lsn + 1

    def test_completion_lsn_recorded(self, db):
        db.execute(PhysicalWrite(pid(0), "a"))
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        assert backup.completion_lsn == db.log.end_lsn

    def test_copy_without_active_backup_rejected(self, db):
        with pytest.raises(BackupError):
            db.engine.copy_some(1)

    def test_seal_before_finished_rejected(self, db):
        run = db.start_backup(BackupConfig(steps=2))
        with pytest.raises(BackupError):
            run.seal()

    def test_abort_resets_progress(self, db):
        db.start_backup(BackupConfig(steps=2))
        db.backup_step(4)
        db.engine.abort_active()
        assert not db.cm.progress[0].active
        assert db.latest_backup() is None
        assert db.metrics.backups_aborted == 1


class TestFuzziness:
    def test_backup_captures_mixed_states(self, db):
        """Pages flushed mid-sweep appear with their new values only in
        the not-yet-copied region — the fuzzy image."""
        for slot in range(32):
            db.execute(PhysicalWrite(pid(slot), ("old", slot)))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=4))
        db.backup_step(16)  # first half copied
        for slot in range(32):
            db.execute(PhysicalWrite(pid(slot), ("new", slot)))
        db.checkpoint()     # flush everything (with Iw/oF where needed)
        backup = db.run_backup()
        assert backup.read_page(pid(0)).value == ("old", 0)
        assert backup.read_page(pid(31)).value == ("new", 31)


class TestMultiPartition:
    def test_partitions_swept_in_parallel(self):
        db = Database(pages_per_partition=[8, 8], policy="general")
        db.start_backup(BackupConfig(steps=2))
        db.backup_step(4)
        backup = db.engine.active.backup
        copied_partitions = {p.partition for p in backup.copy_order()}
        assert copied_partitions == {0, 1}
        db.run_backup()
        assert db.latest_backup().copied_count() == 16

    def test_per_partition_latches(self):
        db = Database(pages_per_partition=[8, 8], policy="general")
        db.start_backup(BackupConfig(steps=2))
        db.run_backup()
        assert db.cm.latches[0].exclusive_acquisitions >= 2
        assert db.cm.latches[1].exclusive_acquisitions >= 2
