"""Unit tests for log retention and physical truncation."""

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import LogTruncatedError, NoBackupError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite


def pid(slot):
    return PageId(0, slot)


@pytest.fixture
def db():
    database = Database(pages_per_partition=[16], policy="general")
    for slot in range(8):
        database.execute(PhysicalWrite(pid(slot), ("seed", slot)))
    database.checkpoint()
    return database


class TestPhysicalTruncation:
    def test_lsn_addressing_stable_across_truncation(self, db):
        end = db.log.end_lsn
        db.log.truncate_prefix(5)
        assert db.log.first_retained_lsn == 5
        assert db.log.end_lsn == end
        assert db.log.record_at(5).lsn == 5
        with pytest.raises(LogTruncatedError):
            db.log.record_at(4)

    def test_scan_into_truncated_prefix_raises(self, db):
        db.log.truncate_prefix(5)
        with pytest.raises(LogTruncatedError):
            list(db.log.scan(1))
        assert [r.lsn for r in db.log.scan(5, 6)] == [5, 6]

    def test_truncate_is_idempotent_backwards(self, db):
        db.log.truncate_prefix(5)
        assert db.log.truncate_prefix(3) == 0
        assert db.log.first_retained_lsn == 5

    def test_appends_continue_after_truncation(self, db):
        db.log.truncate_prefix(5)
        record = db.execute(PhysicalWrite(pid(0), "after"))
        assert record.lsn == db.log.end_lsn


class TestRetentionPolicy:
    def test_backup_pins_its_scan_start(self, db):
        db.execute(PhysicalWrite(pid(0), "dirty"))   # pins via recLSN too
        db.flush_page(pid(0))
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        assert (
            db.retention.safe_truncation_point()
            == backup.media_scan_start_lsn
        )

    def test_truncation_respects_backup_then_recovery_works(self, db):
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        db.execute(PhysicalWrite(pid(3), "post"))
        db.flush_page(pid(3))
        db.truncate_log()
        db.media_failure()
        assert db.media_recover(backup=backup).ok

    def test_retiring_backup_releases_its_pin(self, db):
        db.start_backup(BackupConfig(steps=2))
        first = db.run_backup()
        db.execute(PhysicalWrite(pid(0), "between"))
        db.flush_page(pid(0))
        db.start_backup(BackupConfig(steps=2))
        second = db.run_backup()
        before = db.retention.safe_truncation_point()
        db.retire_backup(first)
        after = db.retention.safe_truncation_point()
        assert after >= before
        assert after == second.media_scan_start_lsn

    def test_retired_backup_is_unusable_after_truncation(self, db):
        db.start_backup(BackupConfig(steps=2))
        first = db.run_backup()
        db.execute(PhysicalWrite(pid(0), "between"))
        db.flush_page(pid(0))
        db.start_backup(BackupConfig(steps=2))
        second = db.run_backup()
        db.retire_backup(first)
        db.truncate_log()
        assert not db.retention.is_usable(first)
        assert db.retention.is_usable(second)
        assert db.retention.latest_usable_backup() is second

    def test_no_usable_backup_raises(self, db):
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        db.retire_backup(backup)
        with pytest.raises(NoBackupError):
            db.retention.latest_usable_backup()

    def test_dirty_pages_pin_the_log(self, db):
        record = db.execute(PhysicalWrite(pid(0), "dirty"))
        assert db.retention.safe_truncation_point() <= record.lsn

    def test_active_backup_pins_the_log(self, db):
        db.start_backup(BackupConfig(steps=4))
        run = db.engine.active
        db.backup_step(4)
        assert (
            db.retention.safe_truncation_point()
            <= run.backup.media_scan_start_lsn
        )
        db.run_backup()

    def test_iwof_unpins_hot_page(self, db):
        """§3.2: the identity write advances the safe truncation point
        even though the hot page is never flushed."""
        db.execute(PhysicalWrite(pid(0), "hot"))
        pinned = db.retention.safe_truncation_point()
        record = db.cm.identity_install(pid(0))
        assert db.retention.safe_truncation_point() == record.lsn > pinned
