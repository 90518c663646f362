"""Unit tests for the Database facade."""

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import NoBackupError, ReproError
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite


def pid(slot):
    return PageId(0, slot)


class TestConstruction:
    def test_policy_by_name(self):
        for name in ("general", "tree", "page-oriented"):
            db = Database(pages_per_partition=[8], policy=name)
            assert db.cm.policy.name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ReproError):
            Database(pages_per_partition=[8], policy="quantum")

    def test_policy_instance_accepted(self):
        from repro.core.policy import TreeOpsPolicy

        db = Database(pages_per_partition=[8], policy=TreeOpsPolicy())
        assert db.cm.policy.name == "tree"

    def test_repr(self):
        assert "policy=general" in repr(Database(pages_per_partition=[8]))


class TestExecution:
    def test_execute_tracks_update_set(self):
        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "v"))
        assert db.updated_since_backup == {pid(0)}

    def test_execute_all(self):
        db = Database(pages_per_partition=[8])
        records = db.execute_all(
            [PhysicalWrite(pid(0), "a"), CopyOp(pid(0), pid(1))]
        )
        assert [r.lsn for r in records] == [1, 2]
        assert db.read(pid(1)) == "a"

    def test_dirty_page_count(self):
        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "v"))
        assert db.dirty_page_count() == 1
        db.checkpoint()
        assert db.dirty_page_count() == 0


class TestCrashRecovery:
    def test_recover_reproduces_oracle(self):
        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "a"))
        db.execute(CopyOp(pid(0), pid(1)))
        db.flush_page(pid(1))
        db.crash()
        outcome = db.recover()
        assert outcome.ok
        assert db.stable.read_page(pid(1)).value == "a"

    def test_crash_loses_unforced_tail(self):
        db = Database(pages_per_partition=[8], auto_force_log=False)
        db.execute(PhysicalWrite(pid(0), "kept"))
        db.log.force()
        db.execute(PhysicalWrite(pid(0), "lost"))
        lost = db.crash()
        assert lost == 1
        outcome = db.recover()
        assert outcome.ok
        assert db.stable.read_page(pid(0)).value == "kept"

    def test_crash_aborts_active_backup(self):
        db = Database(pages_per_partition=[8])
        db.start_backup(BackupConfig(steps=2))
        db.crash()
        assert not db.backup_in_progress()
        assert db.latest_backup() is None


class TestMediaRecovery:
    def test_requires_a_backup(self):
        db = Database(pages_per_partition=[8])
        db.media_failure()
        with pytest.raises(NoBackupError):
            db.media_recover()

    def test_reads_fail_after_media_failure(self):
        from repro.errors import MediaFailureError

        db = Database(pages_per_partition=[8])
        db.media_failure()
        with pytest.raises(MediaFailureError):
            db.read(pid(0))

    def test_roll_forward_to_point_in_time(self):
        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "before"))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        target = db.log.end_lsn
        db.execute(PhysicalWrite(pid(0), "after"))
        db.media_failure()
        db.media_recover(backup=backup, to_lsn=target, verify=False)
        # Replay never wrote the page, so it is not in ``outcome.state``:
        # a recovered page is read through the database.
        assert db.read(pid(0)) == "before"

    def test_roll_forward_before_completion_rejected(self):
        from repro.errors import RecoveryError

        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "v"))
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        db.media_failure()
        with pytest.raises(RecoveryError):
            db.media_recover(backup=backup, to_lsn=0, verify=False)
