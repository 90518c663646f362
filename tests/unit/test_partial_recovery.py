"""Unit tests for partition-level media recovery (§6.3, direction 2)."""

import pytest

from repro.core.config import BackupConfig
from repro.core.partial_recovery import (
    check_partition_confinement,
    run_partition_media_recovery,
)
from repro.db import Database
from repro.errors import MediaFailureError, NoBackupError, RecoveryError
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite


@pytest.fixture
def db():
    database = Database(pages_per_partition=[16, 16], policy="general")
    for partition in range(2):
        for slot in range(16):
            database.execute(
                PhysicalWrite(PageId(partition, slot), ("v", partition, slot))
            )
    database.checkpoint()
    database.start_backup(BackupConfig(steps=2))
    database.run_backup(BackupConfig(pages_per_tick=16))
    return database


class TestConfinementChecker:
    def test_clean_log(self, db):
        assert check_partition_confinement(db.log) == []

    def test_flags_cross_partition_ops(self, db):
        record = db.execute(CopyOp(PageId(0, 0), PageId(1, 5)))
        offenders = check_partition_confinement(db.log)
        assert [r.lsn for r in offenders] == [record.lsn]


class TestPartitionFailure:
    def test_failed_partition_unreadable(self, db):
        db.fail_partition(1)
        with pytest.raises(MediaFailureError):
            db.stable.read_page(PageId(1, 0))
        assert db.stable.failed_partitions == {1}

    def test_healthy_partition_still_readable(self, db):
        db.fail_partition(1)
        assert db.stable.read_page(PageId(0, 3)).value == ("v", 0, 3)


class TestPartitionRecovery:
    def test_recovers_only_failed_partition(self, db):
        db.execute(
            PhysiologicalWrite(PageId(1, 3), "stamp", ("post-backup",))
        )
        db.checkpoint()
        healthy_before = db.stable.snapshot()
        db.fail_partition(1)
        outcome = db.recover_partition(1)
        assert outcome.ok, outcome.diffs[:3]
        # Healthy partition byte-identical (never touched).
        for pid, version in healthy_before.items():
            if pid.partition == 0:
                assert db.stable.read_page(pid) == version

    def test_recovers_to_current_state(self, db):
        db.execute(PhysiologicalWrite(PageId(1, 0), "stamp", ("a",)))
        db.execute(PhysiologicalWrite(PageId(1, 0), "stamp", ("b",)))
        db.fail_partition(1)
        outcome = db.recover_partition(1)
        assert outcome.ok
        value = db.stable.read_page(PageId(1, 0)).value
        assert value[1] == "b"

    def test_refuses_on_cross_partition_op(self, db):
        db.execute(CopyOp(PageId(0, 0), PageId(1, 5)))
        db.checkpoint()
        db.fail_partition(1)
        with pytest.raises(RecoveryError):
            db.recover_partition(1)

    def test_cross_partition_op_elsewhere_is_fine(self, db):
        """A cross-partition op not touching the failed partition does
        not block its recovery."""
        db3 = Database(pages_per_partition=[8, 8, 8], policy="general")
        for partition in range(3):
            for slot in range(8):
                db3.execute(
                    PhysicalWrite(PageId(partition, slot), (partition, slot))
                )
        db3.checkpoint()
        db3.start_backup(BackupConfig(steps=2))
        db3.run_backup(BackupConfig(pages_per_tick=8))
        db3.execute(CopyOp(PageId(0, 0), PageId(1, 5)))  # spans 0 and 1
        db3.execute(PhysiologicalWrite(PageId(2, 2), "stamp", ("x",)))
        db3.checkpoint()
        db3.fail_partition(2)
        assert db3.recover_partition(2).ok

    def test_requires_completed_backup(self):
        db2 = Database(pages_per_partition=[8, 8], policy="general")
        db2.fail_partition(1)
        with pytest.raises(NoBackupError):
            db2.recover_partition(1)

    def test_incomplete_backup_rejected(self, db):
        db.start_backup(BackupConfig(steps=2))
        run = db.engine.active
        with pytest.raises(NoBackupError):
            run_partition_media_recovery(
                db.stable, 1, run.backup, db.log
            )
        db.run_backup()
