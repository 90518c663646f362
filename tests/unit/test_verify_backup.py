"""Unit tests for offline backup validation."""

import pytest

from repro.core.config import BackupConfig
from repro.core.naive_backup import NaiveFuzzyDump
from repro.db import Database
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.ops.tree import MovRec, RmvRec


def pid(slot):
    return PageId(0, slot)


@pytest.fixture
def db():
    database = Database(pages_per_partition=[32], policy="general")
    for slot in range(8):
        database.execute(PhysicalWrite(pid(slot), ("v", slot)))
    database.checkpoint()
    return database


class TestCleanBackups:
    def test_engine_backup_validates(self, db):
        db.start_backup(BackupConfig(steps=4))
        db.run_backup()
        report = db.validate_backup()
        assert report.ok, report.findings
        assert report.pages_checked == 32

    def test_engine_backup_with_concurrent_splits_validates(self, db):
        old, new = pid(20), pid(2)
        db.execute(PhysicalWrite(old, tuple((k, k) for k in range(8))))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=4))
        db.backup_step(5)
        db.execute(MovRec(old, 3, new))
        db.execute(RmvRec(old, 3))
        db.checkpoint()
        db.run_backup()
        report = db.validate_backup()
        assert report.ok, report.findings

    def test_summary_format(self, db):
        db.start_backup(BackupConfig(steps=4))
        db.run_backup()
        summary = db.validate_backup().summary()
        assert "OK" in summary


class TestBrokenBackups:
    def test_naive_dump_with_straddling_split_flagged(self, db):
        """The Figure 1 image fails validation with an order-violation
        finding — no restore needed to know it is unsafe."""
        old, new = pid(20), pid(2)
        db.execute(PhysicalWrite(old, tuple((k, k) for k in range(8))))
        db.checkpoint()
        naive = NaiveFuzzyDump(db.cm, storage=db.storage)
        naive.start_backup()
        naive.copy_some(5)
        db.execute(MovRec(old, 3, new))
        db.execute(RmvRec(old, 3))
        db.checkpoint()
        backup = naive.run_to_completion()
        report = db.validate_backup(backup=backup)
        assert not report.ok
        assert any(f.code == "order-violation" for f in report.findings)

    def test_incomplete_backup_flagged(self, db):
        db.start_backup(BackupConfig(steps=4))
        run = db.engine.active
        report = db.validate_backup(backup=run.backup)
        assert not report.ok
        assert report.findings[0].code == "incomplete"
        db.run_backup()

    def test_truncated_log_flagged(self, db):
        db.start_backup(BackupConfig(steps=4))
        backup = db.run_backup()
        db.execute(PhysiologicalWrite(pid(0), "stamp", ("x",)))
        db.flush_page(pid(0))
        db.retire_backup(backup)
        db.start_backup(BackupConfig(steps=4))
        db.run_backup()
        db.truncate_log()
        report = db.validate_backup(backup=backup)
        assert not report.ok
        assert report.findings[0].code == "log-truncated"


class TestIncrementalValidation:
    def test_incremental_warns_without_base(self, db):
        db.start_backup(BackupConfig(steps=4))
        db.run_backup()
        db.execute(PhysiologicalWrite(pid(3), "stamp", ("x",)))
        db.start_backup(BackupConfig(steps=4, incremental=True))
        incremental = db.run_backup()
        report = db.validate_backup(backup=incremental)
        assert report.ok  # warning, not fatal
        assert any(f.code == "needs-base" for f in report.findings)

    def test_incremental_with_base_chain_validates(self, db):
        db.start_backup(BackupConfig(steps=4))
        full = db.run_backup()
        db.execute(PhysiologicalWrite(pid(3), "stamp", ("x",)))
        db.start_backup(BackupConfig(steps=4, incremental=True))
        incremental = db.run_backup()
        report = db.validate_backup(
            backup=incremental, base_chain=[full]
        )
        assert report.ok
        assert not any(f.code == "needs-base" for f in report.findings)
