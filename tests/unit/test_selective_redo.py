"""Unit tests for selective redo / taint exclusion (§6.3, direction 3)."""

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import RecoveryError
from repro.ids import PageId
from repro.ops.logical import CopyOp, GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery.selective_redo import compute_taint
from repro.wal.log_manager import LogManager


def pid(slot):
    return PageId(0, slot)


def logged(pairs):
    """pairs of (op, source) → records."""
    log = LogManager()
    return [log.append(op, source=source) for op, source in pairs]


def corrupt_by(source):
    return lambda record: record.source == source


class TestTaintClosure:
    def test_no_corruption_no_taint(self):
        records = logged([(PhysicalWrite(pid(0), 1), "good")])
        analysis = compute_taint(records, corrupt_by("bad"))
        assert analysis.excluded == set()

    def test_direct_corruption(self):
        records = logged([
            (PhysicalWrite(pid(0), 1), "good"),
            (PhysicalWrite(pid(1), 666), "bad"),
        ])
        analysis = compute_taint(records, corrupt_by("bad"))
        assert analysis.directly_corrupt == [2]
        assert analysis.collateral == []
        assert analysis.tainted_pages_at_end == {pid(1)}

    def test_reader_of_tainted_page_is_collateral(self):
        records = logged([
            (PhysicalWrite(pid(0), 666), "bad"),
            (CopyOp(pid(0), pid(1)), "good"),       # consumed corruption
            (CopyOp(pid(1), pid(2)), "good"),       # transitively
        ])
        analysis = compute_taint(records, corrupt_by("bad"))
        assert analysis.directly_corrupt == [1]
        assert analysis.collateral == [2, 3]
        assert analysis.tainted_pages_at_end == {pid(0), pid(1), pid(2)}

    def test_blind_overwrite_cleanses(self):
        records = logged([
            (PhysicalWrite(pid(0), 666), "bad"),
            (PhysicalWrite(pid(0), 7), "good"),     # cleanses pid(0)
            (CopyOp(pid(0), pid(1)), "good"),       # reads clean value
        ])
        analysis = compute_taint(records, corrupt_by("bad"))
        assert analysis.excluded == {1}
        assert analysis.tainted_pages_at_end == set()

    def test_kept_derivation_cleanses(self):
        records = logged([
            (PhysicalWrite(pid(5), "clean"), "good"),
            (PhysicalWrite(pid(0), 666), "bad"),
            (CopyOp(pid(5), pid(0)), "good"),       # overwrite from clean
            (PhysiologicalWrite(pid(0), "stamp", ("t",)), "good"),
        ])
        analysis = compute_taint(records, corrupt_by("bad"))
        assert analysis.excluded == {2}


@pytest.fixture
def db():
    database = Database(pages_per_partition=[32], policy="general")
    for slot in range(8):
        database.execute(
            PhysicalWrite(pid(slot), ("clean", slot)), source="app"
        )
    database.checkpoint()
    database.start_backup(BackupConfig(steps=2))
    database.run_backup(BackupConfig(pages_per_tick=16))
    return database


class TestSelectiveRecovery:
    def test_excludes_corruption_keeps_the_rest(self, db):
        db.execute(PhysicalWrite(pid(1), "GARBAGE"), source="intruder")
        db.execute(
            PhysiologicalWrite(pid(2), "stamp", ("good",)), source="app"
        )
        result = db.selective_recover("intruder")
        assert result.ok
        assert db.read(pid(1)) == ("clean", 1)
        assert db.read(pid(2))[1] == "good"

    def test_collateral_reported_and_excluded(self, db):
        db.execute(PhysicalWrite(pid(1), "GARBAGE"), source="intruder")
        db.execute(CopyOp(pid(1), pid(20)), source="app")
        result = db.selective_recover("intruder")
        assert result.analysis.collateral
        assert result.ok
        assert db.read(pid(20)) is None

    def test_no_corruption_recovers_everything(self, db):
        db.execute(
            PhysiologicalWrite(pid(0), "stamp", ("x",)), source="app"
        )
        result = db.selective_recover("ghost")
        assert result.analysis.excluded == set()
        assert result.ok
        # Identical to ordinary media recovery in this case.
        assert db.read(pid(0))[1] == "x"

    def test_corruption_inside_backup_refused(self, db):
        """Corruption before the backup completed may be in the image."""
        db.execute(PhysicalWrite(pid(1), "OLD-GARBAGE"), source="intruder")
        db.checkpoint()
        db.start_backup(BackupConfig(steps=2))
        late_backup = db.run_backup(BackupConfig(pages_per_tick=16))
        with pytest.raises(RecoveryError):
            db.selective_recover("intruder", backup=late_backup)

    def test_older_backup_can_still_exclude(self, db):
        first = db.latest_backup()
        db.execute(PhysicalWrite(pid(1), "GARBAGE"), source="intruder")
        db.checkpoint()
        db.start_backup(BackupConfig(steps=2))
        db.run_backup(BackupConfig(pages_per_tick=16))
        result = db.selective_recover("intruder", backup=first)
        assert result.ok
        assert db.read(pid(1)) == ("clean", 1)

    def test_database_usable_after_selective_recovery(self, db):
        db.execute(PhysicalWrite(pid(1), "GARBAGE"), source="intruder")
        db.selective_recover("intruder")
        db.execute(
            PhysiologicalWrite(pid(1), "stamp", ("after",)), source="app"
        )
        assert db.read(pid(1))[1] == "after"
