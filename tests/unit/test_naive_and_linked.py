"""Unit tests for the two baselines: naive fuzzy dump and linked flush."""

import pytest

from repro.core.linked_flush import LinkedFlushBackup
from repro.core.naive_backup import NaiveFuzzyDump
from repro.db import Database
from repro.errors import BackupError
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite


def pid(slot):
    return PageId(0, slot)


@pytest.fixture
def db():
    return Database(pages_per_partition=[16], policy="general")


def naive_of(db):
    return NaiveFuzzyDump(db.cm, storage=db.storage)


def linked_of(db):
    return LinkedFlushBackup(db.cm, storage=db.storage)


class TestNaiveFuzzyDump:
    def test_copies_everything_without_touching_progress(self, db):
        naive = naive_of(db)
        naive.start_backup()
        backup = naive.run_to_completion()
        assert backup.copied_count() == 16
        assert not db.cm.progress[0].active
        assert db.cm.latches[0].exclusive_acquisitions == 0

    def test_no_iwof_is_ever_generated(self, db):
        naive = naive_of(db)
        db.execute(PhysicalWrite(pid(0), "x"))
        naive.start_backup()
        naive.copy_some(4)
        db.execute(CopyOp(pid(0), pid(8)))
        db.checkpoint()
        naive.run_to_completion()
        assert db.log.iwof_count() == 0

    def test_double_start_rejected(self, db):
        naive = naive_of(db)
        naive.start_backup()
        with pytest.raises(BackupError):
            naive.start_backup()

    def test_copy_without_start_rejected(self, db):
        naive = naive_of(db)
        with pytest.raises(BackupError):
            naive.copy_some(1)

    def test_correct_for_page_oriented_ops(self):
        """With page-oriented ops the naive dump IS recoverable (§1.2)."""
        db = Database(pages_per_partition=[16], policy="page-oriented")
        naive = naive_of(db)
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("v", slot)))
        naive.start_backup()
        naive.copy_some(8)
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("v2", slot)))
        db.checkpoint()
        backup = naive.run_to_completion()
        db.media_failure()
        outcome = db.media_recover(backup=backup)
        assert outcome.ok


class TestLinkedFlush:
    def test_backup_is_current_and_recoverable(self, db):
        linked = linked_of(db)
        db.execute(PhysicalWrite(pid(0), "a"))
        db.execute(CopyOp(pid(0), pid(1)))
        backup = linked.run()
        # Linked flush forces everything through: B holds current values.
        assert backup.read_page(pid(1)).value == "a"
        db.media_failure()
        assert db.media_recover(backup=backup).ok

    def test_cost_is_counted(self, db):
        linked = linked_of(db)
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), slot))
        linked.run()
        assert linked.forced_flushes == 8
        assert linked.pages_copied == 16
        assert db.metrics.linked_flushes == 8
