"""Unit tests for incremental backup (section 6.1)."""

import pytest

from repro.core.incremental import run_media_recovery_chain, validate_chain
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import NoBackupError, RecoveryError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite


def pid(slot):
    return PageId(0, slot)


@pytest.fixture
def db():
    database = Database(pages_per_partition=[32], policy="general")
    for slot in range(32):
        database.execute(PhysicalWrite(pid(slot), ("base", slot)))
    database.checkpoint()
    return database


def take_full(db):
    db.start_backup(BackupConfig(steps=2))
    return db.run_backup(BackupConfig(pages_per_tick=16))


class TestIncrementalCapture:
    def test_requires_base_backup(self, db):
        with pytest.raises(NoBackupError):
            db.start_backup(BackupConfig(incremental=True))

    def test_copies_only_updated_pages(self, db):
        take_full(db)
        for slot in (3, 7, 11):
            db.execute(PhysiologicalWrite(pid(slot), "stamp", ("inc",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        incremental = db.run_backup(BackupConfig(pages_per_tick=16))
        assert set(incremental.copy_order()) == {pid(3), pid(7), pid(11)}
        assert incremental.base_backup_id == 1

    def test_update_set_resets_per_backup(self, db):
        take_full(db)
        db.execute(PhysiologicalWrite(pid(1), "stamp", ("a",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        db.run_backup()
        db.execute(PhysiologicalWrite(pid(2), "stamp", ("b",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        second = db.run_backup()
        assert set(second.copy_order()) == {pid(2)}

    def test_page_dirtied_during_sweep_dynamically_extends(self, db):
        """A pending-region page updated+flushed mid-sweep joins the
        copy set (dynamic extension), keeping Pend truthful."""
        take_full(db)
        db.execute(PhysiologicalWrite(pid(0), "stamp", ("seed",)))
        db.start_backup(BackupConfig(steps=4, incremental=True))
        db.backup_step(1)
        db.execute(PhysiologicalWrite(pid(30), "stamp", ("late",)))
        db.flush_page(pid(30))  # pending & outside set -> extended
        incremental = db.run_backup()
        assert pid(30) in incremental
        assert db.metrics.iwof_records == 0

    def test_without_dynamic_extension_iwof_covers_it(self, db):
        take_full(db)
        db.execute(PhysiologicalWrite(pid(0), "stamp", ("seed",)))
        db.start_backup(BackupConfig(
            steps=4, incremental=True, dynamic_extend=False
        ))
        db.backup_step(1)
        db.execute(PhysiologicalWrite(pid(30), "stamp", ("late",)))
        db.flush_page(pid(30))
        incremental = db.run_backup()
        assert pid(30) not in incremental
        assert db.metrics.iwof_records == 1  # value went to the log instead


class TestChainValidation:
    def test_empty_chain_rejected(self):
        with pytest.raises(NoBackupError):
            validate_chain([])

    def test_incomplete_backup_rejected(self, db):
        db.start_backup(BackupConfig(steps=2))
        run = db.engine.active
        with pytest.raises(NoBackupError):
            validate_chain([run.backup])
        db.run_backup()

    def test_incremental_base_must_be_full(self, db):
        take_full(db)
        db.execute(PhysiologicalWrite(pid(1), "stamp", ("a",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        incremental = db.run_backup()
        with pytest.raises(RecoveryError):
            validate_chain([incremental])

    def test_full_cannot_be_a_link(self, db):
        full1 = take_full(db)
        full2 = take_full(db)
        with pytest.raises(RecoveryError):
            validate_chain([full1, full2])


class TestChainRestore:
    def test_full_plus_incremental_restores(self, db):
        full = take_full(db)
        for slot in (3, 7):
            db.execute(PhysiologicalWrite(pid(slot), "stamp", ("inc",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        incremental = db.run_backup()
        db.media_failure()
        outcome = db.media_recover_chain([full, incremental])
        assert outcome.ok

    def test_chain_replay_covers_earlier_links_windows(self, db):
        """Regression: an update captured only by an EARLIER link's
        media-log window must survive a chain restore.

        The page is updated during the full backup but stays dirty past
        the full's copy of it (stale image); it is flushed before the
        incremental begins, so the incremental's scan start is past the
        update record and its copy set does not include the page.  Only
        replay from the FULL's scan start recovers it."""
        take_full(db)
        # Update during... simulate by updating after the full and
        # flushing before the incremental, with nothing else dirty.
        db.execute(PhysiologicalWrite(pid(5), "stamp", ("only-here",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        first_inc = db.run_backup(BackupConfig(pages_per_tick=16))
        # pid(5) flushed now: its recLSN clears before the next link.
        db.flush_page(pid(5))
        db.execute(PhysiologicalWrite(pid(9), "stamp", ("later",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        second_inc = db.run_backup(BackupConfig(pages_per_tick=16))
        assert second_inc.media_scan_start_lsn > first_inc.media_scan_start_lsn
        full = db.engine.completed[0]
        db.media_failure()
        outcome = db.media_recover_chain([full, first_inc, second_inc])
        assert outcome.ok, outcome.diffs[:3]
        assert db.stable.read_page(pid(5)).value[1] == "only-here"

    def test_two_link_chain(self, db):
        full = take_full(db)
        db.execute(PhysiologicalWrite(pid(3), "stamp", ("inc1",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        inc1 = db.run_backup()
        db.execute(PhysiologicalWrite(pid(9), "stamp", ("inc2",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        inc2 = db.run_backup()
        db.media_failure()
        outcome = db.media_recover_chain([full, inc1, inc2])
        assert outcome.ok


class TestAbortedSweepKeepsUpdates:
    """A sweep that aborts hands its copy set back: the pages dirtied
    before it started reach the next incremental that seals."""

    @pytest.mark.parametrize("backend", ["memory", "file"])
    @pytest.mark.parametrize("failure", ["crash", "media_failure"])
    def test_pages_owed_by_aborted_sweep_reach_next_incremental(
        self, tmp_path, backend, failure
    ):
        database = Database(
            pages_per_partition=[16], policy="general", backend=backend,
            data_dir=str(tmp_path) if backend == "file" else None,
        )
        try:
            for slot in range(16):
                database.execute(PhysicalWrite(pid(slot), ("base", slot)))
            database.checkpoint()
            database.start_backup(BackupConfig(steps=2))
            database.run_backup(BackupConfig(pages_per_tick=16))
            database.execute(PhysicalWrite(pid(3), ("owed",)))
            database.start_backup(BackupConfig(steps=2, incremental=True))
            database.backup_step(1)
            if failure == "crash":
                database.crash()
                assert database.recover().ok
            else:
                database.media_failure()
                assert database.media_recover().ok
            database.execute(PhysicalWrite(pid(9), ("later",)))
            database.start_backup(BackupConfig(steps=2, incremental=True))
            incremental = database.run_backup(BackupConfig(pages_per_tick=16))
            assert sorted(incremental.copy_order()) == [pid(3), pid(9)]
        finally:
            database.close()

    def test_sealed_sweep_discharges_its_pages(self, db):
        take_full(db)
        db.execute(PhysicalWrite(pid(3), ("sealed",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        db.run_backup()
        db.crash()
        db.recover()
        assert db.updated_since_backup == set()


def test_concurrent_extensions_keep_copy_set_sorted():
    """Flushers extend the copy set holding only their partition's
    shared latch, so extensions race: every extended slot must land
    once, in order."""
    import sys
    import threading

    database = Database(pages_per_partition=[4096], policy="general")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _attempt in range(4):
            run = database.engine.start_backup(steps=2, update_set={pid(0)})
            pending = database.cm.progress[0].pending
            slots = list(range(pending, 4096))

            def extend(offset):
                for slot in slots[offset::8]:
                    run.will_copy(pid(slot))

            threads = [threading.Thread(target=extend, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert run._copy_slots[0] == [0] + slots
            database.engine.abort_active()
    finally:
        sys.setswitchinterval(interval)
