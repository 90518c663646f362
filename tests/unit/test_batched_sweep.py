"""The batched backup sweep: serial equivalence and bulk I/O paths.

The batched sweep (``BackupRun._copy_batched``) must copy exactly the
page set a serial round-robin sweep copies, move the D/P frontier at the
same positions, and trigger the same flush-policy decisions — only the
copy *order within one copy_some call* and the number of stable reads
may differ.  These tests drive both paths through identical interleaved
workloads and compare the observable outcomes, then cover the bulk
storage primitives directly.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import BackupError, MediaFailureError, PageNotFoundError
from repro.ids import PageId
from repro.storage.backup_db import BackupDatabase
from repro.storage.layout import Layout
from repro.storage.stable_db import StableDatabase
from repro.workloads import mixed_logical_workload


def run_sweep(batched, incremental=False, dynamic_extend=True):
    """One full backup scenario with a deterministic interleaved workload."""
    db = Database(pages_per_partition=[48, 32], policy="general")
    source = mixed_logical_workload(db.layout, seed=11, count=10**9)
    for _ in range(40):
        db.execute(next(source))
    if incremental:
        db.start_backup(BackupConfig(steps=4, batched=batched))
        db.run_backup(BackupConfig(pages_per_tick=16))
        for _ in range(25):
            db.execute(next(source))
        db.start_backup(BackupConfig(
            steps=4,
            incremental=True,
            dynamic_extend=dynamic_extend,
            batched=batched,
        ))
    else:
        db.start_backup(BackupConfig(steps=4, batched=batched))
    rng = random.Random(5)

    def tick():
        for _ in range(3):
            db.execute(next(source))
        db.install_some(2, rng)

    backup = db.run_backup(BackupConfig(pages_per_tick=7), tick=tick)
    return db, backup


class TestSerialEquivalence:
    @pytest.mark.parametrize("incremental,dynamic_extend", [
        (False, True),
        (True, True),
        (True, False),
    ])
    def test_same_backup_content_and_iwof(self, incremental, dynamic_extend):
        db_b, backup_b = run_sweep(
            True, incremental=incremental, dynamic_extend=dynamic_extend
        )
        db_s, backup_s = run_sweep(
            False, incremental=incremental, dynamic_extend=dynamic_extend
        )
        assert backup_b.pages() == backup_s.pages()
        assert backup_b.copied_count() == backup_s.copied_count()
        assert db_b.metrics.iwof_records == db_s.metrics.iwof_records
        assert db_b.metrics.iwof_during_backup == db_s.metrics.iwof_during_backup
        assert db_b.metrics.backup_pages_copied == db_s.metrics.backup_pages_copied

    def test_batched_recovers_like_serial(self):
        for batched in (True, False):
            db, backup = run_sweep(batched)
            db.media_failure()
            outcome = db.media_recover(backup=backup)
            assert outcome.ok

    def test_batched_uses_bulk_reads_serial_does_not(self):
        db_b, _ = run_sweep(True)
        db_s, _ = run_sweep(False)
        assert db_b.metrics.backup_bulk_reads > 0
        assert db_s.metrics.backup_bulk_reads == 0
        # Batching is the point: far fewer bulk reads than pages copied.
        assert db_b.metrics.backup_bulk_reads < db_b.metrics.backup_pages_copied

    def test_per_call_override(self):
        """A batched run can take serial steps (and vice versa) mid-sweep."""
        db = Database(pages_per_partition=[16], policy="general")
        run = db.start_backup(BackupConfig(steps=2, batched=True))
        run.copy_some(5, batched=False)
        run.copy_some(5)  # run default: batched
        db.run_backup(BackupConfig(pages_per_tick=4))
        assert db.latest_backup().copied_count() == 16


class TestBulkStoragePrimitives:
    def layout(self):
        return Layout([8, 8])

    def test_read_pages_returns_pairs_in_order(self):
        stable = StableDatabase(self.layout(), initial_value=0)
        ids = [PageId(1, 3), PageId(0, 2), PageId(1, 0)]
        entries = stable.read_pages(ids)
        assert [pid for pid, _ in entries] == ids
        for pid, version in entries:
            assert version == stable.read_page(pid)

    def test_read_pages_media_failure(self):
        stable = StableDatabase(self.layout(), initial_value=0)
        stable.fail_media()
        with pytest.raises(MediaFailureError):
            stable.read_pages([PageId(0, 0)])

    def test_read_pages_failed_partition(self):
        stable = StableDatabase(self.layout(), initial_value=0)
        stable.fail_partition(1)
        # Healthy partition still readable in bulk.
        assert len(stable.read_pages([PageId(0, 0), PageId(0, 1)])) == 2
        with pytest.raises(MediaFailureError):
            stable.read_pages([PageId(0, 0), PageId(1, 4)])

    def test_read_pages_unknown_page(self):
        stable = StableDatabase(self.layout(), initial_value=0)
        with pytest.raises(PageNotFoundError):
            stable.read_pages([PageId(0, 99)])

    def test_record_pages_bulk(self):
        stable = StableDatabase(self.layout(), initial_value=0)
        backup = BackupDatabase(backup_id=1, media_scan_start_lsn=1)
        entries = stable.read_pages([PageId(0, s) for s in range(4)])
        backup.record_pages(entries)
        assert backup.copied_count() == 4
        assert backup.copy_order() == [PageId(0, s) for s in range(4)]

    def test_record_pages_rejects_double_copy(self):
        stable = StableDatabase(self.layout(), initial_value=0)
        backup = BackupDatabase(backup_id=1, media_scan_start_lsn=1)
        backup.record_pages(stable.read_pages([PageId(0, 0)]))
        with pytest.raises(BackupError):
            backup.record_pages(stable.read_pages([PageId(0, 1), PageId(0, 0)]))

    def test_record_pages_rejects_sealed_backup(self):
        stable = StableDatabase(self.layout(), initial_value=0)
        backup = BackupDatabase(backup_id=1, media_scan_start_lsn=1)
        backup.complete(completion_lsn=1)
        with pytest.raises(BackupError):
            backup.record_pages(stable.read_pages([PageId(0, 0)]))
