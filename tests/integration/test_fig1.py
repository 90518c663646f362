"""Integration: the Figure 1 scenario — the paper's motivating failure.

A B-tree node splits while a backup sweep has already copied the new
page's location but not the old page's.  With logical MovRec/RmvRec
logging:

* the conventional fuzzy dump produces an unrecoverable backup (the
  moved records exist neither in B nor on the log);
* the paper's engine produces a recoverable one (Iw/oF put the needed
  value on the media log).
"""

import pytest

from repro.core.config import BackupConfig
from repro.core.naive_backup import NaiveFuzzyDump
from repro.harness.experiments import fig1_scenario
from repro.recovery.explain import find_order_violations


class TestFigure1:
    def test_naive_dump_is_unrecoverable(self):
        outcome = fig1_scenario("naive")
        assert not outcome.recovered
        assert outcome.diffs >= 1
        assert not outcome.moved_records_in_backup

    def test_engine_is_recoverable(self):
        outcome = fig1_scenario("engine")
        assert outcome.recovered

    def test_order_violation_detected_structurally(self):
        """The naive backup image violates the write-graph order for B."""
        from repro.db import Database
        from repro.ids import PageId
        from repro.ops.physical import PhysicalWrite
        from repro.ops.tree import MovRec, RmvRec

        db = Database(pages_per_partition=[32], policy="general")
        old, new = PageId(0, 20), PageId(0, 2)
        db.execute(PhysicalWrite(old, tuple((k, k) for k in range(10))))
        db.checkpoint()
        naive = NaiveFuzzyDump(db.cm, storage=db.storage)
        naive.start_backup()
        naive.copy_some(5)
        db.execute(MovRec(old, 4, new))
        db.execute(RmvRec(old, 4))
        db.checkpoint()
        backup = naive.run_to_completion()
        records = list(db.log.scan(backup.media_scan_start_lsn))
        violations = find_order_violations(backup.pages(), records)
        assert violations
        assert violations[0].page == old
        assert new in violations[0].lost_targets

    def test_engine_backup_is_structurally_clean(self):
        from repro.db import Database
        from repro.ids import PageId
        from repro.ops.physical import PhysicalWrite
        from repro.ops.tree import MovRec, RmvRec

        db = Database(pages_per_partition=[32], policy="general")
        old, new = PageId(0, 20), PageId(0, 2)
        db.execute(PhysicalWrite(old, tuple((k, k) for k in range(10))))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=4))
        db.backup_step(5)
        db.execute(MovRec(old, 4, new))
        db.execute(RmvRec(old, 4))
        db.checkpoint()
        backup = db.run_backup()
        records = list(db.log.scan(backup.media_scan_start_lsn))
        assert find_order_violations(backup.pages(), records) == []

    def test_naive_dump_fine_when_split_not_straddling(self):
        """If the whole split lands in the pending region, even the naive
        dump survives — the failure needs the interleaving of Figure 1."""
        from repro.db import Database
        from repro.ids import PageId
        from repro.ops.physical import PhysicalWrite
        from repro.ops.tree import MovRec, RmvRec

        db = Database(pages_per_partition=[32], policy="general")
        old, new = PageId(0, 20), PageId(0, 25)  # both beyond the frontier
        db.execute(PhysicalWrite(old, tuple((k, k) for k in range(10))))
        db.checkpoint()
        naive = NaiveFuzzyDump(db.cm, storage=db.storage)
        naive.start_backup()
        naive.copy_some(5)
        db.execute(MovRec(old, 4, new))
        db.execute(RmvRec(old, 4))
        db.checkpoint()
        backup = naive.run_to_completion()
        db.media_failure()
        assert db.media_recover(backup=backup).ok
