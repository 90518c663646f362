"""Integration: recovery composition and idempotence edge cases.

Recovery paths must compose: recovering twice, backing up right after a
recovery, media recovery following crash recovery, crashing during the
post-recovery workload — none of these may corrupt state.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.workloads import mixed_logical_workload


def build_db(seed=0, ops=120, pages=48):
    db = Database(pages_per_partition=[pages], policy="general")
    rng = random.Random(seed)
    for op in mixed_logical_workload(db.layout, seed=seed, count=ops):
        db.execute(op)
        if rng.random() < 0.3:
            db.install_some(1, rng)
    return db, rng


class TestIdempotence:
    def test_recover_twice(self):
        db, _ = build_db()
        db.crash()
        first = db.recover()
        assert first.ok
        db.crash()
        second = db.recover()
        assert second.ok
        assert second.replayed == 0  # nothing left to redo

    def test_media_recover_twice_from_same_backup(self):
        db, _ = build_db()
        db.start_backup(BackupConfig(steps=4))
        backup = db.run_backup()
        db.media_failure()
        assert db.media_recover(backup=backup).ok
        db.media_failure()
        assert db.media_recover(backup=backup).ok

    def test_replay_is_idempotent_over_recovered_state(self):
        """Running redo again over an already-recovered S changes
        nothing (the LSN test skips everything)."""
        from repro.recovery.crash_recovery import run_crash_recovery

        db, _ = build_db()
        db.crash()
        db.recover()
        snapshot = db.stable.snapshot()
        outcome = run_crash_recovery(
            db.stable, db.log, scan_start_lsn=1, apply_to_stable=True
        )
        assert outcome.replayed == 0
        assert db.stable.snapshot() == snapshot


class TestComposition:
    def test_backup_immediately_after_crash_recovery(self):
        db, rng = build_db()
        db.crash()
        assert db.recover().ok
        db.start_backup(BackupConfig(steps=4))
        backup = db.run_backup()
        report = db.validate_backup(backup)
        assert report.ok, report.findings
        db.media_failure()
        assert db.media_recover(backup=backup).ok

    def test_media_recovery_then_new_work_then_crash(self):
        db, rng = build_db()
        db.start_backup(BackupConfig(steps=4))
        db.run_backup()
        db.media_failure()
        assert db.media_recover().ok
        # New work after the restore...
        for op in mixed_logical_workload(db.layout, seed=9, count=40):
            db.execute(op)
            if rng.random() < 0.3:
                db.install_some(1, rng)
        db.crash()
        assert db.recover().ok

    def test_two_generations_of_backup_after_recovery(self):
        db, rng = build_db()
        db.start_backup(BackupConfig(steps=4))
        first = db.run_backup()
        db.media_failure()
        assert db.media_recover(backup=first).ok
        for op in mixed_logical_workload(db.layout, seed=11, count=30):
            db.execute(op)
        db.start_backup(BackupConfig(steps=4))
        second = db.run_backup()
        db.media_failure()
        # Both generations still roll forward to the current state.
        assert db.media_recover(backup=second).ok
        db.media_failure()
        assert db.media_recover(backup=first).ok

    def test_crash_between_incremental_links(self):
        db, rng = build_db()
        db.checkpoint()
        db.start_backup(BackupConfig(steps=4))
        full = db.run_backup()
        for op in mixed_logical_workload(db.layout, seed=5, count=20):
            db.execute(op)
        db.crash()
        assert db.recover().ok
        for op in mixed_logical_workload(db.layout, seed=6, count=20):
            db.execute(op)
        db.start_backup(BackupConfig(steps=4, incremental=True))
        incremental = db.run_backup()
        db.media_failure()
        outcome = db.media_recover_chain([full, incremental])
        assert outcome.ok, outcome.diffs[:3]
