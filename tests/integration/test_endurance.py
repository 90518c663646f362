"""Integration: endurance — many operational cycles on one database.

Simulates weeks of operation compressed: repeated cycles of workload,
checkpoints, full + incremental backups, log truncation, occasional
crashes, and periodic restore drills.  State must stay verifiable after
every cycle and the log must not grow without bound.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.workloads import mixed_logical_workload


class TestEndurance:
    def test_ten_operational_cycles(self):
        db = Database(pages_per_partition=[96], policy="general")
        rng = random.Random(123)
        source = mixed_logical_workload(db.layout, seed=123, count=10**9)
        log_sizes = []

        for cycle in range(10):
            # Workload burst.
            for _ in range(60):
                db.execute(next(source))
                if rng.random() < 0.4:
                    db.install_some(2, rng)
            db.take_checkpoint()

            # Backup: full every third cycle, incremental otherwise.
            incremental = cycle % 3 != 0 and db.latest_backup() is not None
            db.start_backup(BackupConfig(steps=4, incremental=incremental))
            while db.backup_in_progress():
                db.backup_step(16)
                db.execute(next(source))
                db.install_some(2, rng)

            # Occasional crash.
            if cycle % 4 == 2:
                db.crash()
                assert db.recover().ok

            # Retention: keep the last full backup (and anything after).
            # Obsolete generations retire newest-first: a base cannot be
            # retired while retained incrementals still chain through it
            # (ChainPinnedError).
            fulls = [
                backup
                for backup in db.engine.completed
                if getattr(backup, "base_backup_id", None) is None
            ]
            for backup in reversed(db.engine.completed):
                if backup.completion_lsn < fulls[-1].media_scan_start_lsn:
                    db.retire_backup(backup)
            db.checkpoint()
            db.truncate_log()
            log_sizes.append(len(db.log))

            # Restore drill every few cycles: the latest full + later
            # incrementals must reproduce the current state.
            if cycle % 3 == 2:
                chain = [fulls[-1]] + [
                    backup
                    for backup in db.engine.completed
                    if getattr(backup, "base_backup_id", None) is not None
                    and backup.media_scan_start_lsn
                    >= fulls[-1].media_scan_start_lsn
                    and not db.retention.is_retired(backup)
                ]
                db.media_failure()
                outcome = db.media_recover_chain(chain)
                assert outcome.ok, (
                    f"cycle {cycle}: {outcome.summary()} "
                    f"{outcome.diffs[:2]}"
                )

        # The retained log is bounded: truncation kept it near one
        # backup-cycle of history, far below the total ever written.
        assert db.log.end_lsn > 700
        assert max(log_sizes) < db.log.end_lsn * 0.8

    def test_fifty_backup_generations(self):
        """Backups taken in rapid succession all remain individually
        usable until retired."""
        db = Database(pages_per_partition=[48], policy="general")
        rng = random.Random(5)
        source = mixed_logical_workload(db.layout, seed=5, count=10**9)
        for _ in range(50):
            for _ in range(6):
                db.execute(next(source))
                db.install_some(1, rng)
            db.start_backup(BackupConfig(steps=2))
            db.run_backup(BackupConfig(pages_per_tick=24))
        assert len(db.engine.completed) == 50
        # Spot-check a handful of generations.
        for index in (0, 10, 25, 49):
            db.media_failure()
            outcome = db.media_recover(backup=db.engine.completed[index])
            assert outcome.ok, f"generation {index}"
