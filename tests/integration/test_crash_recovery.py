"""Integration: crash recovery under adversarial logical workloads.

Crash at every point of a workload (after each tick), recover, compare
with the oracle.  Exercises write-graph-ordered flushing + LSN redo.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.workloads import (
    copy_chain_workload,
    mixed_logical_workload,
    page_oriented_workload,
    tree_split_workload,
)

WORKLOADS = {
    "page": (page_oriented_workload, "page-oriented"),
    "chain": (copy_chain_workload, "general"),
    "mixed": (mixed_logical_workload, "general"),
    "tree": (tree_split_workload, "tree"),
}


def run_and_crash(workload_name, crash_after_ops, seed=0, pages=48):
    generator, policy = WORKLOADS[workload_name]
    db = Database(pages_per_partition=[pages], policy=policy)
    rng = random.Random(seed)
    count = 0
    for op in generator(db.layout, seed=seed, count=crash_after_ops + 50):
        if count >= crash_after_ops:
            break
        db.execute(op)
        count += 1
        if rng.random() < 0.3:
            db.install_some(1, rng)
    db.crash()
    return db.recover()


class TestCrashSweep:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("crash_after", [0, 1, 5, 20, 60, 150])
    def test_recover_at_any_point(self, workload, crash_after):
        outcome = run_and_crash(workload, crash_after)
        assert outcome.ok, (
            f"{workload} crash@{crash_after}: {outcome.summary()} "
            f"{outcome.diffs[:3]}"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_recover_across_seeds(self, seed):
        outcome = run_and_crash("mixed", 100, seed=seed)
        assert outcome.ok, outcome.diffs[:3]


class TestRepeatedCrashes:
    def test_crash_recover_crash_recover(self):
        """Recovery itself must leave a state that can recover again."""
        db = Database(pages_per_partition=[48], policy="general")
        rng = random.Random(1)
        source = mixed_logical_workload(db.layout, seed=1, count=300)
        for round_number in range(3):
            for _ in range(80):
                op = next(source, None)
                if op is None:
                    break
                db.execute(op)
                if rng.random() < 0.25:
                    db.install_some(1, rng)
            db.crash()
            outcome = db.recover()
            assert outcome.ok, f"round {round_number}: {outcome.diffs[:3]}"

    def test_unforced_tail_lost_consistently(self):
        db = Database(
            pages_per_partition=[48], policy="general", auto_force_log=False
        )
        ops = list(mixed_logical_workload(db.layout, seed=2, count=60))
        for op in ops[:30]:
            db.execute(op)
        db.log.force()
        for op in ops[30:]:
            db.execute(op)
        lost = db.crash()
        assert lost == 30
        outcome = db.recover()
        assert outcome.ok


class TestCrashDuringBackup:
    @pytest.mark.parametrize("crash_tick", [0, 2, 5, 9])
    def test_backup_aborts_and_s_recovers(self, crash_tick):
        db = Database(pages_per_partition=[64], policy="general")
        rng = random.Random(3)
        source = mixed_logical_workload(db.layout, seed=3, count=500)
        db.start_backup(BackupConfig(steps=4))
        for tick in range(crash_tick):
            db.backup_step(4)
            for _ in range(3):
                op = next(source, None)
                if op is not None:
                    db.execute(op)
            db.install_some(2, rng)
        db.crash()
        outcome = db.recover()
        assert outcome.ok, outcome.diffs[:3]
        assert db.latest_backup() is None

    def test_previous_backup_still_usable_after_crash(self):
        """Crash during backup #2: media recovery falls back to #1."""
        db = Database(pages_per_partition=[64], policy="general")
        rng = random.Random(4)
        source = mixed_logical_workload(db.layout, seed=4, count=500)
        for _ in range(50):
            db.execute(next(source))
        db.start_backup(BackupConfig(steps=4))
        first = db.run_backup()
        for _ in range(50):
            db.execute(next(source))
        db.start_backup(BackupConfig(steps=4))
        db.backup_step(8)
        db.crash()
        assert db.recover().ok
        # After crash recovery S is current; the old backup still rolls
        # forward to the present.
        db.media_failure()
        outcome = db.media_recover(backup=first)
        assert outcome.ok, outcome.diffs[:3]
