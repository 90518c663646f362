"""Integration: media recovery from online backups under interleavings.

The central correctness property of the paper: for every interleaving of
update activity with the backup sweep, the completed backup plus the
media recovery log reproduce the current state.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.sim.runner import InterleavedRun
from repro.workloads import (
    copy_chain_workload,
    fresh_copy_workload,
    mixed_logical_workload,
    tree_split_workload,
)


def interleaved_backup(
    policy,
    workload_factory,
    seed,
    steps=4,
    pages=96,
    ops_per_tick=3,
    backup_pages_per_tick=4,
):
    db = Database(pages_per_partition=[pages], policy=policy)
    workload = workload_factory(db)
    run = InterleavedRun(
        db,
        workload,
        seed=seed,
        ops_per_tick=ops_per_tick,
        installs_per_tick=2,
        backup=BackupConfig(steps=steps, pages_per_tick=backup_pages_per_tick),
    )
    result = run.run(max_ticks=5000)
    assert result.backup is not None, "backup did not complete"
    return db, result


class TestGeneralOperations:
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_workload_recovers(self, seed):
        db, _ = interleaved_backup(
            "general",
            lambda db: mixed_logical_workload(db.layout, seed=seed, count=100_000),
            seed,
        )
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok, outcome.diffs[:3]

    @pytest.mark.parametrize("seed", range(4))
    def test_copy_chains_recover(self, seed):
        db, _ = interleaved_backup(
            "general",
            lambda db: copy_chain_workload(db.layout, seed=seed, count=100_000),
            seed,
        )
        db.media_failure()
        assert db.media_recover().ok

    @pytest.mark.parametrize("steps", [1, 2, 8, 16])
    def test_any_step_count_recovers(self, steps):
        db, _ = interleaved_backup(
            "general",
            lambda db: mixed_logical_workload(db.layout, seed=7, count=100_000),
            seed=7,
            steps=steps,
        )
        db.media_failure()
        assert db.media_recover().ok


class TestTreeOperations:
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_splits_recover(self, seed):
        db, _ = interleaved_backup(
            "tree",
            lambda db: tree_split_workload(db.layout, seed=seed, count=100_000),
            seed,
        )
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok, outcome.diffs[:3]

    @pytest.mark.parametrize("seed", range(3))
    def test_fresh_copy_tree_recovers(self, seed):
        db, _ = interleaved_backup(
            "tree",
            lambda db: fresh_copy_workload(
                db.layout,
                seed=seed,
                tree_ops=True,
                is_clean=lambda p: not db.cm.is_dirty(p),
            ),
            seed,
        )
        db.media_failure()
        assert db.media_recover().ok

    def test_tree_policy_logs_less_than_general(self):
        """The headline of section 4: same workload shape, far fewer
        Iw/oF records under the tree policy."""
        fractions = {}
        for policy in ("general", "tree"):
            db, _ = interleaved_backup(
                policy,
                lambda db: fresh_copy_workload(
                    db.layout,
                    seed=1,
                    tree_ops=(policy == "tree"),
                    is_clean=lambda p: not db.cm.is_dirty(p),
                ),
                seed=1,
                steps=8,
                pages=512,
            )
            fractions[policy] = db.metrics.extra_logging_fraction
            db.media_failure()
            assert db.media_recover().ok
        assert fractions["tree"] < fractions["general"] * 0.7


class TestBackupContents:
    def test_updates_after_completion_not_in_backup(self):
        from repro.ids import PageId
        from repro.ops.physical import PhysicalWrite

        db = Database(pages_per_partition=[16], policy="general")
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        db.execute(PhysicalWrite(PageId(0, 0), "late"))
        db.checkpoint()
        assert backup.read_page(PageId(0, 0)).value is None
        db.media_failure()
        outcome = db.media_recover(backup=backup)
        assert outcome.ok  # rolled forward past the late update

    def test_multiple_sequential_backups(self):
        db = Database(pages_per_partition=[48], policy="general")
        rng = random.Random(0)
        source = mixed_logical_workload(db.layout, seed=0, count=100_000)
        for round_number in range(3):
            db.start_backup(BackupConfig(steps=4))
            while db.backup_in_progress():
                db.backup_step(6)
                db.execute(next(source))
                db.install_some(2, rng)
        assert len(db.engine.completed) == 3
        db.media_failure()
        # Any completed backup can restore to the present.
        for backup in db.engine.completed:
            db.stable.fail_media()
            outcome = db.media_recover(backup=backup)
            assert outcome.ok, f"backup {backup.backup_id} failed"


class TestMultiPartition:
    @pytest.mark.parametrize("seed", range(3))
    def test_parallel_partition_backup_recovers(self, seed):
        """Three partitions swept in parallel, with operations that may
        span partitions (the general policy checks each page against its
        own partition's progress under all the relevant latches)."""
        db = Database(pages_per_partition=[32, 32, 32], policy="general")
        rng = random.Random(seed)
        source = mixed_logical_workload(db.layout, seed=seed, count=100_000)
        db.start_backup(BackupConfig(steps=4))
        while db.backup_in_progress():
            db.backup_step(6)
            db.execute(next(source))
            db.install_some(2, rng)
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok, outcome.diffs[:3]
