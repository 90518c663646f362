"""Integration: the log-shipping standby replica.

The standby applies the primary's log with the same redo machinery; its
seed comes from an online backup — which is exactly where the paper's
protocol matters: a standby seeded from a NAIVE fuzzy dump can be
silently wrong under logical operations, while the engine's backup
seeds correctly for every interleaving.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.core.naive_backup import NaiveFuzzyDump
from repro.core.standby import StandbyReplica
from repro.db import Database
from repro.errors import ReproError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.ops.tree import MovRec, RmvRec
from repro.workloads import mixed_logical_workload


def pid(slot):
    return PageId(0, slot)


def primary_with_backup(seed=0, pages=48, ops=80):
    db = Database(pages_per_partition=[pages], policy="general")
    rng = random.Random(seed)
    source = mixed_logical_workload(db.layout, seed=seed, count=100_000)
    for _ in range(ops // 2):
        db.execute(next(source))
        if rng.random() < 0.3:
            db.install_some(1, rng)
    db.start_backup(BackupConfig(steps=4))
    while db.backup_in_progress():
        db.backup_step(8)
        db.execute(next(source))
        db.install_some(1, rng)
    for _ in range(ops // 2):
        db.execute(next(source))
        if rng.random() < 0.3:
            db.install_some(1, rng)
    return db, db.latest_backup(), rng, source


class TestSeedAndCatchUp:
    def test_seeded_standby_matches_primary(self):
        db, backup, _, _ = primary_with_backup()
        standby = StandbyReplica.seed_from_backup(
            backup, db.log, db.layout
        )
        assert standby.lag() == 0
        assert standby.is_consistent_with(db.oracle_state())

    def test_standby_tracks_ongoing_updates(self):
        db, backup, rng, source = primary_with_backup()
        standby = StandbyReplica.seed_from_backup(
            backup, db.log, db.layout
        )
        for _ in range(30):
            db.execute(next(source))
        assert standby.lag() == 30
        processed = standby.catch_up()
        assert processed == 30
        assert standby.is_consistent_with(db.oracle_state())

    def test_incremental_catch_up_in_chunks(self):
        db, backup, _, source = primary_with_backup()
        standby = StandbyReplica.seed_from_backup(
            backup, db.log, db.layout
        )
        for _ in range(20):
            db.execute(next(source))
        end = db.log.end_lsn
        standby.catch_up(up_to=end - 10)
        assert standby.lag() == 10
        standby.catch_up()
        assert standby.lag() == 0
        assert standby.is_consistent_with(db.oracle_state())

    def test_reapplying_overlap_is_idempotent(self):
        db, backup, _, _ = primary_with_backup()
        standby = StandbyReplica.seed_from_backup(
            backup, db.log, db.layout
        )
        before = {p: standby.read_page(p) for p in db.layout.all_pages()}
        # Force a re-apply of an already-applied range.
        standby.applied_through -= 15
        standby.catch_up()
        after = {p: standby.read_page(p) for p in db.layout.all_pages()}
        assert before == after


class TestSeedCorrectnessNeedsTheProtocol:
    def test_naive_dump_seed_is_wrong_under_logical_ops(self):
        """Seeding a standby from the Figure 1 naive dump carries the
        corruption into the replica."""
        db = Database(pages_per_partition=[32], policy="general")
        old, new = pid(20), pid(2)
        db.execute(PhysicalWrite(old, tuple((k, k) for k in range(8))))
        db.checkpoint()
        naive = NaiveFuzzyDump(db.cm, storage=db.storage)
        naive.start_backup()
        naive.copy_some(5)
        db.execute(MovRec(old, 3, new))
        db.execute(RmvRec(old, 3))
        db.checkpoint()
        naive_backup = naive.run_to_completion()
        standby = StandbyReplica.seed_from_backup(
            naive_backup, db.log, db.layout
        )
        assert not standby.is_consistent_with(db.oracle_state())

    def test_engine_seed_is_right_for_the_same_interleaving(self):
        db = Database(pages_per_partition=[32], policy="general")
        old, new = pid(20), pid(2)
        db.execute(PhysicalWrite(old, tuple((k, k) for k in range(8))))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=4))
        db.backup_step(5)
        db.execute(MovRec(old, 3, new))
        db.execute(RmvRec(old, 3))
        db.checkpoint()
        backup = db.run_backup()
        standby = StandbyReplica.seed_from_backup(backup, db.log, db.layout)
        assert standby.is_consistent_with(db.oracle_state())


class TestFailover:
    def test_promote_matches_primary_state(self):
        db, backup, _, source = primary_with_backup()
        standby = StandbyReplica.seed_from_backup(
            backup, db.log, db.layout
        )
        for _ in range(10):
            db.execute(next(source))
        promoted = standby.promote()
        expected = db.oracle_state()
        for page, value in expected.items():
            assert promoted.stable.read_page(page).value == value

    def test_promoted_primary_fully_functional(self):
        db, backup, rng, source = primary_with_backup()
        standby = StandbyReplica.seed_from_backup(
            backup, db.log, db.layout
        )
        promoted = standby.promote()
        # Serve new work, back up, lose media, recover — the full cycle.
        new_source = mixed_logical_workload(
            promoted.layout, seed=99, count=100_000
        )
        for _ in range(30):
            promoted.execute(next(new_source))
            promoted.install_some(1, rng)
        promoted.start_backup(BackupConfig(steps=4))
        promoted.run_backup(BackupConfig(pages_per_tick=16))
        promoted.media_failure()
        outcome = promoted.media_recover()
        assert outcome.ok, outcome.diffs[:3]

    def test_promoted_crash_recovery_sees_new_epoch(self):
        """Inherited pages got LSN-epoch zero: new work redoes properly."""
        db, backup, _, _ = primary_with_backup()
        standby = StandbyReplica.seed_from_backup(backup, db.log, db.layout)
        promoted = standby.promote()
        promoted.execute(PhysicalWrite(pid(0), "new-epoch"))
        promoted.crash()  # nothing flushed: pure redo from the new log
        outcome = promoted.recover()
        assert outcome.ok
        assert promoted.stable.read_page(pid(0)).value == "new-epoch"

    def test_standby_unusable_after_promotion(self):
        db, backup, _, _ = primary_with_backup()
        standby = StandbyReplica.seed_from_backup(backup, db.log, db.layout)
        standby.promote()
        with pytest.raises(ReproError):
            standby.catch_up()
