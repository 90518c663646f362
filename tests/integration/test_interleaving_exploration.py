"""Exhaustive interleaving checks around the Figure 1 scenario.

Instead of sampling schedules, enumerate EVERY interleaving of
(logical operations | cache-manager installs | backup copy steps) for
the B-tree-split scenario and variants, and require media recovery to
succeed for all of them.  The naive dump, run under the same explorer,
must fail for at least one interleaving — demonstrating that the
paper's protocol closes a real, reachable hole.
"""

import pytest

from repro.core.config import BackupConfig
from repro.core.naive_backup import NaiveFuzzyDump
from repro.db import Database
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.ops.tree import MovRec, RmvRec
from repro.sim.explorer import InterleavingExplorer, merges


class TestMerges:
    def test_counts_binomial(self):
        # C(4,2) = 6 merges of two 2-element tracks.
        assert len(list(merges([[1, 2], ["a", "b"]]))) == 6

    def test_preserves_track_order(self):
        for schedule in merges([[1, 2, 3], ["a"]]):
            filtered = [x for x in schedule if isinstance(x, int)]
            assert filtered == [1, 2, 3]

    def test_empty_tracks(self):
        assert list(merges([[], []])) == [()]


def split_scenario(engine_kind, steps=4):
    """Figure 1: split straddling the frontier, every interleaving."""

    def factory():
        db = Database(pages_per_partition=[16], policy="general")
        old, new = PageId(0, 12), PageId(0, 1)
        records = tuple((k, f"v{k}") for k in range(6))
        db.execute(PhysicalWrite(old, records))
        db.checkpoint()
        if engine_kind == "engine":
            db.start_backup(BackupConfig(steps=steps))
            copy_track = [lambda: db.backup_step(4) for _ in range(4)]
        else:
            naive = NaiveFuzzyDump(db.cm, storage=db.storage)
            naive.start_backup()
            copy_track = [lambda: naive.copy_some(4) for _ in range(4)]
        op_track = [
            lambda: db.execute(MovRec(old, 2, new)),
            lambda: db.execute(RmvRec(old, 2)),
        ]
        flush_track = [lambda: db.install_some(1), lambda: db.install_some(1)]

        def finish(database):
            database.checkpoint()
            if engine_kind == "engine":
                if database.backup_in_progress():
                    database.run_backup()
                return database.latest_backup()
            if naive.active is not None:
                naive.run_to_completion()
            return naive.latest_backup()

        return db, [op_track, flush_track, copy_track], finish

    return factory


class TestExhaustiveFigure1:
    def test_engine_recovers_under_every_interleaving(self):
        explorer = InterleavingExplorer(split_scenario("engine"))
        result = explorer.explore()
        assert result.interleavings == 420  # 8! / (2! 2! 4!)
        assert result.all_recovered, result.failures[:3]

    def test_naive_fails_for_some_interleaving(self):
        explorer = InterleavingExplorer(split_scenario("naive"))
        result = explorer.explore()
        assert result.interleavings == 420
        assert result.failures, (
            "the naive dump should be unrecoverable for at least one "
            "interleaving"
        )
        # ... but not all: when the split lands entirely in the pending
        # region even the naive dump survives.
        assert result.recovered > 0


def copy_chain_scenario():
    """A copy chain with source overwrites, all interleavings."""

    def factory():
        db = Database(pages_per_partition=[12], policy="general")
        a, b, c = PageId(0, 2), PageId(0, 7), PageId(0, 10)
        db.execute(PhysicalWrite(a, ("seed",)))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=3))
        op_track = [
            lambda: db.execute(CopyOp(a, b)),
            lambda: db.execute(PhysiologicalWrite(a, "stamp", (1,))),
            lambda: db.execute(CopyOp(b, c)),
        ]
        flush_track = [lambda: db.install_some(1) for _ in range(2)]
        copy_track = [lambda: db.backup_step(4) for _ in range(3)]

        def finish(database):
            database.checkpoint()
            if database.backup_in_progress():
                database.run_backup()

        return db, [op_track, flush_track, copy_track], finish

    return factory


class TestExhaustiveCopyChain:
    def test_every_interleaving_recovers(self):
        explorer = InterleavingExplorer(copy_chain_scenario())
        result = explorer.explore()
        assert result.interleavings == 560  # 8! / (3! 2! 3!)
        assert result.all_recovered, result.failures[:3]
