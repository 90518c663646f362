"""Property: parallel redo is byte-identical to serial redo.

Two layers of the same equivalence claim.  At the replayer layer, a
seeded generator builds an adversarial log slice — physical writes,
physiological transforms, cross-partition logical ops with wide
readsets, and ops that raise mid-replay (poison) — and the slice is
replayed by the serial :class:`RedoReplayer` and by
:class:`ParallelRedoReplayer` at several widths over identical starting
states; the final page versions, every :class:`ReplayStats` counter
(including ``poisoned`` page *order*), and the memoized effect slots
must match exactly.  At the database layer, twin databases driven by
the same workload crash (or lose their medium, or one partition of it)
and recover with ``redo_workers=1`` versus ``redo_workers=4``; stable
snapshots and recovery outcomes must match on both the memory and file
backends.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import NULL_LSN, PageId
from repro.ops.logical import GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery.parallel_redo import ParallelRedoReplayer, make_replayer
from repro.recovery.redo import RedoReplayer
from repro.sim.metrics import Metrics
from repro.storage.layout import Layout
from repro.storage.page import PageVersion
from repro.wal.records import LogRecord
from repro.workloads import mixed_logical_workload

PARTITIONS = 4
SLOTS = 6


class ExplodingWrite(PhysiologicalWrite):
    """A transform that always raises: exercises the poison path."""

    def compute(self, reads):
        raise RuntimeError("boom")


def _page(rng):
    return PageId(rng.randrange(PARTITIONS), rng.randrange(SLOTS))


def _make_op(rng):
    roll = rng.random()
    if roll < 0.35:
        return PhysicalWrite(_page(rng), rng.randrange(1000))
    if roll < 0.65:
        return PhysiologicalWrite(_page(rng), "increment", (rng.randrange(9),))
    if roll < 0.72:
        return ExplodingWrite(_page(rng), "increment", (1,))
    # Cross-partition logical op: reads span partitions, and the
    # writeset occasionally does too (coordinator lane).
    reads = {_page(rng) for _ in range(rng.randrange(1, 4))}
    writes = {_page(rng) for _ in range(1 if rng.random() < 0.7 else 2)}
    return GeneralLogicalOp(
        reads=reads, writes=writes, transform="concat_sorted",
        per_target=False,
    )


def _make_log(seed, count=120):
    """Seeded log slice plus a starting state with mixed page LSNs.

    Some pages start ahead of the log (skip path), some mid-slice
    (partial replays for multi-target ops), most behind it.
    """
    rng = random.Random(seed)
    records = [LogRecord(lsn, _make_op(rng)) for lsn in range(1, count + 1)]
    state = {}
    for p in range(PARTITIONS):
        for s in range(SLOTS):
            roll = rng.random()
            if roll < 0.5:
                lsn = NULL_LSN
            elif roll < 0.8:
                lsn = rng.randrange(1, count + 1)
            else:
                lsn = count + 10  # ahead of every record: always skipped
            state[PageId(p, s)] = PageVersion(0, lsn)
    return records, state


def _key(state):
    # POISON is a singleton and transforms are deterministic, so plain
    # equality over (value, page_lsn) is exact.
    return {pid: (v.value, v.page_lsn) for pid, v in state.items()}


def _stats_tuple(stats):
    return (
        stats.records_seen,
        stats.ops_replayed,
        stats.ops_skipped,
        stats.partial_replays,
        list(stats.poisoned),
    )


class TestReplayerEquivalence:
    @given(st.integers(0, 100_000), st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_parallel_matches_serial(self, seed, workers):
        records, base = _make_log(seed)
        serial_state = dict(base)
        serial_stats = RedoReplayer(initial_value=0).replay(
            records, serial_state
        )
        parallel_state = dict(base)
        parallel_stats = ParallelRedoReplayer(
            initial_value=0, workers=workers
        ).replay(records, parallel_state)
        assert _key(parallel_state) == _key(serial_state)
        assert _stats_tuple(parallel_stats) == _stats_tuple(serial_stats)

    def test_make_replayer_dispatch(self):
        assert isinstance(make_replayer(redo_workers=1), RedoReplayer)
        parallel = make_replayer(redo_workers=3)
        assert isinstance(parallel, ParallelRedoReplayer)
        assert parallel.workers == 3
        try:
            ParallelRedoReplayer(workers=1)
        except ValueError:
            pass
        else:
            raise AssertionError("workers=1 must be rejected")

    def test_metrics_split_fast_path_vs_coordinated(self):
        records, base = _make_log(7, count=80)
        metrics = Metrics()
        stats = ParallelRedoReplayer(
            initial_value=0, workers=2, metrics=metrics
        ).replay(records, dict(base))
        total = metrics.redo_ops_fast_path + metrics.redo_ops_coordinated
        assert total == stats.ops_replayed
        # The generator always emits some cross-partition ops.
        assert metrics.redo_ops_coordinated > 0


def _build(seed, backend="memory", data_dir=None, redo_workers=1,
           confined=False):
    db = Database(
        pages_per_partition=[10, 10, 10], policy="general",
        backend=backend, data_dir=data_dir, redo_workers=redo_workers,
    )
    rng = random.Random(seed)
    # ``confined``: every op stays inside partition 0, which makes that
    # partition a unit of media recovery (recover_partition).
    layout = Layout([10]) if confined else db.layout
    source = mixed_logical_workload(layout, seed=seed, count=70)
    db.start_backup(BackupConfig(steps=4, batched=True))
    exhausted = False
    while db.backup_in_progress() or not exhausted:
        if db.backup_in_progress():
            db.backup_step(16)
        exhausted = True
        for _ in range(2):
            op = next(source, None)
            if op is None:
                break
            db.execute(op)
            exhausted = False
        db.install_some(2, rng)
    return db


def _assert_db_equivalent(seed, mode, backend="memory", tmp_path=None):
    dirs = [None, None]
    if tmp_path is not None:
        import os

        dirs = [str(tmp_path / "serial"), str(tmp_path / "parallel")]
        for d in dirs:
            os.makedirs(d, exist_ok=True)
    confined = mode == "partition"
    serial = _build(seed, backend, dirs[0], redo_workers=1,
                    confined=confined)
    parallel = _build(seed, backend, dirs[1], redo_workers=4,
                      confined=confined)
    outcomes = []
    for db in (serial, parallel):
        if mode == "crash":
            db.crash()
            outcomes.append(db.recover())
        elif mode == "partition":
            db.fail_partition(0)
            outcomes.append(db.recover_partition(0))
        else:
            db.media_failure()
            outcomes.append(db.media_recover())
    want, got = outcomes
    assert parallel.stable.snapshot() == serial.stable.snapshot()
    assert _key(got.state) == _key(want.state)
    assert got.replayed == want.replayed
    assert got.skipped == want.skipped
    assert got.poisoned == want.poisoned
    assert got.ok == want.ok
    # Every replayed op was counted on exactly one lane.
    lanes = (
        parallel.metrics.redo_ops_fast_path
        + parallel.metrics.redo_ops_coordinated
    )
    assert lanes == got.replayed
    if confined:
        # Every replayed record lives in one partition: the pool's
        # lock-free lane, proof that redo_workers reached this flavour.
        assert parallel.metrics.redo_ops_fast_path > 0
    serial.close()
    parallel.close()


class TestDatabaseEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_crash_recovery_equivalent(self, seed):
        _assert_db_equivalent(seed, "crash")

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_media_recovery_equivalent(self, seed):
        _assert_db_equivalent(seed, "media")

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_partition_recovery_equivalent(self, seed):
        _assert_db_equivalent(seed, "partition")

    @given(st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None)
    def test_file_backend_equivalent(self, seed):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            _assert_db_equivalent(
                seed, "crash", backend="file", tmp_path=Path(tmp)
            )
