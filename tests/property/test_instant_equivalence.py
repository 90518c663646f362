"""Property: instant restore is byte-identical to offline media recovery.

Twin databases driven by the same seed produce the same log and the same
sealed backup; one recovers offline (``media_recover``), the other
through the instant-restore path: either a shuffled mid-restore read
schedule restores half the pages on demand, or a handful of reads
restore single pages; the drain restores the rest in bulk.  The final
stable snapshots, the recovery-outcome state, the replay counters, and
the quarantine sets must all match — across workloads, fault (bitrot)
schedules, batched and page-at-a-time backup sweeps and storage
backends.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ops.physical import PhysicalWrite
from repro.storage.page import PageVersion, rot_value
from repro.workloads import mixed_logical_workload


def _rot(backup, page_id):
    old = backup._versions[page_id]
    backup._versions[page_id] = PageVersion(
        rot_value(old.value), old.page_lsn
    )


def _build(seed, rot_sites, backend="memory", data_dir=None, batched=True):
    """Deterministic workload + interleaved backup; optional backup rot.

    ``rot_sites`` is a tuple of copy-order indices to rot in the sealed
    image (empty = clean run); ``batched`` picks the backup sweep.
    """
    db = Database(pages_per_partition=[12, 12, 12, 12], policy="general",
                  backend=backend, data_dir=data_dir)
    rng = random.Random(seed)
    source = mixed_logical_workload(db.layout, seed=seed, count=90)
    db.start_backup(BackupConfig(steps=4, batched=batched))
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
    backup = db.latest_backup()
    order = backup.copy_order()
    for index in rot_sites:
        _rot(backup, order[index % len(order)])
    return db


def _key(state):
    return {pid: (v.value, v.page_lsn) for pid, v in state.items()}


def _program(db, seed, many_reads, mid_writes):
    """The mid-restore traffic, as ("read", pid) / ("write", pid, value).

    ``many_reads``: half the pages restore on demand; otherwise a
    handful do.  The drain restores everything else in bulk.  With
    ``mid_writes`` the program first overwrites a page some slice record
    reads, then reads a page that record writes — the overwrite lands
    above the restore target in the same writer index and must not leak
    into the replay — and writes every seventh page between the reads.
    """
    order = list(db.layout.all_pages())
    random.Random(seed + 99).shuffle(order)
    reads = order[::2] if many_reads else order[:4]
    if not mid_writes:
        return [("read", pid) for pid in reads]
    program = []
    start = db.latest_backup().media_scan_start_lsn
    for record in db.log.scan(start):
        read_only = record.op.readset - record.op.writeset
        if read_only:
            source = min(read_only)
            program += [("write", source, ("mid", seed, "source")),
                        ("read", min(record.op.writeset))]
            break
    written = set(order[::7])
    for i, pid in enumerate(reads):
        if pid in written:
            program.append(("write", pid, ("mid", seed, i)))
        program.append(("read", pid))
    return program


def _run(db, program):
    observed = []
    for step in program:
        if step[0] == "write":
            db.execute(PhysicalWrite(step[1], step[2]))
        else:
            observed.append((step[1], db.read(step[1])))
    return observed


def _assert_equivalent(seed, rot_sites, backend="memory",
                       tmp_path=None, many_reads=True, mid_writes=False,
                       batched=True):
    d1 = str(tmp_path / "offline") if tmp_path else None
    d2 = str(tmp_path / "instant") if tmp_path else None
    if d1:
        import os

        os.makedirs(d1, exist_ok=True)
        os.makedirs(d2, exist_ok=True)

    offline = _build(seed, rot_sites, backend, d1, batched)
    program = _program(offline, seed, many_reads, mid_writes)
    offline.media_failure()
    expected_outcome = offline.media_recover()
    expected_snapshot = offline.stable.snapshot()
    expected_reads = _run(offline, program)

    instant = _build(seed, rot_sites, backend, d2, batched)
    oracle = instant.oracle.state()
    initial = instant.initial_value
    instant.media_failure()
    instant.begin_instant_restore()
    observed = _run(instant, program)
    outcome = instant.finish_instant_restore()

    assert instant.stable.snapshot() == expected_snapshot
    assert _key(outcome.state) == _key(expected_outcome.state)
    assert outcome.replayed == expected_outcome.replayed
    assert outcome.skipped == expected_outcome.skipped
    assert outcome.poisoned == expected_outcome.poisoned
    assert outcome.quarantined == expected_outcome.quarantined
    assert outcome.ok == expected_outcome.ok
    # Every mid-restore read saw what the offline twin reads after the
    # same traffic; with no writes, that is the recovered value.
    assert observed == expected_reads
    quarantined = set(outcome.quarantined)
    for pid, value in observed if not mid_writes else ():
        want = initial if pid in quarantined else oracle.get(pid, initial)
        assert value == want, f"mid-restore read of {pid} saw {value!r}"
    if mid_writes:
        # And once flushed, the written pages too.
        offline.checkpoint()
        instant.checkpoint()
        assert instant.stable.snapshot() == offline.stable.snapshot()
    offline.close()
    instant.close()


class TestInstantEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_clean_runs_equivalent(self, seed):
        _assert_equivalent(seed, ())

    @given(
        st.integers(0, 10_000),
        st.tuples(st.integers(0, 47)) | st.tuples(
            st.integers(0, 47), st.integers(0, 47)
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_rotted_backup_runs_equivalent(self, seed, rot_sites):
        """Quarantine-degrade path: same honest loss on both paths."""
        _assert_equivalent(seed, rot_sites)


class TestSerialSweepEquivalence:
    """The backup sealed by the page-at-a-time sweep: another copy
    order, so other pages are restored from before or after their
    slice records."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_clean_runs_equivalent(self, seed):
        _assert_equivalent(seed, (), batched=False)

    @given(st.integers(0, 10_000), st.tuples(st.integers(0, 47)))
    @settings(max_examples=10, deadline=None)
    def test_rotted_backup_runs_equivalent(self, seed, rot_sites):
        _assert_equivalent(seed, rot_sites, batched=False)

    @pytest.mark.parametrize("many_reads", [False, True])
    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_mid_restore_writes_equivalent(self, many_reads, seed):
        _assert_equivalent(seed, (), many_reads=many_reads,
                           mid_writes=True, batched=False)


class TestLazyDrainEquivalence:
    """A few reads, so the drain restores almost every page in bulk."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_clean_runs_equivalent(self, seed):
        _assert_equivalent(seed, (), many_reads=False)

    @given(
        st.integers(0, 10_000),
        st.tuples(st.integers(0, 47)) | st.tuples(
            st.integers(0, 47), st.integers(0, 47)
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_rotted_backup_runs_equivalent(self, seed, rot_sites):
        _assert_equivalent(seed, rot_sites, many_reads=False)


class TestMidRestoreWritesEquivalence:
    """Traffic writes between begin and finish append records above the
    restore target to the same per-page writer lists the evaluator
    reads."""

    @pytest.mark.parametrize("many_reads", [False, True])
    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_mid_restore_writes_equivalent(self, many_reads, seed):
        _assert_equivalent(seed, (), many_reads=many_reads,
                           mid_writes=True)

    @given(st.integers(0, 10_000), st.tuples(st.integers(0, 47)))
    @settings(max_examples=8, deadline=None)
    def test_mid_restore_writes_with_rotted_backup(self, seed, rot_sites):
        _assert_equivalent(seed, rot_sites, mid_writes=True)


class TestInstantEquivalenceFileBackend:
    @given(st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_file_backend_equivalent(self, seed):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            _assert_equivalent(seed, (), backend="file",
                               tmp_path=Path(tmp))

    @given(
        st.integers(0, 10_000),
        st.just(()) | st.tuples(st.integers(0, 47)),
    )
    @settings(max_examples=4, deadline=None)
    def test_file_backend_lazy_drain_equivalent(self, seed, rot_sites):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            _assert_equivalent(seed, rot_sites, backend="file",
                               tmp_path=Path(tmp), many_reads=False)

