"""The batched sweep over a four-partition layout.

The round-robin planner deals each copy batch across the partitions and
moves each partition's D/P frontier under its own latch; the sealed
backup must recover the database, including under injected faults.  The
tracer's cross-thread buffers, which let a backup thread beside the
service emit events, are covered here too.
"""

import random
import threading

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.sim.faults import FaultKind, FaultPlane, FaultSpec, IOPoint
from repro.storage.archive import save_backup
from repro.workloads import mixed_logical_workload

LAYOUT = [12, 12, 12, 12]


def drive_backup(interleave=False, faults=None, seed=9, batched=True):
    """One full backup over a four-partition layout, optionally with an
    interleaved workload, returning ``(db, sealed_backup)``."""
    db = Database(pages_per_partition=list(LAYOUT), policy="general")
    if faults is not None:
        db.attach_faults(FaultPlane(faults))
    source = mixed_logical_workload(db.layout, seed=seed, count=10**9)
    for _ in range(30):
        db.execute(next(source))
    cfg = BackupConfig(steps=4, pages_per_tick=16, batched=batched)
    db.start_backup(cfg)
    rng = random.Random(seed)

    def tick():
        if interleave:
            for _ in range(3):
                db.execute(next(source))
            db.install_some(2, rng)

    backup = db.run_backup(cfg, tick=tick)
    return db, backup


class TestPartitionedBackup:
    @pytest.mark.parametrize("batched", [True, False])
    def test_partitioned_backup_media_recovers(self, batched):
        db, backup = drive_backup(interleave=True, batched=batched)
        assert backup.copied_count() == sum(LAYOUT)
        db.media_failure()
        outcome = db.media_recover(backup=backup)
        assert outcome.ok

    @pytest.mark.parametrize("interleave", [False, True])
    def test_same_seed_seals_the_same_archive(self, interleave, tmp_path):
        """The sweep is deterministic: a rerun copies the same pages in
        the same order and seals byte-identical archive files."""
        sealed = []
        for run in range(2):
            db, backup = drive_backup(interleave=interleave)
            path = str(tmp_path / f"run{run}.jsonl")
            save_backup(backup, path)
            with open(path, "rb") as fh:
                sealed.append((backup.copy_order(),
                               backup.media_scan_start_lsn, fh.read()))
            db.close()
        assert sealed[0] == sealed[1]


class TestPartitionedUnderFaults:
    """The partitioned sweep keeps its recoverability guarantees when the
    storage layer misbehaves (the faultsweep runs the full matrix; these
    pin the representative cases in the tier-1 suite)."""

    def test_transient_read_errors_absorbed(self):
        faults = [FaultSpec(FaultKind.TRANSIENT,
                            point=IOPoint.STABLE_BULK_READ,
                            at_io=2, times=2)]
        db, backup = drive_backup(interleave=True, faults=faults)
        assert db.metrics.io_retries >= 2
        db.media_failure()
        assert db.media_recover(backup=backup).ok

    def test_torn_span_resumed_and_recoverable(self):
        faults = [FaultSpec(FaultKind.TORN,
                            point=IOPoint.BACKUP_BULK_RECORD,
                            at_io=1, keep=1)]
        db, backup = drive_backup(interleave=True, faults=faults)
        assert db.metrics.torn_spans_resumed >= 1
        db.media_failure()
        assert db.media_recover(backup=backup).ok


class TestTracerCrossThread:
    def test_worker_emits_merge_in_order(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        tracer.emit("main_start")
        barrier = threading.Barrier(3)

        def worker(name):
            barrier.wait()
            for index in range(10):
                tracer.emit("worker_event", worker=name, index=index)

        threads = [threading.Thread(target=worker, args=(f"w{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        tracer.emit("main_end")
        events = tracer.events
        assert [e.kind for e in events[:1]] == ["main_start"]
        assert events[-1].kind == "main_end"
        assert len(tracer.find("worker_event")) == 20
        # Sequence numbers are unique, gapless, and time-ordered.
        assert [e.seq for e in events] == list(range(1, len(events) + 1))
        assert all(events[i].t <= events[i + 1].t
                   for i in range(len(events) - 1))

    def test_drain_on_read_paths(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()

        def worker():
            tracer.emit("from_worker")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        # No owner emit since: the read path itself must flush.
        assert len(tracer) == 1
        assert tracer.find("from_worker")
