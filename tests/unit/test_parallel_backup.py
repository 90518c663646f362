"""The thread-parallel partitioned sweep: byte-identical equivalence.

A ``BackupRun`` with ``workers > 1`` fans the batched sweep's
per-partition span *reads* out to a thread pool but keeps all planning,
D/P frontier movement, and backup recording on the coordinator thread in
the serial schedule order.  The contract is therefore strict: a
``workers=4`` sweep must produce a backup byte-identical to the serial
batched sweep's — same pages, same copy order, same serialized archive —
and must recover the database exactly as well, including under injected
faults.  These tests hold the engine to that contract, and cover the
concurrency primitives underneath it (sharded metrics, cross-thread
tracer emits).
"""

import os
import random
import threading

import pytest

from repro.core import backup_engine
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import ReproError
from repro.sim.faults import FaultKind, FaultPlane, FaultSpec, IOPoint
from repro.sim.metrics import Metrics
from repro.storage.archive import save_backup
from repro.workloads import mixed_logical_workload

LAYOUT = [12, 12, 12, 12]


def drive_backup(workers, interleave=False, faults=None, seed=9):
    """One full backup over a four-partition layout, optionally with an
    interleaved workload, returning ``(db, sealed_backup)``."""
    db = Database(pages_per_partition=list(LAYOUT), policy="general")
    if faults is not None:
        db.attach_faults(FaultPlane(faults))
    source = mixed_logical_workload(db.layout, seed=seed, count=10**9)
    for _ in range(30):
        db.execute(next(source))
    cfg = BackupConfig(steps=4, pages_per_tick=16, workers=workers)
    db.start_backup(cfg)
    rng = random.Random(seed)

    def tick():
        if interleave:
            for _ in range(3):
                db.execute(next(source))
            db.install_some(2, rng)

    backup = db.run_backup(cfg, tick=tick)
    return db, backup


class TestByteIdenticalEquivalence:
    @pytest.mark.parametrize("interleave", [False, True])
    def test_same_pages_order_and_archive_bytes(self, tmp_path, interleave):
        _, serial = drive_backup(workers=1, interleave=interleave)
        _, parallel = drive_backup(workers=4, interleave=interleave)
        assert parallel.pages() == serial.pages()
        assert parallel.copy_order() == serial.copy_order()
        path_s = os.path.join(str(tmp_path), "serial.backup")
        path_p = os.path.join(str(tmp_path), "parallel.backup")
        save_backup(serial, path_s)
        save_backup(parallel, path_p)
        with open(path_s, "rb") as fh:
            bytes_s = fh.read()
        with open(path_p, "rb") as fh:
            bytes_p = fh.read()
        assert bytes_p == bytes_s

    def test_same_metrics_and_frontier(self):
        db_s, _ = drive_backup(workers=1, interleave=True)
        db_p, _ = drive_backup(workers=4, interleave=True)
        assert (db_p.metrics.backup_pages_copied
                == db_s.metrics.backup_pages_copied)
        assert (db_p.metrics.backup_bulk_reads
                == db_s.metrics.backup_bulk_reads)
        assert (db_p.metrics.iwof_during_backup
                == db_s.metrics.iwof_during_backup)

    def test_parallel_backup_media_recovers(self):
        db, backup = drive_backup(workers=4, interleave=True)
        db.media_failure()
        outcome = db.media_recover(backup=backup)
        assert outcome.ok


class TestParallelUnderFaults:
    """The parallel engine keeps its recoverability guarantees when the
    storage layer misbehaves (the faultsweep runs the full matrix; these
    pin the representative cases in the tier-1 suite)."""

    def test_transient_read_errors_absorbed(self):
        faults = [FaultSpec(FaultKind.TRANSIENT,
                            point=IOPoint.STABLE_BULK_READ,
                            at_io=2, times=2)]
        db, backup = drive_backup(workers=4, interleave=True, faults=faults)
        assert db.metrics.io_retries >= 2
        db.media_failure()
        assert db.media_recover(backup=backup).ok

    def test_torn_span_resumed_and_recoverable(self):
        faults = [FaultSpec(FaultKind.TORN,
                            point=IOPoint.BACKUP_BULK_RECORD,
                            at_io=1, keep=1)]
        db, backup = drive_backup(workers=4, interleave=True, faults=faults)
        assert db.metrics.torn_spans_resumed >= 1
        db.media_failure()
        assert db.media_recover(backup=backup).ok


class TestParallelEngineSurface:
    def test_parallel_engine_defaults_workers(self, monkeypatch):
        """Runs default to one worker, which reads spans inline and never
        builds a pool; ``workers=2`` reads them on a two-thread pool."""
        db = Database(pages_per_partition=[8, 8], policy="general")
        pools = []
        real = backup_engine.ThreadPoolExecutor

        def recording(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(backup_engine, "ThreadPoolExecutor", recording)
        for kwargs, built in (({}, []), ({"workers": 2}, [2])):
            run = db.engine.start_backup(steps=2, **kwargs)
            assert run.workers == (kwargs.get("workers") or 1)
            backup = db.engine.run_to_completion(4)
            assert backup.copied_count() == 16
            assert pools == built

    def test_workers_require_batched(self):
        with pytest.raises(ReproError):
            BackupConfig(steps=2, batched=False, workers=2)
        with pytest.raises(ReproError):
            BackupConfig(steps=2, workers=0)


class TestMetricsSharding:
    def test_absorb_sums_scalars_and_dicts(self):
        main = Metrics()
        main.backup_pages_copied = 3
        main.io_retries = 1
        shard = main.shard()
        assert isinstance(shard, Metrics)
        shard.backup_pages_copied = 4
        shard.io_retries = 2
        main.absorb(shard)
        assert main.backup_pages_copied == 7
        assert main.io_retries == 3

    def test_absorb_merges_phase_timings(self):
        main = Metrics()
        main.observe_phase("sweep", 0.010)
        shard = main.shard()
        shard.observe_phase("sweep", 0.030)
        shard.observe_phase("redo", 0.005)
        main.absorb(shard)
        sweep = main.phase_timings["sweep"]
        assert sweep.count == 2
        assert sweep.min_s == pytest.approx(0.010)
        assert sweep.max_s == pytest.approx(0.030)
        assert main.phase_timings["redo"].count == 1

    def test_parallel_sweep_counts_match_serial(self):
        # The end-to-end guarantee the sharding exists for: no lost or
        # double-counted updates when four workers report concurrently.
        db_s, _ = drive_backup(workers=1)
        db_p, _ = drive_backup(workers=4)
        assert (db_p.metrics.backup_pages_copied
                == db_s.metrics.backup_pages_copied)


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
