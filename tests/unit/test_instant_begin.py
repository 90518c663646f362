"""Instant restore begins without reading the log.

``RestoreManager.begin`` bounds the media-log slice and formats the
store; the first query then replays only the probe page's writers,
looked up in the log's per-page writer index.  Guarded here on both
storage backends:

* from ``begin_instant_restore()`` through the first read,
  ``scan`` is never called;
* on a slice of 100 k records where the probe page has ``k`` single-page
  writers, the first read makes at most ``k`` redo-kernel calls;
* records appended above the target share the writer lists and are
  never applied.

Because the restore reads the live log, an active restore pins its
slice against ``truncate_log`` until the drain returns, even when its
generation is retired meanwhile.
"""

import pytest

import repro.recovery.instant_restore as instant_restore
from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.storage import BACKENDS
from repro.workloads import mixed_logical_workload

PROBE = PageId(1, 3)


def _db(backend, tmp_path, pages=12):
    return Database(
        pages_per_partition=[pages, pages], policy="general",
        backend=backend,
        data_dir=str(tmp_path) if backend == "file" else None,
    )


def _backed_up(db, seed=7):
    """A workload around one sealed backup, with a non-empty slice."""
    source = mixed_logical_workload(db.layout, seed=seed, count=80)
    for _ in range(30):
        db.execute(next(source))
    db.checkpoint()  # S holds that prefix: the media scan starts after it
    db.start_backup(BackupConfig(steps=2))
    db.run_backup(BackupConfig(pages_per_tick=8))
    for op in source:
        db.execute(op)
    db.execute(PhysiologicalWrite(PROBE, "stamp", (5,)))
    return db


def _forbid(monkeypatch, log):
    def boom(*args, **kwargs):
        raise AssertionError("instant restore read the log by scanning")

    monkeypatch.setattr(log, "scan", boom)


@pytest.mark.parametrize("backend", BACKENDS)
def test_begin_and_first_read_never_scan_the_log(
    backend, tmp_path, monkeypatch
):
    db = _backed_up(_db(backend, tmp_path))
    expected = db.oracle_state()
    db.media_failure()
    with monkeypatch.context() as patch:
        _forbid(patch, db.log)
        db.begin_instant_restore()
        value = db.read(PROBE)
    assert value == expected[PROBE]
    outcome = db.finish_instant_restore()
    assert outcome.ok
    db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_first_read_replays_only_the_probe_pages_writers(
    backend, tmp_path, monkeypatch
):
    db = _db(backend, tmp_path, pages=32)
    db.start_backup(BackupConfig(steps=2))
    db.run_backup(BackupConfig(pages_per_tick=16))
    # 100 k single-page records, k of them on the probe page.  Appended
    # straight to the log with one force at the end: the restore replays
    # the log, so nothing else needs to see them.
    log = db.log
    log.auto_force = False
    pages = [p for p in db.layout.all_pages() if p != PROBE]
    k = 40
    for i in range(100_000):
        if i % 2_500 == 0:
            log.append(PhysiologicalWrite(PROBE, "stamp", (i,)))
        else:
            log.append(PhysicalWrite(pages[i % len(pages)], i))
    log.force()
    log.auto_force = True
    db.media_failure()
    calls = []
    real = instant_restore.apply_record

    def counting(record, version_of):
        calls.append(record.lsn)
        return real(record, version_of)

    monkeypatch.setattr(instant_restore, "apply_record", counting)
    manager = db.begin_instant_restore(verify=False)
    value = db.read(PROBE)
    monkeypatch.undo()
    assert len(log.writers(PROBE, manager.chosen.media_scan_start_lsn)) == k
    assert len(calls) <= k
    assert value[:2] == ("stamped", 97_500)
    db.finish_instant_restore()
    db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_records_above_the_target_never_replay(backend, tmp_path,
                                               monkeypatch):
    """Records appended after begin share the probe's writer list; the
    lookup cuts it at the target, so none of them is ever applied."""
    db = _backed_up(_db(backend, tmp_path))
    expected = db.oracle_state()[PROBE]
    db.media_failure()
    manager = db.begin_instant_restore(verify=False)
    # Straight to the log: the probe is still unrestored when its writer
    # list first gains records above the target.
    for i in range(3):
        db.log.append(PhysiologicalWrite(PROBE, "stamp", (f"late{i}",)))
    applied = []
    real = instant_restore.apply_record

    def spy(record, version_of):
        applied.append(record.lsn)
        return real(record, version_of)

    monkeypatch.setattr(instant_restore, "apply_record", spy)
    assert db.read(PROBE) == expected
    assert applied and max(applied) <= manager.target
    monkeypatch.undo()
    db.close()


def _expected_after_restore(tmp_path):
    twin = _backed_up(_db("memory", tmp_path))
    twin.media_failure()
    outcome = twin.media_recover()
    return outcome, twin.stable.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("read_all", [False, True])
def test_active_restore_pins_its_slice(read_all, backend, tmp_path):
    """On either backend the result is the offline recovery's on a
    memory-backed twin."""
    expected_outcome, expected_snapshot = _expected_after_restore(tmp_path)
    db = _backed_up(_db(backend, tmp_path))
    db.media_failure()
    manager = db.begin_instant_restore()
    chosen = manager.chosen
    db.retire_backup(chosen)
    # Everything below the slice may go; the slice itself may not.
    assert db.truncate_log() > 0
    assert db.log.first_retained_lsn == chosen.media_scan_start_lsn
    # Every page on demand, or none and the drain restores them all.
    for page in db.layout.all_pages() if read_all else ():
        db.read(page)
    outcome = db.finish_instant_restore()
    assert outcome.ok
    assert outcome.replayed == expected_outcome.replayed
    assert outcome.skipped == expected_outcome.skipped
    assert db.stable.snapshot() == expected_snapshot
    # The drain returned: the pin is gone with it.
    db.truncate_log()
    assert db.log.first_retained_lsn > chosen.media_scan_start_lsn
    db.close()
