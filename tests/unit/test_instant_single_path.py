"""Instant restore has one path: on-demand page restores plus the drain.

* From ``begin_instant_restore()`` through reads and writes to
  ``finish_instant_restore()`` no thread or process pool is built.
* ``eager=True`` (the removed background pool) is refused loudly;
  ``eager=False`` is accepted as the no-op it now is.
* A crash in the middle of an instant restore is recoverable: the
  restore's log pin is released and ``recover()`` finishes it as media
  recovery from the generation it had chosen, mid-restore traffic
  included — on both storage backends.
"""

import concurrent.futures

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import ReproError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite


def _db(backend="memory", tmp_path=None):
    """Two partitions of eight pages, all written, checkpointed and
    backed up, then P0:0-7 rewritten after the backup."""
    db = Database([8, 8], policy="general", backend=backend,
                  data_dir=str(tmp_path) if backend == "file" else None)
    for page in db.layout.all_pages():
        db.execute(PhysicalWrite(page, ("v", str(page))))
    db.checkpoint()
    db.start_backup(BackupConfig())
    db.run_backup()
    for slot in range(8):
        db.execute(PhysicalWrite(PageId(0, slot), ("w", slot)))
    return db


def _no_pool(*args, **kwargs):
    raise AssertionError("instant restore built an executor")


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_no_executor_from_begin_to_finish(backend, tmp_path, monkeypatch):
    db = _db(backend, tmp_path=tmp_path)
    expected = db.oracle_state()
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_pool)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    db.media_failure()
    db.begin_instant_restore()
    assert db.read(PageId(0, 1)) == expected[PageId(0, 1)]
    assert db.read(PageId(1, 5)) == expected[PageId(1, 5)]
    db.execute(PhysicalWrite(PageId(1, 2), "mid-restore"))
    assert db.finish_instant_restore().ok
    assert db.read(PageId(1, 2)) == "mid-restore"
    db.close()


def test_eager_pool_is_refused():
    db = _db()
    db.media_failure()
    with pytest.raises(ReproError, match="removed"):
        db.begin_instant_restore(eager=True)
    db.begin_instant_restore(eager=False)
    assert db.finish_instant_restore().ok


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_crash_mid_restore_recovers(backend, tmp_path):
    db = _db(backend, tmp_path)
    db.media_failure()
    manager = db.begin_instant_restore()
    db.read(PageId(0, 1))
    db.execute(PhysicalWrite(PageId(1, 3), "mid-restore"))
    db.crash()
    outcome = db.recover()
    assert outcome.ok
    expected = db.oracle_state()
    assert expected[PageId(1, 3)] == "mid-restore"
    for page in db.layout.all_pages():
        assert db.read(page) == expected[page], page
    # The abandoned restore no longer pins its media-log slice.
    assert db.retention.active_restore is None
    db.retire_backup(manager.chosen)
    assert (db.retention.safe_truncation_point()
            > manager.chosen.media_scan_start_lsn)
    db.close()
