"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.storage.layout import Layout


@pytest.fixture
def layout():
    return Layout([32])


@pytest.fixture
def layout_multi():
    return Layout([16, 24, 8])


@pytest.fixture
def db():
    return Database(pages_per_partition=[32], policy="general")


@pytest.fixture
def tree_db():
    return Database(pages_per_partition=[64], policy="tree")


@pytest.fixture
def rng():
    return random.Random(0)


def pid(slot: int, partition: int = 0) -> PageId:
    return PageId(partition, slot)


def drive_backup_interleaved(db, op_iter, steps=4, ops_per_tick=2,
                             installs_per_tick=2, pages_per_tick=4, seed=0):
    """Run a backup to completion with the op stream interleaved."""
    rng = random.Random(seed)
    db.start_backup(BackupConfig(steps=steps))
    while db.backup_in_progress():
        db.backup_step(pages_per_tick)
        for _ in range(ops_per_tick):
            op = next(op_iter, None)
            if op is not None:
                db.execute(op)
        db.install_some(installs_per_tick, rng)
    return db.latest_backup()


TAIL_RECORDS = 2000
TAIL_PAGES = 200


def fixed_tail_db(pages, backend="memory", data_dir=None, partitions=16):
    """A database whose recovery work is fixed while its size varies.

    ``pages`` cells in ``partitions`` partitions; 200 of them are
    written, checkpointed (flushed) and backed up, then a forced
    2 000-record tail rewrites the same 200 pages.  Crash or media
    recovery from here replays exactly that tail, whatever ``pages`` is.
    Returns ``(db, written)`` — the pages the tail wrote.
    """
    from repro.ops.physical import PhysicalWrite
    from repro.ops.physiological import PhysiologicalWrite

    db = Database(
        pages_per_partition=[pages // partitions] * partitions,
        backend=backend, data_dir=data_dir,
    )
    written = [
        PageId(i % partitions, i // partitions) for i in range(TAIL_PAGES)
    ]
    for i, page in enumerate(written):
        db.execute(PhysicalWrite(page, ("seed", i)))
    db.checkpoint()
    db.start_backup(BackupConfig(steps=4, pages_per_tick=4096))
    db.run_backup(BackupConfig(pages_per_tick=4096))
    for i in range(TAIL_RECORDS):
        page = written[(i * 7) % TAIL_PAGES]
        db.execute(PhysiologicalWrite(page, "stamp", (i,)))
    db.log.force()
    return db, set(written)


@pytest.fixture
def stable_calls(monkeypatch):
    """Spy on ``StableDatabase``: the names of the ``restore_from`` and
    ``install_version`` calls made, appended as each returns."""
    from repro.storage.stable_db import StableDatabase

    calls = []
    for name in ("restore_from", "install_version"):
        def spy(self, *args, _name=name,
                _call=getattr(StableDatabase, name), **kwargs):
            result = _call(self, *args, **kwargs)
            calls.append(_name)
            return result

        monkeypatch.setattr(StableDatabase, name, spy)
    return calls
