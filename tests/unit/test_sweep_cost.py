"""What a backup sweep may cost.

The sweep takes every page id from the layout, which builds each one
once, so no ``backup_step`` constructs a ``PageId`` on any path.  An
incremental generation is planned from its copy set, so its time
follows the pages it copies, not the size of the database.
"""

import time

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite


@pytest.mark.parametrize("config", [
    BackupConfig(steps=4),
    BackupConfig(steps=4, incremental=True),
    BackupConfig(steps=4, batched=False),
    BackupConfig(steps=4, incremental=True, batched=False),
], ids=["full", "incremental", "full-serial", "incremental-serial"])
def test_backup_step_builds_no_page_id(monkeypatch, config):
    db = Database(pages_per_partition=[24, 24, 24], policy="general")
    for page_id in db.layout.all_pages():
        db.execute(PhysicalWrite(page_id, ("base", page_id.slot)))
    db.checkpoint()
    db.start_backup(BackupConfig(steps=4))
    db.run_backup(BackupConfig(pages_per_tick=32))
    for partition, slot in ((0, 1), (0, 2), (1, 9), (1, 10), (2, 23)):
        db.execute(PhysicalWrite(PageId(partition, slot), ("dirty",)))
    db.start_backup(config)
    built = []
    original = PageId.__new__

    def counting(cls, partition, slot):
        built.append((partition, slot))
        return original(cls, partition, slot)

    monkeypatch.setattr(PageId, "__new__", staticmethod(counting))
    steps = 0
    while db.backup_in_progress():
        db.backup_step(2)
        steps += 1
    monkeypatch.undo()
    assert steps > 1
    assert built == []


def test_incremental_generation_costs_what_it_copies():
    """Eight dirty pages on a 2^18-page layout: the generation must
    finish inside 15 ms.  The per-position walk this plan replaced took
    about 170 ms for it (2 vCPU, Python 3.11), more than 10x over the
    bound; the set-driven plan takes about 0.3 ms."""
    partitions, size = 4, 1 << 16
    db = Database(pages_per_partition=[size] * partitions, policy="general")
    dirty = {PageId(i % partitions, 4099 * i + 7) for i in range(8)}
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        db.engine.start_backup(steps=8, update_set=dirty)
        backup = db.engine.run_to_completion(32)
        best = min(best, time.perf_counter() - start)
        assert sorted(backup.copy_order()) == sorted(dirty)
    assert best < 0.015, f"incremental generation took {best * 1e3:.1f} ms"
