"""Integration: bootstrapping a replacement node from an archive.

The full operational loop across machines: primary backs up online,
archives to a file, ships the log; a brand-new node loads the archive,
rolls forward, and serves — state identical to the primary's.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.storage.archive import load_backup, save_backup
from repro.workloads import mixed_logical_workload


def build_primary(seed=3, pages=48):
    db = Database(pages_per_partition=[pages], policy="general")
    rng = random.Random(seed)
    source = mixed_logical_workload(db.layout, seed=seed, count=100_000)
    for _ in range(40):
        db.execute(next(source))
        if rng.random() < 0.3:
            db.install_some(1, rng)
    db.start_backup(BackupConfig(steps=4))
    while db.backup_in_progress():
        db.backup_step(8)
        db.execute(next(source))
        db.install_some(1, rng)
    for _ in range(20):
        db.execute(next(source))
    return db


class TestBootstrap:
    def test_new_node_matches_primary(self, tmp_path):
        primary = build_primary()
        path = str(tmp_path / "shipped.json")
        save_backup(primary.latest_backup(), path)

        replacement = Database.bootstrap_from_backup(
            load_backup(path),
            primary.log,
            pages_per_partition=[48],
        )
        for page, value in primary.oracle_state().items():
            assert replacement.stable.read_page(page).value == value

    def test_new_node_is_fully_functional(self, tmp_path):
        primary = build_primary()
        path = str(tmp_path / "shipped.json")
        save_backup(primary.latest_backup(), path)
        replacement = Database.bootstrap_from_backup(
            load_backup(path), primary.log, pages_per_partition=[48]
        )
        rng = random.Random(9)
        for op in mixed_logical_workload(
            replacement.layout, seed=9, count=50
        ):
            replacement.execute(op)
            if rng.random() < 0.3:
                replacement.install_some(1, rng)
        replacement.crash()
        assert replacement.recover().ok
        replacement.start_backup(BackupConfig(steps=4))
        replacement.run_backup(BackupConfig(pages_per_tick=16))
        replacement.media_failure()
        assert replacement.media_recover().ok

    def test_bootstrap_with_tree_policy(self, tmp_path):
        primary = build_primary()
        path = str(tmp_path / "shipped.json")
        save_backup(primary.latest_backup(), path)
        replacement = Database.bootstrap_from_backup(
            load_backup(path), primary.log,
            pages_per_partition=[48], policy="tree",
        )
        assert replacement.cm.policy.name == "tree"
