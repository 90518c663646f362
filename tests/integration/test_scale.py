"""Integration: moderately large configurations (scale smoke).

Larger than the unit-test configs by an order of magnitude — enough to
shake out quadratic blowups in the write graph, the sweep, and replay,
while staying fast enough for CI (a few seconds).
"""

import random

import pytest

from repro.btree import BTree
from repro.core.config import BackupConfig
from repro.db import Database
from repro.kvstore import KVStore
from repro.workloads import mixed_logical_workload, tree_split_workload
from tests.conftest import TAIL_PAGES, fixed_tail_db


class TestScale:
    def test_4k_page_database_full_cycle(self):
        db = Database(pages_per_partition=[2048, 2048], policy="general")
        rng = random.Random(0)
        source = mixed_logical_workload(db.layout, seed=0, count=2000)
        for op in source:
            db.execute(op)
            if rng.random() < 0.4:
                db.install_some(2, rng)
        db.start_backup(BackupConfig(steps=8))
        while db.backup_in_progress():
            db.backup_step(128)
            db.install_some(2, rng)
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok, outcome.diffs[:3]

    def test_btree_with_thousands_of_keys(self):
        db = Database(pages_per_partition=[4096], policy="tree")
        tree = BTree(db, order=32, logging="tree").create()
        rng = random.Random(1)
        keys = list(range(5000))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, ("payload", key))
        assert tree.check_invariants() == 5000
        for key in rng.sample(keys, 2000):
            assert tree.delete(key)
        assert tree.check_invariants() == 3000
        db.crash()
        assert db.recover().ok
        reopened = BTree.attach(db, order=32)
        assert reopened.check_invariants() == 3000

    def test_kvstore_sustained_churn_with_backups(self):
        store = KVStore.create(capacity_pages=2048, order=32)
        rng = random.Random(2)
        live = set()
        for round_number in range(3):
            store.db.start_backup(BackupConfig(steps=8))
            key_base = round_number * 1000
            while store.db.backup_in_progress():
                store.db.backup_step(64)
                for _ in range(5):
                    key = key_base + rng.randrange(1000)
                    if key in live and rng.random() < 0.3:
                        store.delete(key)
                        live.discard(key)
                    else:
                        store.put(key, ("v", key))
                        live.add(key)
                store.db.install_some(3, rng)
        assert len(store.db.engine.completed) == 3
        store.simulate_media_failure()
        store.restore_from_backup()
        assert len(store) == len(live)

    def test_long_log_replay(self):
        """10k-record log, lazy flushing, single crash at the end."""
        db = Database(pages_per_partition=[512], policy="general")
        rng = random.Random(3)
        for op in mixed_logical_workload(db.layout, seed=3, count=10_000):
            db.execute(op)
            if rng.random() < 0.05:  # rarely flush: most work is redone
                db.install_some(1, rng)
        db.crash()
        outcome = db.recover()
        assert outcome.ok
        assert outcome.replayed > 1000

    def test_deep_tree_workload_media_recovery(self):
        db = Database(pages_per_partition=[1024], policy="tree")
        rng = random.Random(4)
        source = tree_split_workload(db.layout, seed=4, count=3000,
                                     records_per_page=6)
        db.start_backup(BackupConfig(steps=8))
        for op in source:
            db.execute(op)
            if rng.random() < 0.5:
                db.install_some(1, rng)
            if db.backup_in_progress() and rng.random() < 0.3:
                db.backup_step(16)
        while db.backup_in_progress():
            db.backup_step(64)
        db.media_failure()
        assert db.media_recover().ok

    def test_recovery_work_does_not_grow_with_the_database(
        self, stable_calls
    ):
        """Same tail, 16x the pages: the same installs (counts, not
        wall time) — recovery costs what replay wrote."""
        installs = {}
        for pages in (1024, 16384):
            db, written = fixed_tail_db(pages)
            db.crash()
            outcome = db.recover(verify=False)
            assert outcome.ok and set(outcome.state) == written
            db.media_failure()
            outcome = db.media_recover(verify=False)
            assert outcome.ok and set(outcome.state) == written
            installs[pages] = stable_calls.count("install_version")
            del stable_calls[:]
        assert installs[1024] == installs[16384] == 2 * TAIL_PAGES
