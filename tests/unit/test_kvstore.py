"""Unit tests for the KVStore facade."""

import random

import pytest

from repro.core.config import BackupConfig
from repro.errors import ReproError
from repro.kvstore import KVStore


@pytest.fixture
def store():
    return KVStore.create(capacity_pages=128, order=8)


class TestKVBasics:
    def test_put_get(self, store):
        store.put(1, "one")
        assert store.get(1) == "one"
        assert store.get(2) is None
        assert store.get(2, default="fallback") == "fallback"

    def test_overwrite(self, store):
        store.put(1, "a")
        store.put(1, "b")
        assert store.get(1) == "b"
        assert len(store) == 1

    def test_delete(self, store):
        store.put(1, "one")
        assert store.delete(1)
        assert not store.delete(1)
        assert 1 not in store

    def test_contains_and_len(self, store):
        for key in range(10):
            store.put(key, key)
        assert len(store) == 10
        assert 5 in store
        assert 50 not in store

    def test_range_scan(self, store):
        for key in range(20):
            store.put(key, key * 10)
        assert list(store.range(5, 8)) == [
            (5, 50), (6, 60), (7, 70), (8, 80)
        ]

    def test_items_ordered(self, store):
        rng = random.Random(1)
        keys = list(range(50))
        rng.shuffle(keys)
        for key in keys:
            store.put(key, key)
        assert [k for k, _ in store.items()] == sorted(keys)

    def test_stats(self, store):
        store.put(1, "x")
        stats = store.stats()
        assert stats["keys"] == 1
        assert stats["log_records"] > 0


@pytest.fixture(scope="module")
def big_store():
    store = KVStore.create(capacity_pages=8192, order=16)
    keys = list(range(20_000))
    random.Random(5).shuffle(keys)
    for key in keys:
        store.put(key, key)
    return store


class TestRangeSeeks:
    """Guard: a range scan costs one root-to-leaf seek plus the leaves it
    returns, not a walk from the first leaf (which was 0.59 of
    kv_read_mem's wall time and all of its p99)."""

    @pytest.mark.parametrize(
        "low", [0, 1, 7_777, 10_000, 16_383, 19_970, 19_990, 19_999]
    )
    def test_range_reads_a_bounded_number_of_pages(
        self, big_store, monkeypatch, low
    ):
        db = big_store.db
        reads = []
        real_read = db.read

        def counting_read(page_id):
            reads.append(page_id)
            return real_read(page_id)

        height = big_store.tree.height()
        monkeypatch.setattr(db, "read", counting_read)
        found = list(big_store.range(low, low + 20))
        expected = [(k, k) for k in range(low, min(low + 21, 20_000))]
        assert found == expected
        assert len(reads) <= 2 * height + 4

    def test_range_between_and_beyond_keys(self, store):
        for key in range(0, 400, 4):
            store.put(key, key)
        assert list(store.range(101, 109)) == [(104, 104), (108, 108)]
        assert list(store.range(-5, 0)) == [(0, 0)]
        assert list(store.range(397, 1000)) == []
        assert list(store.range(9, 5)) == []
        assert [k for k, _ in store.tree.items(390)] == [392, 396]


class TestKVDurability:
    def test_crash_and_recover(self, store):
        for key in range(30):
            store.put(key, ("v", key))
        outcome = store.simulate_crash()
        assert outcome.ok
        assert store.get(17) == ("v", 17)
        assert len(store) == 30

    def test_backup_and_media_restore(self, store):
        for key in range(30):
            store.put(key, key)
        store.online_backup(BackupConfig(steps=4))
        for key in range(30, 50):
            store.put(key, key)  # after the backup: on the media log
        store.simulate_media_failure()
        store.restore_from_backup()
        assert len(store) == 50
        assert store.get(45) == 45

    def test_incremental_backup(self, store):
        for key in range(20):
            store.put(key, key)
        store.online_backup(BackupConfig(steps=4))
        store.put(99, "late")
        incremental = store.online_backup(
            BackupConfig(steps=4, incremental=True)
        )
        assert incremental.copied_count() < 20
        store.simulate_media_failure()
        outcome = store.db.media_recover_chain()
        assert outcome.ok

    def test_restore_requires_backup(self, store):
        store.put(1, 1)
        store.simulate_media_failure()
        from repro.errors import NoBackupError

        with pytest.raises(NoBackupError):
            store.restore_from_backup()

    def test_online_backup_interleaved_via_db(self, store):
        rng = random.Random(2)
        for key in range(40):
            store.put(key, key)
        store.db.start_backup(BackupConfig(steps=8))
        key = 100
        while store.db.backup_in_progress():
            store.db.backup_step(4)
            store.put(key, key)
            store.delete(key - 100)
            key += 1
            store.db.install_some(2, rng)
        store.simulate_media_failure()
        store.restore_from_backup()
        assert store.get(0, "gone") == "gone"
        assert store.get(100) == 100
