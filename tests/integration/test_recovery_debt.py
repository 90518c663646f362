"""Recovery debt under a lagging background flush.

Crash redo starts at the minimum recLSN of the dirty pages, so the log a
crash replays is set by which ready node the background flush installs
next.  Installing the oldest ready node first keeps that start within a
few records per dirty page of the log end; a choice that never picks the
oldest leaves it at the last checkpoint, and every crash rescans the
whole segment.
"""

import random

from repro.kvstore import KVStore

KEYS = 3000
OPS = 6000
# Seen at 3.1-4.3 records per dirty page over seeds 5-8.  Installing a
# fixed pseudo-random pick instead (``install_some(k)`` built a fresh
# ``random.Random(0)`` per call, which never picks the oldest once three
# nodes are ready) reached 62-67: the lag is the whole segment since the
# preload checkpoint, 4 865-5 843 records behind the end with 79-110
# pages dirty.
LAG_PER_DIRTY_PAGE = 6
# Seen at 176-190 records; the per-call Random(0) pick gave 5 775-5 843.
REDO_SCAN_BOUND = 500


def skewed_store(seed):
    """A preloaded 1 024-page store after ``OPS`` skewed puts/deletes,
    flushing two nodes every 4th op; returns it with the worst lag seen.

    The preload (tree growth) ends in a checkpoint: while the tree grows,
    every split rewrites the meta page blind, and each such write starts
    a fresh, youngest node for it while the page's recLSN stays put.
    """
    rng = random.Random(seed)
    store = KVStore.create(capacity_pages=1024, order=16)
    db, cm = store.db, store.db.cm
    keys = list(range(KEYS))
    rng.shuffle(keys)
    for key in keys:
        store.put(key, 0)
    db.checkpoint()
    worst = 0.0
    for i in range(OPS):
        key = int(KEYS * rng.random() ** 2)
        if rng.random() < 0.75:
            store.put(key, i)
        else:
            store.delete(key)
        if i % 4 == 3:
            db.install_some(2)
            lag = db.log.end_lsn + 1 - cm.stable_truncation_point
            worst = max(worst, lag / max(cm.rec.dirty_count(), 1))
    return store, worst


class TestOldestFirstBoundsRecoveryDebt:
    def test_log_lag_stays_within_a_few_records_per_dirty_page(self):
        _, worst = skewed_store(seed=5)
        assert worst <= LAG_PER_DIRTY_PAGE

    def test_crash_redo_scans_the_flush_lag_not_the_segment(self):
        store, _ = skewed_store(seed=6)
        db = store.db
        lag = db.log.end_lsn + 1 - db.cm.stable_truncation_point
        expected = {key: store.get(key) for key in range(KEYS)}
        db.crash()
        outcome = db.recover(verify=False)
        assert outcome.replayed + outcome.skipped <= REDO_SCAN_BOUND
        assert outcome.replayed + outcome.skipped <= lag
        store = KVStore.reopen(db, order=16)
        assert {key: store.get(key) for key in range(KEYS)} == expected
