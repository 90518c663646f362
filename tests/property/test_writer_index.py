"""Property: the log's per-page writer index never drifts from the log.

Every record enters the retained log through ``_admit`` and leaves it
through ``_evict``, which maintain the incremental statistics and the
writer index together.  Random schedules of appends, forces, crash
discards, tail rot + torn-tail repair, prefix truncation and a
save/load round trip drive the manager; after every step
``writers(page)`` must equal a brute-force ``scan`` filter over the
retained log, for every page, and ``stats.snapshot()`` must equal a
recount.  A threaded case appends on one thread while another bisects
the index meanwhile.
"""

import os
import random
import sys
import tempfile
import threading

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ids import PageId
from repro.ops.logical import GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.wal.log_manager import LogManager, LogStats
from repro.wal.serialize import load_log, save_log

PAGES = [PageId(p, s) for p in range(2) for s in range(5)]

pages = st.sampled_from(PAGES)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), pages, st.integers(0, 99)),
        st.tuples(st.just("logical"), st.lists(pages, min_size=1,
                                               max_size=3, unique=True),
                  st.lists(pages, max_size=2, unique=True)),
        st.tuples(st.just("force"), st.integers(0, 8)),
        st.tuples(st.just("crash")),
        st.tuples(st.just("rot"), st.integers(0, 2**16)),
        st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
        st.tuples(st.just("reload")),
    ),
    max_size=40,
)


def _nonzero(snapshot):
    """A stats snapshot without the zero per-kind entries removal leaves."""
    out = dict(snapshot)
    for key in ("by_kind", "bytes_by_kind"):
        out[key] = {k: v for k, v in snapshot[key].items() if v}
    return out


def assert_index_matches_log(log):
    first = log.first_retained_lsn
    retained = list(log.scan(first))
    expected = {}
    recount = LogStats()
    for record in retained:
        recount.add(record)
        for page in record.op.writeset:
            expected.setdefault(page, []).append(record)
    for page in PAGES:
        want = expected.get(page, [])
        assert log.writers(page, first) == want, page
        # A bounded lookup is the same filter, cut at both ends.
        if retained:
            lo = retained[len(retained) // 3].lsn
            hi = retained[(2 * len(retained)) // 3].lsn
            assert log.writers(page, lo, hi) == [
                r for r in want if lo <= r.lsn <= hi
            ]
    # Evicting a page's last writer drops its entry outright.
    assert set(log._page_writers) == set(expected)
    assert _nonzero(log.stats.snapshot()) == _nonzero(recount.snapshot())


def _apply(log, step, tmp, pending):
    """Apply one schedule step.  ``pending["force_in"]`` counts the
    appends left before a scheduled force, so the durable frontier a
    crash cuts back to lands anywhere among the appends."""
    kind = step[0]
    if kind in ("append", "logical"):
        if kind == "append":
            log.append(PhysicalWrite(step[1], step[2]))
        else:
            writes, reads = step[1], step[2]
            log.append(GeneralLogicalOp(reads, writes, "concat_sorted"))
        if pending["force_in"] is not None:
            pending["force_in"] -= 1
            if pending["force_in"] <= 0:
                log.force()
                pending["force_in"] = None
    elif kind == "force":
        if step[1] == 0:
            log.force()
        else:
            pending["force_in"] = step[1]
    elif kind == "crash":
        log.discard_unflushed()
        pending["force_in"] = None
    elif kind == "rot":
        if log._bitrot(random.Random(step[1])):
            log.repair_tail()
    elif kind == "truncate":
        retained = log.end_lsn - log.first_retained_lsn + 1
        log.truncate_prefix(log.first_retained_lsn + int(retained * step[1]))
    elif kind == "reload":
        path = os.path.join(tmp, "log.json")
        save_log(log, path)
        return load_log(path)
    return log


@given(schedule=steps)
@settings(max_examples=80, deadline=None)
def test_index_and_stats_track_every_mutation(schedule):
    log = LogManager(auto_force=False)
    pending = {"force_in": None}
    with tempfile.TemporaryDirectory() as tmp:
        for step in schedule:
            log = _apply(log, step, tmp, pending)
            assert_index_matches_log(log)


def test_concurrent_appends_keep_the_index_ordered():
    """One appender thread, one index reader on another thread."""
    log = LogManager(auto_force=True)
    appends = 6000
    bound = []
    errors = []
    start = threading.Barrier(2)

    def appender(seed):
        rng = random.Random(seed)
        start.wait()
        for _ in range(appends):
            writes = rng.sample(PAGES, rng.randrange(1, 4))
            log.append(GeneralLogicalOp([], writes, "concat_sorted"))

    def reader():
        start.wait()
        while not bound:
            for page in PAGES:
                lsns = [r.lsn for r in log.writers(page, 1, 3000)]
                if lsns != sorted(set(lsns)) or any(l > 3000 for l in lsns):
                    errors.append((page, lsns))

    threads = [threading.Thread(target=appender, args=(0,))]
    watcher = threading.Thread(target=reader)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads + [watcher]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        bound.append(True)
        watcher.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [watcher])
    assert not errors
    assert log.end_lsn == appends
    assert_index_matches_log(log)
