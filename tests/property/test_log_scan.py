"""Property-based tests: the log's scans are one dense, durable order.

Recovery reads the log through ``scan``/``durable_scan``, bounded
ranges of them, ``record_at``, the cuts a crash (``discard_unflushed``),
a torn-tail repair (``repair_tail``) or retention (``truncate_prefix``)
make, and a shipped log file (``save_log``/``load_log``).  Random append
schedules with random force points check that every one of those views
is a slice of the same dense, ascending LSN order, and that a cut keeps
exactly the prefix it promises.
"""

import os
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import LogTruncatedError
from repro.ids import PageId
from repro.ops.identity import IdentityWrite
from repro.ops.physical import PhysicalWrite
from repro.wal.log_manager import LogManager
from repro.wal.serialize import load_log, save_log

N_PARTS = 3
N_SLOTS = 12

# One append is (page code, value, identity?, force after it?); encoding
# appends as data lets hypothesis shrink a failing schedule.
appends = st.lists(
    st.tuples(
        st.integers(0, N_PARTS * N_SLOTS - 1),
        st.integers(0, 99),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=80,
)


def _op(code, value, identity):
    page = PageId(code // N_SLOTS, code % N_SLOTS)
    return (IdentityWrite if identity else PhysicalWrite)(page, (value,))


def _build(schedule):
    """Append ``schedule`` to an unforced log, forcing where it says."""
    log = LogManager(auto_force=False)
    for code, value, identity, force in schedule:
        log.append(_op(code, value, identity))
        if force:
            log.force()
    return log


def _fingerprint(record):
    op = record.op
    return (record.lsn, type(op).__name__, op.target, op.value,
            record.flags.value)


def _last_forced(schedule):
    """The LSN of the last append the schedule forced after (0: none)."""
    forced = [i + 1 for i, step in enumerate(schedule) if step[3]]
    return forced[-1] if forced else 0


@given(schedule=appends)
@settings(max_examples=60, deadline=None)
def test_scan_is_a_dense_total_order_and_durable_scan_its_prefix(schedule):
    log = _build(schedule)
    lsns = [r.lsn for r in log.scan()]
    assert lsns == list(range(1, len(schedule) + 1))
    assert [r.op.value for r in log.scan()] == [
        (value,) for _, value, _, _ in schedule
    ]
    assert log.flushed_lsn == _last_forced(schedule)
    durable = [r.lsn for r in log.durable_scan()]
    assert durable == lsns[: log.flushed_lsn]


@given(schedule=appends, data=st.data())
@settings(max_examples=60, deadline=None)
def test_ranges_and_record_at_are_slices_of_the_scan(schedule, data):
    log = _build(schedule)
    records = list(log.scan())
    end = len(records)
    lo = data.draw(st.integers(1, end + 1), label="lo")
    hi = data.draw(st.integers(0, end + 2), label="hi")
    assert list(log.scan(lo, hi)) == records[lo - 1: hi]
    assert list(log.durable_scan(lo)) == records[lo - 1: log.flushed_lsn]
    assert all(log.record_at(r.lsn) is r for r in records)


@given(schedule=appends, more=st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_crash_cut_keeps_exactly_the_forced_prefix(schedule, more):
    log = _build(schedule)
    before = [_fingerprint(r) for r in log.scan()]
    frontier = log.flushed_lsn
    assert log.discard_unflushed() == len(schedule) - frontier
    assert [_fingerprint(r) for r in log.scan()] == before[:frontier]
    # Appends after the crash reuse the lost LSNs, densely.
    fresh = [log.append(_op(0, i, False)).lsn for i in range(more)]
    assert fresh == list(range(frontier + 1, frontier + more + 1))
    assert [r.lsn for r in log.scan()] == list(
        range(1, frontier + more + 1)
    )


@given(
    schedule=appends,
    damage=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_repair_tail_cuts_at_the_first_damaged_record(schedule, damage):
    log = _build(schedule)
    before = [_fingerprint(r) for r in log.scan()]
    flushed = log.flushed_lsn
    damaged = sorted({int(f * len(schedule)) + 1 for f in damage})
    for lsn in damaged:
        log.record_at(lsn).crc = -lsn  # never a valid envelope
    cut = damaged[0] - 1 if damaged else len(schedule)
    assert log.repair_tail() == len(schedule) - cut
    assert [_fingerprint(r) for r in log.scan()] == before[:cut]
    assert log.flushed_lsn == min(flushed, cut)
    assert log.repair_tail() == 0


@given(schedule=appends, data=st.data())
@settings(max_examples=60, deadline=None)
def test_truncate_prefix_keeps_the_suffix_at_its_lsns(schedule, data):
    log = _build(schedule)
    before = [_fingerprint(r) for r in log.scan()]
    up_to = data.draw(st.integers(0, len(schedule) + 2), label="up_to")
    first = max(1, min(up_to, len(schedule) + 1))
    assert log.truncate_prefix(up_to) == first - 1
    assert log.first_retained_lsn == first
    assert [_fingerprint(r) for r in log.scan(first)] == before[first - 1:]
    assert len(log) == len(schedule) - first + 1
    if first > 1:
        with pytest.raises(LogTruncatedError):
            list(log.scan(first - 1))


@given(schedule=appends, data=st.data())
@settings(max_examples=40, deadline=None)
def test_shipped_log_is_the_durable_retained_scan(schedule, data):
    log = _build(schedule)
    log.truncate_prefix(data.draw(st.integers(0, log.flushed_lsn + 1),
                                  label="up_to"))
    first = log.first_retained_lsn
    durable = [_fingerprint(r) for r in log.durable_scan(first)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.json")
        save_log(log, path)
        loaded = load_log(path)
    assert loaded.first_retained_lsn == first
    assert [_fingerprint(r) for r in loaded.scan(first)] == durable
    assert loaded.flushed_lsn == loaded.end_lsn == log.flushed_lsn
