"""Unit tests for the log manager and WAL rule."""

import json

import pytest

from repro.errors import LogTruncatedError, WALViolationError
from repro.ids import PageId
from repro.ops.identity import IdentityWrite
from repro.ops.logical import GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.wal.log_manager import LogManager
from repro.wal.records import RecordFlag


def wp(slot, value=0):
    return PhysicalWrite(PageId(0, slot), value)


class TestAppend:
    def test_lsns_monotone_from_one(self):
        log = LogManager()
        assert log.append(wp(0)).lsn == 1
        assert log.append(wp(1)).lsn == 2
        assert log.end_lsn == 2
        assert log.next_lsn == 3

    def test_auto_force_default(self):
        log = LogManager()
        log.append(wp(0))
        assert log.flushed_lsn == 1

    def test_manual_force(self):
        log = LogManager(auto_force=False)
        log.append(wp(0))
        assert log.flushed_lsn == 0
        log.force()
        assert log.flushed_lsn == 1
        log.append(wp(1))
        log.force()
        assert log.flushed_lsn == 2

    def test_force_never_regresses(self):
        log = LogManager(auto_force=False)
        log.append(wp(0))
        log.force()
        log.force()
        assert log.flushed_lsn == 1

    def test_append_listener_invoked(self):
        log = LogManager()
        seen = []
        log.on_append(seen.append)
        record = log.append(wp(0))
        assert seen == [record]

    def test_lsns_dense_across_record_kinds(self):
        """Physical, identity and multi-page logical records share one
        dense LSN sequence, whatever pages they write."""
        log = LogManager()
        ops = [
            wp(0),
            IdentityWrite(PageId(1, 2), ("v",)),
            GeneralLogicalOp([PageId(0, 0)], [PageId(1, 3), PageId(0, 4)],
                             "concat_sorted"),
            wp(7),
        ]
        assert [log.append(op).lsn for op in ops] == [1, 2, 3, 4]
        assert all(r.op is op for r, op in zip(log.scan(), ops))


class TestWAL:
    def test_flush_ahead_of_log_rejected(self):
        log = LogManager(auto_force=False)
        record = log.append(wp(0))
        with pytest.raises(WALViolationError):
            log.assert_wal(PageId(0, 0), record.lsn)

    def test_flush_behind_log_ok(self):
        log = LogManager(auto_force=False)
        record = log.append(wp(0))
        log.force()
        log.assert_wal(PageId(0, 0), record.lsn)


class TestScan:
    def test_scan_range(self):
        log = LogManager()
        for i in range(5):
            log.append(wp(i))
        assert [r.lsn for r in log.scan(2, 4)] == [2, 3, 4]
        assert [r.lsn for r in log.scan()] == [1, 2, 3, 4, 5]

    def test_durable_scan_stops_at_flushed(self):
        log = LogManager(auto_force=False)
        log.append(wp(0))
        log.force()
        log.append(wp(1))
        assert [r.lsn for r in log.durable_scan()] == [1]

    def test_record_at(self):
        log = LogManager()
        log.append(wp(0))
        assert log.record_at(1).lsn == 1
        with pytest.raises(LogTruncatedError):
            log.record_at(2)

    def test_discard_unflushed(self):
        log = LogManager(auto_force=False)
        log.append(wp(0))
        log.force()
        log.append(wp(1))
        log.append(wp(2))
        assert log.discard_unflushed() == 2
        assert log.end_lsn == 1
        # New appends continue from the surviving prefix.
        assert log.append(wp(3)).lsn == 2

    def test_appends_resume_densely_after_crash(self):
        """The LSNs a crash lost are reused, and the writer index holds
        the new records, never the lost ones."""
        log = LogManager(auto_force=False)
        for i in range(10):
            log.append(wp(i % 3, ("old", i)))
            if i == 5:
                log.force()
        log.discard_unflushed()
        fresh = [log.append(wp(0, ("new", i))) for i in range(3)]
        assert [r.lsn for r in fresh] == [7, 8, 9]
        assert [r.lsn for r in log.scan()] == list(range(1, 10))
        assert [r.op.value for r in log.writers(PageId(0, 0), 7)] == [
            ("new", 0), ("new", 1), ("new", 2)
        ]

    def test_scan_below_the_retained_prefix_raises(self):
        log = LogManager()
        for i in range(10):
            log.append(wp(i))
        assert log.truncate_prefix(4) == 3
        assert log.first_retained_lsn == 4
        # LSN addressing is stable across truncation.
        assert log.record_at(4).op.target == PageId(0, 3)
        assert [r.lsn for r in log.scan(4, 6)] == [4, 5, 6]
        with pytest.raises(LogTruncatedError):
            list(log.scan(3))
        with pytest.raises(LogTruncatedError):
            log.writers(PageId(0, 5), 1)
        with pytest.raises(LogTruncatedError):
            log.record_at(3)
        assert log.append(wp(0)).lsn == 11

    def test_truncating_past_the_end_empties_the_log(self):
        log = LogManager(auto_force=False)
        for i in range(5):
            log.append(wp(i))
        log.force()
        assert log.truncate_prefix(50) == 5
        assert len(log) == 0
        assert log.first_retained_lsn == 6
        assert log.end_lsn == log.flushed_lsn == 5
        assert list(log.scan(6)) == []
        assert log.append(wp(0)).lsn == 6


class TestTailRepair:
    def test_repair_tail_cuts_at_the_first_damaged_record(self):
        log = LogManager()
        for i in range(12):
            log.append(wp(i % 4, i))
        log.record_at(9).crc = 1
        log.record_at(7).crc = 2
        assert log.damaged_records() == [7, 9]
        assert log.repair_tail() == 6
        assert log.end_lsn == log.flushed_lsn == 6
        assert log.damaged_records() == []
        assert log.repair_tail() == 0
        assert log.tail_repair_dropped == 6
        assert log.append(wp(0)).lsn == 7


class _CountingDevice:
    """A log device that records what the manager hands it."""

    def __init__(self):
        self.appended, self.syncs, self.drops = [], 0, 0

    def append(self, record):
        self.appended.append(record.lsn)

    def sync(self):
        self.syncs += 1

    def drop_pending(self):
        self.drops += 1

    def close(self):
        pass


class TestDevice:
    def test_force_takes_no_frontier(self):
        log = LogManager(auto_force=False)
        log.append(wp(0))
        log.append(wp(1))
        with pytest.raises(TypeError):
            log.force(1)
        assert log.flushed_lsn == 0

    def test_file_log_holds_each_lsn_once_across_a_crash(self, tmp_path):
        from repro.storage.file_backend import FileLogDevice

        log = LogManager(auto_force=False)
        device = log.attach_device(FileLogDevice(str(tmp_path / "wal")))
        for i in range(3):
            log.append(wp(i, ("old", i)))
        log.force()
        log.append(wp(3, ("lost", 3)))
        log.append(wp(4, ("lost", 4)))
        assert log.discard_unflushed() == 2
        for i in range(2):
            log.append(wp(i, ("new", i)))
        log.force()
        device.close()
        with open(device.path) as f:
            specs = [json.loads(line) for line in f]
        assert [spec["lsn"] for spec in specs] == [1, 2, 3, 4, 5]
        assert "lost" not in json.dumps(specs)

    def test_one_sync_per_force_that_advances_the_frontier(self):
        log = LogManager(auto_force=False)
        device = _CountingDevice()
        log.attach_device(device)
        log.append(wp(0))
        log.append(wp(1))
        log.force()
        log.force()
        assert device.syncs == 1
        log.append(wp(2))
        log.append(wp(3))
        assert device.appended == [1, 2, 3, 4]
        log.force()
        log.force()
        assert device.syncs == 2

    def test_crash_drops_the_devices_pending_suffix(self):
        log = LogManager(auto_force=False)
        device = _CountingDevice()
        log.attach_device(device)
        log.append(wp(0))
        log.force()
        log.discard_unflushed()  # nothing unforced: nothing to drop
        assert device.drops == 0
        log.append(wp(1))
        log.discard_unflushed()
        assert device.drops == 1


class TestStatistics:
    def test_count_with_predicate(self):
        log = LogManager()
        log.append(wp(0), RecordFlag.CM_INJECTED | RecordFlag.IWOF)
        log.append(wp(1))
        assert log.count() == 2
        assert log.iwof_count() == 1

    def test_bytes_logged_positive(self):
        log = LogManager()
        log.append(wp(0, "payload"))
        assert log.bytes_logged() > len("payload")


class TestTailEvents:
    def test_stats_follow_appends_and_crash_discards(self):
        log = LogManager(auto_force=False)
        for i in range(20):
            log.append(wp(i % 8, i))
            if i == 9:
                log.force()
        log.append(wp(3), RecordFlag.CM_INJECTED | RecordFlag.IWOF)
        assert log.stats.records == log.count() == 21
        assert log.stats.iwof_records == log.iwof_count() == 1
        assert log.stats.cm_injected == 1
        assert log.bytes_logged() == sum(r.size_bytes for r in log.scan())
        assert log.discard_unflushed() == 11
        assert log.stats.records == log.count() == log.end_lsn == 10
        assert log.stats.iwof_records == 0

    def test_crash_emits_log_tail_lost(self):
        from repro.obs.tracer import Tracer

        log = LogManager(auto_force=False)
        log.tracer = Tracer()
        for i in range(40):
            log.append(wp(i % 8, i))
            if i == 24:
                log.force()
        lost = log.discard_unflushed()
        events = log.tracer.find("log_tail_lost")
        assert len(events) == 1
        assert events[0].get("dropped") == lost == 15
        assert events[0].get("cut_lsn") == 26

    def test_repair_emits_log_tail_repair(self):
        from repro.obs.tracer import Tracer

        log = LogManager()
        log.tracer = Tracer()
        for i in range(30):
            log.append(wp(i % 8, i))
        log.record_at(21).crc = 999
        dropped = log.repair_tail()
        events = log.tracer.find("log_tail_repair")
        assert len(events) == 1
        assert events[0].get("dropped") == dropped == 10
        assert events[0].get("cut_lsn") == 21

    def test_tail_repair_dropped_mirrored_into_metrics_snapshot(self):
        from repro.db import Database

        db = Database(pages_per_partition=[16])
        for i in range(20):
            db.execute(wp(i % 16, i))
        db.log.record_at(15).crc = 4242
        db.crash()
        db.recover()
        assert db.log.tail_repair_dropped == 6
        snap = db.metrics.snapshot()
        assert snap["tail_repair_dropped"] == db.log.tail_repair_dropped
