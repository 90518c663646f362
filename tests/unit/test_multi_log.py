"""Unit tests for the multi-stream WAL (repro.wal.multi_log).

Covers the contract the striping must preserve: dense global LSNs, the
one-stream-per-object pinning (Iw/oF identity writes above all), the
globally consistent durable frontier, per-stream-suffix crash loss,
torn-tail repair and prefix truncation over stripes, the format-2
serialization envelope, incremental statistics, structured tail events,
and the group-commit durability guarantee under real threads.
"""

import os
import threading

import pytest

from repro.errors import LogTruncatedError
from repro.ids import PageId
from repro.obs.tracer import Tracer
from repro.ops.identity import IdentityWrite
from repro.ops.logical import GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.wal.checkpoint import CheckpointOp
from repro.wal.multi_log import LogStream, MultiLogManager, stream_for_page
from repro.wal.serialize import load_log, save_log


def W(part, slot, value=1):
    return PhysicalWrite(PageId(part, slot), (value,))


def fill(log, n, parts=3, slots=16, start=0):
    for i in range(n):
        log.append(W((start + i) % parts, (start + i * 7) % slots, i))


# ------------------------------------------------------------------ routing


def test_stream_for_page_is_stable_and_in_range():
    for n in (1, 2, 4, 7):
        for part in range(5):
            for slot in range(40):
                s = stream_for_page(PageId(part, slot), n)
                assert 0 <= s < n
                assert s == stream_for_page(PageId(part, slot), n)


def test_records_of_one_object_pin_to_one_stream():
    log = MultiLogManager(streams=4)
    page = PageId(1, 5)
    for i in range(10):
        log.append(PhysicalWrite(page, (i,)))
        log.append(IdentityWrite(page, (i,)))
    streams_used = {r.stream_id for r in log.merge_scan()}
    assert len(streams_used) == 1


def test_identity_write_shares_stream_with_its_page_updates():
    # The Iw/oF constraint: an identity write for page p lands on the
    # same stream as every other record whose home object is p, so the
    # per-object record order survives striping.
    log = MultiLogManager(streams=4)
    page = PageId(2, 9)
    update = log.append(PhysicalWrite(page, ("v",)))
    iwof = log.append(IdentityWrite(page, ("v",)))
    assert iwof.stream_id == update.stream_id
    assert iwof.stream_seq == update.stream_seq + 1


def test_multi_page_op_routes_by_smallest_write_page():
    log = MultiLogManager(streams=4)
    a, b = PageId(0, 1), PageId(2, 9)
    op = GeneralLogicalOp([a], [a, b], "copy_value", ())
    record = log.append(op)
    assert record.stream_id == stream_for_page(min((a, b)), 4)


def test_checkpoint_records_go_to_stream_zero():
    log = MultiLogManager(streams=4)
    record = log.append(CheckpointOp({}))
    assert record.stream_id == 0


# ------------------------------------------------- LSNs, order, merge scans


def test_global_lsns_stay_dense_across_streams():
    log = MultiLogManager(streams=4)
    fill(log, 100)
    assert [r.lsn for r in log.merge_scan()] == list(range(1, 101))
    assert log.end_lsn == 100
    assert sum(len(s) for s in log.streams) == 100
    assert len({r.stream_id for r in log.merge_scan()}) > 1


def test_merge_scan_range_and_truncation_error():
    log = MultiLogManager(streams=3)
    fill(log, 50)
    assert [r.lsn for r in log.merge_scan(10, 20)] == list(range(10, 21))
    log.truncate_prefix(15)
    with pytest.raises(LogTruncatedError):
        list(log.merge_scan(5))


def test_per_stream_sequence_is_dense_and_ascending():
    log = MultiLogManager(streams=4)
    fill(log, 80)
    for stream in log.streams:
        seqs = [r.stream_seq for r in stream.records]
        assert seqs == list(range(1, len(stream.records) + 1))
        lsns = [r.lsn for r in stream.records]
        assert lsns == sorted(lsns)


def test_record_at_and_scan_agree_with_merge_scan():
    log = MultiLogManager(streams=4)
    fill(log, 60)
    assert [r.lsn for r in log.scan()] == [r.lsn for r in log.merge_scan()]
    assert log.record_at(37).lsn == 37


# ---------------------------------------------------- durability and crashes


def test_frontier_requires_every_lower_lsn_durable():
    log = MultiLogManager(streams=4, auto_force=False)
    fill(log, 40)
    assert log.flushed_lsn == 0
    # Force one stream's records by hand: the global frontier must not
    # advance past the first unflushed record of any OTHER stream.
    log.streams[0].flushed_count = len(log.streams[0].records)
    assert log._advance_frontier() < 40  # noqa: SLF001
    log.force()
    assert log.flushed_lsn == 40


def test_crash_loses_only_per_stream_unforced_suffixes():
    log = MultiLogManager(streams=4, auto_force=False, group_commit=False)
    fill(log, 100)
    log.force(up_to=55)
    frontier = log.flushed_lsn
    assert frontier >= 55
    before = {
        s.stream_id: [r.lsn for r in s.records if r.lsn <= frontier]
        for s in log.streams
    }
    lost = log.discard_unflushed()
    assert lost == 100 - frontier
    for stream in log.streams:
        assert [r.lsn for r in stream.records] == before[stream.stream_id]
    # The surviving log is a dense global prefix.
    assert [r.lsn for r in log.merge_scan()] == list(range(1, frontier + 1))
    assert log.end_lsn == log.flushed_lsn == frontier


def test_appends_resume_densely_after_crash():
    log = MultiLogManager(streams=4, auto_force=False, group_commit=False)
    fill(log, 30)
    log.force(up_to=20)
    log.discard_unflushed()
    end = log.end_lsn
    record = log.append(W(0, 0))
    # The next append takes the first lost LSN, as on the single-stream
    # log, so the retained log stays a dense prefix every scan sees.
    assert record.lsn == end + 1
    assert [r.lsn for r in log.merge_scan()] == list(range(1, end + 2))
    assert log.record_at(end + 1) is record


def test_repair_tail_cuts_all_streams_at_first_damage():
    log = MultiLogManager(streams=4)
    fill(log, 60)
    victim = log.record_at(40)
    victim.crc = 12345  # bogus envelope: fails verification
    dropped = log.repair_tail()
    assert dropped == 21  # LSNs 40..60
    assert log.end_lsn == 39
    assert [r.lsn for r in log.merge_scan()] == list(range(1, 40))
    assert log.flushed_lsn <= 39
    assert log.tail_repair_dropped == 21
    assert log.stats.records == 39


def test_truncate_prefix_drops_per_stream_prefixes():
    log = MultiLogManager(streams=4)
    fill(log, 80)
    discarded = log.truncate_prefix(31)
    assert discarded == 30
    assert log.first_retained_lsn == 31
    for stream in log.streams:
        assert all(r.lsn >= 31 for r in stream.records)
    assert [r.lsn for r in log.merge_scan(31)] == list(range(31, 81))
    assert log.stats.records == 50
    assert log.count() == 50


# ------------------------------------------------------------- statistics


def test_stats_track_appends_and_removals():
    log = MultiLogManager(streams=4, auto_force=False, group_commit=False)
    page = PageId(0, 3)
    from repro.wal.records import RecordFlag

    for i in range(20):
        log.append(W(0, i % 8, i))
    log.append(IdentityWrite(page, (1,)),
               flags=RecordFlag.CM_INJECTED | RecordFlag.IWOF)
    assert log.stats.records == 21
    assert log.stats.iwof_records == 1
    assert log.stats.cm_injected == 1
    assert log.count() == 21
    assert log.iwof_count() == 1
    assert log.bytes_logged() == sum(r.size_bytes for r in log.merge_scan())
    log.force(up_to=10)
    log.discard_unflushed()
    assert log.stats.records == log.end_lsn
    assert log.count() == log.end_lsn


# ------------------------------------------------------------ trace events


def test_crash_emits_log_tail_lost_with_per_stream_counts():
    log = MultiLogManager(streams=4, auto_force=False, group_commit=False)
    tracer = Tracer()
    log.tracer = tracer
    fill(log, 40)
    log.force(up_to=25)
    frontier = log.flushed_lsn
    lost = log.discard_unflushed()
    events = [e for e in tracer.events if e.kind == "log_tail_lost"]
    assert len(events) == 1
    assert events[0].get("dropped") == lost
    assert events[0].get("cut_lsn") == frontier + 1
    per_stream = events[0].get("per_stream")
    assert sum(per_stream.values()) == lost


def test_repair_emits_log_tail_repair_event():
    log = MultiLogManager(streams=4)
    tracer = Tracer()
    log.tracer = tracer
    fill(log, 30)
    log.record_at(21).crc = 999
    dropped = log.repair_tail()
    events = [e for e in tracer.events if e.kind == "log_tail_repair"]
    assert len(events) == 1
    assert events[0].get("dropped") == dropped
    assert events[0].get("cut_lsn") == 21


def test_tail_repair_dropped_mirrored_into_metrics_snapshot():
    from repro.db import Database

    db = Database(pages_per_partition=[16], log_streams=4,
                  auto_force_log=True)
    for i in range(20):
        db.execute(W(0, i % 16, i))
    db.log.record_at(15).crc = 4242
    db.crash()
    db.recover()
    assert db.log.tail_repair_dropped > 0
    snap = db.metrics.snapshot()
    assert snap["tail_repair_dropped"] == db.log.tail_repair_dropped


# -------------------------------------------------------------- group commit


def test_group_commit_force_never_returns_before_durable():
    # Real-thread stress: force() must not return while the caller's
    # record is still above the durable frontier, and flushed_lsn must
    # never claim an LSN whose tick has not completed.
    log = MultiLogManager(streams=4, auto_force=False, group_commit=True,
                          force_delay_s=0.0002)
    errors = []

    def worker(tid):
        try:
            for i in range(40):
                record = log.append(W(tid % 3, (tid * 11 + i) % 16, i))
                log.force(up_to=record.lsn)
                if log.flushed_lsn < record.lsn:
                    errors.append(
                        f"force returned with lsn {record.lsn} above "
                        f"frontier {log.flushed_lsn}"
                    )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert log.flushed_lsn == log.end_lsn == 240
    assert [r.lsn for r in log.merge_scan()] == list(range(1, 241))


def test_group_commit_coalesces_and_records_batch_sizes():
    from repro.sim.metrics import Metrics

    log = MultiLogManager(streams=2, auto_force=False, group_commit=True,
                          force_delay_s=0.0005)
    log.metrics = Metrics()
    barrier = threading.Barrier(4)

    def worker(tid):
        barrier.wait()
        for i in range(10):
            log.append(W(tid % 2, tid * 7 + i, i))
            log.force()

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    m = log.metrics
    assert m.group_commit_ticks == log.epoch > 0
    # Fewer device syncs than forces that found work => coalescing.
    assert m.group_commit_ticks < 40
    assert sum(m.force_batch_sizes.values()) == m.group_commit_ticks
    assert m.group_commit_coalesced == sum(
        (batch - 1) * n for batch, n in m.force_batch_sizes.items()
    )


def test_group_commit_emits_log_force_events_with_batch():
    log = MultiLogManager(streams=2, auto_force=False, group_commit=True)
    tracer = Tracer()
    log.tracer = tracer
    fill(log, 10)
    log.force()
    events = [e for e in tracer.events if e.kind == "log_force"]
    assert len(events) == 1
    assert events[0].get("batch") == 1
    assert events[0].get("lsn") == 10


def test_per_caller_mode_pays_one_sync_per_forcing_caller():
    from repro.sim.metrics import Metrics

    log = MultiLogManager(streams=1, auto_force=False, group_commit=False)
    log.metrics = Metrics()
    for i in range(5):
        log.append(W(0, i, i))
        log.force()
    assert log.metrics.group_commit_ticks == 5
    assert log.metrics.group_commit_coalesced == 0


# ------------------------------------------------------------- serialization


def test_format2_round_trip(tmp_path):
    log = MultiLogManager(streams=4)
    fill(log, 60)
    log.append(IdentityWrite(PageId(1, 2), ("x",)))
    log.force()
    path = str(tmp_path / "striped.log")
    save_log(log, path)
    loaded = load_log(path)
    assert isinstance(loaded, MultiLogManager)
    assert loaded.num_streams == 4
    assert loaded.end_lsn == log.end_lsn
    assert loaded.flushed_lsn == log.flushed_lsn
    original = [(r.lsn, r.stream_id, r.kind) for r in log.merge_scan()]
    restored = [(r.lsn, r.stream_id, r.kind) for r in loaded.merge_scan()]
    assert restored == original
    assert loaded.stats.records == log.stats.records
    assert loaded.stats.iwof_records == log.stats.iwof_records
    # Appends continue from the original sequence.
    record = loaded.append(W(0, 1))
    assert record.lsn == log.end_lsn + 1


def test_format2_ships_only_the_durable_consistent_cut(tmp_path):
    log = MultiLogManager(streams=4, auto_force=False, group_commit=False)
    fill(log, 50)
    log.force(up_to=30)
    frontier = log.flushed_lsn
    path = str(tmp_path / "striped.log")
    save_log(log, path)
    loaded = load_log(path)
    assert loaded.end_lsn == frontier
    assert [r.lsn for r in loaded.merge_scan()] == list(
        range(1, frontier + 1)
    )


def test_format2_repair_tail_cuts_at_corrupt_record(tmp_path):
    import json

    log = MultiLogManager(streams=4)
    fill(log, 40)
    log.force()
    path = str(tmp_path / "striped.log")
    save_log(log, path)
    with open(path) as fh:
        envelope = json.load(fh)
    # Corrupt a mid-stream record's checksum in the shipped file.
    target_lsn = None
    for stream_env in envelope["streams"]:
        if len(stream_env["records"]) > 2:
            spec = stream_env["records"][1]
            spec["crc"] = (spec["crc"] + 1) % (2 ** 32)
            target_lsn = spec["lsn"]
            break
    with open(path, "w") as fh:
        json.dump(envelope, fh)
    with pytest.raises(Exception):
        load_log(path)
    loaded = load_log(path, repair_tail=True)
    assert loaded.end_lsn < target_lsn
    assert [r.lsn for r in loaded.merge_scan()] == list(
        range(1, loaded.end_lsn + 1)
    )
    assert loaded.tail_repair_dropped == 40 - loaded.end_lsn


def test_single_stream_files_stay_format1(tmp_path):
    import json

    from repro.wal.log_manager import LogManager

    log = LogManager()
    for i in range(10):
        log.append(W(0, i % 8, i))
    path = str(tmp_path / "plain.log")
    save_log(log, path)
    with open(path) as fh:
        envelope = json.load(fh)
    assert envelope["format"] == 1
    loaded = load_log(path)
    assert loaded.stats.records == 10  # loader maintains incremental stats
    assert loaded.count() == 10


def test_stream_repr_and_lengths():
    log = MultiLogManager(streams=3)
    fill(log, 9)
    lengths = log.stream_lengths()
    assert sum(lengths.values()) == 9
    assert "MultiLogManager" in repr(log)
    assert "LogStream" in repr(log.streams[0])
    assert isinstance(log.streams[0], LogStream)
