"""The log manager: append-only record stream with a force point.

Responsibilities:

* assign LSNs (monotone from 1);
* track ``flushed_lsn`` — the stable prefix of the log.  A record is only
  durable (survives a crash) once forced; the WAL rule requires a page's
  last-update record to be forced before the page reaches S
  (:meth:`assert_wal` is called by the cache manager before each flush);
* expose ordered scans from any LSN for recovery and statistics used by
  the benchmarks (record counts / byte volumes by flag and kind).

Statistics (``count`` / ``bytes_logged`` / ``iwof_count``) are served
from incremental per-flag / per-kind counters (:class:`LogStats`)
maintained at append and adjusted by truncation, tail repair and crash
discards — whole-log queries are O(1) instead of a rescan.  The
per-page writer index behind :meth:`LogManager.writers` is maintained
at the same sites: every record enters the retained log through
``_admit`` and leaves it through ``_evict``, which update both.

Recovery consumes the log through :meth:`scan` / :meth:`durable_scan`,
the one ordered record stream.

For simplicity transactions are not modelled as explicit begin/commit
records: the paper's protocol is entirely about operation installation
and redo, and every logged operation is treated as committed.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.errors import LogTruncatedError, WALViolationError
from repro.ids import LSN, NULL_LSN, PageId
from repro.obs.events import LOG_FORCE, LOG_TAIL_LOST, LOG_TAIL_REPAIR
from repro.obs.tracer import NULL_TRACER
from repro.ops.base import Operation
from repro.wal.records import LogRecord, RecordFlag

# Cached late import (see LogManager._checksum).
_record_checksum = None

_crc_of = attrgetter("crc")
_lsn_of = attrgetter("lsn")
# Most records carry no flag; one identity test against the canonical
# member skips two enum Flag operations (~0.8 us each) per record.
_NO_FLAGS = RecordFlag.NONE


def bisect_lsn(records: Sequence[LogRecord], lsn: LSN) -> int:
    """Position of the first record with ``record.lsn >= lsn``.

    ``records`` must be in ascending LSN order (``bisect_left`` keyed by
    LSN; spelled out because ``bisect``'s ``key=`` needs Python 3.10).
    """
    lo, hi = 0, len(records)
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid].lsn < lsn:
            lo = mid + 1
        else:
            hi = mid
    return lo


class LogStats:
    """Incremental record/byte counters for one log.

    Maintained by the owning log manager at append time and *decremented*
    when records leave the log (prefix truncation, torn-tail repair,
    crash discards), so whole-log statistics never rescan the record
    list.  ``by_kind`` / ``bytes_by_kind`` are keyed by
    ``OperationKind.value``.
    """

    __slots__ = ("records", "bytes", "iwof_records", "iwof_bytes",
                 "cm_injected", "by_kind", "bytes_by_kind")

    def __init__(self):
        self.records = 0
        self.bytes = 0
        self.iwof_records = 0
        self.iwof_bytes = 0
        self.cm_injected = 0
        self.by_kind: Dict[str, int] = {}
        self.bytes_by_kind: Dict[str, int] = {}

    def add(self, record: LogRecord) -> None:
        size = record.size_bytes
        self.records += 1
        self.bytes += size
        if record.flags is not _NO_FLAGS:
            if record.is_iwof:
                self.iwof_records += 1
                self.iwof_bytes += size
            if record.is_cm_injected:
                self.cm_injected += 1
        kind = record.kind.value
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size

    def remove(self, record: LogRecord) -> None:
        size = record.size_bytes
        self.records -= 1
        self.bytes -= size
        if record.flags is not _NO_FLAGS:
            if record.is_iwof:
                self.iwof_records -= 1
                self.iwof_bytes -= size
            if record.is_cm_injected:
                self.cm_injected -= 1
        kind = record.kind.value
        self.by_kind[kind] = self.by_kind.get(kind, 0) - 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) - size

    def remove_all(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.remove(record)

    def snapshot(self) -> Dict[str, object]:
        return {
            "records": self.records,
            "bytes": self.bytes,
            "iwof_records": self.iwof_records,
            "iwof_bytes": self.iwof_bytes,
            "cm_injected": self.cm_injected,
            "by_kind": dict(self.by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
        }


class LogManager:
    def __init__(self, auto_force: bool = True):
        self._records: List[LogRecord] = []
        # LSN of the first retained record; physical truncation advances
        # this (LSN addressing is stable across truncation).
        self._first_lsn: LSN = 1
        self._flushed_lsn: LSN = NULL_LSN
        # When True every append is immediately forced, modelling a system
        # that forces the log aggressively; tests set False to exercise the
        # WAL rule and crash-durability boundary.
        self.auto_force = auto_force
        self._append_listeners: List[Callable[[LogRecord], None]] = []
        # Optional FaultPlane (see repro.sim.faults) consulted before the
        # mutating part of append/force, so a failed call can be retried.
        self.faults = None
        # Optional LogDevice (repro.storage.api): the durability surface
        # behind the buffer.  Appends are handed to it record by record;
        # ``force`` calls its ``sync()`` so the pending suffix becomes
        # durable with a real fsync.  None = buffer-only (memory backend).
        self.device = None
        # Tracer (repro.obs): explicit forces emit log_force events.
        self.tracer = NULL_TRACER
        # Records dropped when a damaged tail was truncated (repair_tail
        # here, or load_log(repair_tail=True) for shipped log files).
        self.tail_repair_dropped = 0
        # Every record at or below this LSN verified at the last
        # repair_tail and has not changed since.
        self._verified_lsn: LSN = NULL_LSN
        # Incremental statistics; see LogStats.
        self.stats = LogStats()
        # The writer index: page -> the retained records whose writeset
        # holds it, ascending LSN (see writers()).
        #
        # Threading contract.  Appends may run while another thread
        # reads the index (the one backup thread beside the service),
        # so readers take ``_index_lock``, as does every eviction.  An
        # append only ever extends a list at its tail, which leaves
        # every position a reader bisected to intact, so it runs
        # unlocked.  Truncation, tail cuts, crash discards and loading
        # are, as for every other structure here, not concurrent with
        # appends.
        self._page_writers: Dict[PageId, List[LogRecord]] = {}
        self._index_lock = threading.Lock()

    # ---------------------------------------------------- admission/eviction

    def _admit(self, record: LogRecord) -> None:
        """A record enters the retained log: count it, index its writes.

        Records arrive in LSN order here, so each list grows at its tail.
        """
        self.stats.add(record)
        index = self._page_writers
        for page in record.op.writeset:
            writers = index.get(page)
            if writers is None:
                index[page] = [record]
            else:
                writers.append(record)

    def _evict(self, records: Sequence[LogRecord]) -> None:
        """Records leave the retained log: uncount and unindex them.

        Evicted records are always the oldest retained ones (prefix
        truncation) or the newest (tail cut, crash discard), so each
        page loses a prefix or a suffix of its writer list — a prefix
        exactly when its oldest writer is at or above the oldest
        evicted LSN.
        """
        if not records:
            return
        self.stats.remove_all(records)
        counts: Dict[PageId, int] = {}
        for record in records:
            for page in record.op.writeset:
                counts[page] = counts.get(page, 0) + 1
        oldest = min(map(_lsn_of, records))
        index = self._page_writers
        with self._index_lock:
            for page, n in counts.items():
                writers = index[page]
                if n == len(writers):
                    del index[page]
                elif writers[0].lsn >= oldest:
                    del writers[:n]
                else:
                    del writers[len(writers) - n:]

    def writers(
        self, page: PageId, from_lsn: LSN = 1, to_lsn: Optional[LSN] = None
    ) -> List[LogRecord]:
        """Retained records whose writeset holds ``page``, in LSN order.

        Restricted to ``from_lsn <= lsn <= to_lsn``; two bisections of
        the page's writer list, no scan.  Raises like :meth:`scan` when
        the range starts before the retained prefix.  Safe to call from
        any thread while appends run (see the contract in ``__init__``).
        """
        start, end = self.retained_range(from_lsn, to_lsn)
        with self._index_lock:
            writers = self._page_writers.get(page)
            if not writers:
                return []
            return writers[
                bisect_lsn(writers, start):bisect_lsn(writers, end + 1)
            ]

    # --------------------------------------------------------------- appends

    def append(
        self,
        op: Operation,
        flags: RecordFlag = RecordFlag.NONE,
        source: str = "",
    ) -> LogRecord:
        if self.faults is not None:
            from repro.sim.faults import IOPoint

            self.faults.check(IOPoint.LOG_APPEND, corrupt=self._bitrot)
        lsn = self._first_lsn + len(self._records)
        record = LogRecord(lsn, op, flags, source)
        self._records.append(record)
        self._admit(record)
        device = self.device
        if device is not None:
            device.append(record)
        if self.auto_force:
            self._flushed_lsn = lsn
            if device is not None:
                device.sync()
        if self._append_listeners:
            for listener in self._append_listeners:
                listener(record)
        return record

    def on_append(self, listener: Callable[[LogRecord], None]) -> None:
        """Register a callback invoked after every append (metrics hooks)."""
        self._append_listeners.append(listener)

    def attach_faults(self, plane):
        """Attach a fault plane at the log protocol boundary."""
        self.faults = plane
        return plane

    def attach_device(self, device):
        """Attach a :class:`~repro.storage.api.LogDevice` behind the buffer."""
        self.device = device
        return device

    def force(self) -> None:
        """Force the whole log to stable storage.

        Each call that advances the stable prefix is its own durability
        event: one device sync, which writes every pending record.
        """
        end = self.end_lsn
        if end > self._flushed_lsn:
            if self.faults is not None:
                from repro.sim.faults import IOPoint

                self.faults.check(IOPoint.LOG_FORCE, corrupt=self._bitrot)
            if self.device is not None:
                self.device.sync()
            if self.tracer.enabled:
                self.tracer.emit(
                    LOG_FORCE, lsn=end, from_lsn=self._flushed_lsn
                )
            self._flushed_lsn = end

    # ------------------------------------------------------------- integrity

    @staticmethod
    def _checksum(record: LogRecord) -> int:
        # Late import: repro.wal.serialize imports this module at top
        # level, so the checksum helper must be resolved lazily.
        global _record_checksum
        if _record_checksum is None:
            from repro.wal.serialize import record_checksum

            _record_checksum = record_checksum
        return _record_checksum(record)

    def verify_record(self, record: LogRecord) -> bool:
        """Does a record still match its integrity envelope?

        Envelopes are **lazy**: an in-memory append does not compute a
        CRC (``record.crc`` stays ``None``) — the envelope is stamped
        when the record is serialized to a shipped log file
        (:func:`repro.wal.serialize.record_to_spec`), which is the only
        boundary where bit rot can creep in undetected.  Records without
        an envelope are therefore trusted; records carrying one (loaded
        from a file, or rotted in place by the fault plane, which stamps
        a bogus CRC) are checked against it.
        """
        return record.crc is None or record.crc == self._checksum(record)

    def damaged_records(self) -> List[LSN]:
        """LSNs of retained records failing their integrity check."""
        return [r.lsn for r in self._records if not self.verify_record(r)]

    def _emit_tail_repair(self, dropped: int) -> None:
        if dropped and self.tracer.enabled:
            self.tracer.emit(
                LOG_TAIL_REPAIR, dropped=dropped, cut_lsn=self.end_lsn + 1,
                end_lsn=self.end_lsn,
            )

    def _emit_tail_lost(self, dropped: int) -> None:
        if dropped and self.tracer.enabled:
            self.tracer.emit(
                LOG_TAIL_LOST, dropped=dropped, cut_lsn=self.end_lsn + 1,
                end_lsn=self.end_lsn,
            )

    def repair_tail(self) -> int:
        """Truncate the log at the first corrupt record (torn-tail repair).

        Crash recovery calls this before analysis: the first record
        whose integrity envelope no longer matches marks the end of the
        trustworthy log, and it plus everything after it is discarded.
        ``flushed_lsn`` is pulled back accordingly.  Returns the number
        of records dropped (also accumulated on
        ``tail_repair_dropped``), and emits a structured
        ``log_tail_repair`` trace event carrying the dropped count and
        cut LSN so faultsweep trace replays show where the tail was cut.

        Only records above the verified watermark are checked — those
        appended since the last repair, or rotted in place since
        (:meth:`_bitrot` pulls the watermark back) — after a C-speed
        screen: no envelope (``crc is None``) verifies trivially.
        :meth:`damaged_records` (the scrubber) still checks them all.
        """
        first = self._first_lsn
        suffix = self._records[max(self._verified_lsn + 1, first) - first:]
        damaged = []
        if list(map(_crc_of, suffix)).count(None) < len(suffix):
            damaged = [r.lsn for r in suffix if not self.verify_record(r)]
        if not damaged:
            self._verified_lsn = self.end_lsn
            return 0
        cut_lsn = damaged[0]
        removed = self._records[cut_lsn - first:]
        self._evict(removed)
        del self._records[cut_lsn - first:]
        dropped = len(removed)
        self._verified_lsn = cut_lsn - 1
        if self._flushed_lsn > self.end_lsn:
            self._flushed_lsn = self.end_lsn
        self.tail_repair_dropped += dropped
        self._emit_tail_repair(dropped)
        return dropped

    def _bitrot(self, rng) -> bool:
        """Silently rot one log record (fault-plane corruptor).

        Flips one bit of the *newest* record's stored envelope — tail
        rot, the damage torn-tail repair is built for — and pulls the
        verified watermark back below it: the record changed since it
        was last checked.  Returns ``False`` when the log is empty (the
        fault stays armed).
        """
        if not self._records:
            return False
        record = self.record_at(self.end_lsn)
        if record.crc is None:
            record.crc = 0
        record.crc ^= 1 << rng.randrange(32)
        self._verified_lsn = min(self._verified_lsn, record.lsn - 1)
        return True

    def discard_unflushed(self) -> int:
        """Crash simulation: drop the volatile log tail.

        Records beyond ``flushed_lsn`` never reached stable storage, so a
        crash loses them.  Returns the number of records lost; emits a
        structured ``log_tail_lost`` trace event with the dropped count
        and cut LSN.
        """
        lost = self.end_lsn - self._flushed_lsn
        if lost > 0:
            cut = self._flushed_lsn - self._first_lsn + 1
            self._evict(self._records[cut:])
            del self._records[cut:]
            # The lost LSNs are reused by the next appends, which must
            # not inherit the dropped records' verification.
            self._verified_lsn = min(self._verified_lsn, self.end_lsn)
            if self.device is not None:
                # The volatile device buffer is lost with the process.
                self.device.drop_pending()
            self._emit_tail_lost(lost)
        return max(lost, 0)

    # ---------------------------------------------------------------- status

    @property
    def end_lsn(self) -> LSN:
        """LSN of the last appended record (first_lsn - 1 when empty)."""
        return self._first_lsn - 1 + len(self._records)

    @property
    def next_lsn(self) -> LSN:
        return self.end_lsn + 1

    @property
    def first_retained_lsn(self) -> LSN:
        """Oldest LSN still on the log (after physical truncation)."""
        return self._first_lsn

    @property
    def flushed_lsn(self) -> LSN:
        return self._flushed_lsn

    def assert_wal(self, page_id: PageId, page_lsn: LSN) -> None:
        """Enforce the write-ahead rule for a page about to be flushed."""
        if page_lsn > self._flushed_lsn:
            raise WALViolationError(
                f"flushing {page_id!r} with page_lsn {page_lsn} but log is "
                f"only stable to {self._flushed_lsn}"
            )

    # ----------------------------------------------------------------- scans

    def record_at(self, lsn: LSN) -> LogRecord:
        if not self._first_lsn <= lsn <= self.end_lsn:
            raise LogTruncatedError(f"no record at LSN {lsn}")
        return self._records[lsn - self._first_lsn]

    def retained_range(
        self, from_lsn: LSN = 1, to_lsn: Optional[LSN] = None
    ) -> Tuple[LSN, LSN]:
        """``[from_lsn, to_lsn]`` clamped to ``[1, end_lsn]``.

        Raises :class:`LogTruncatedError` if the range starts before
        the physically retained prefix — recovery asking for a truncated
        record is a hard error, never silence.  O(1); every ranged read
        (:meth:`scan`, :meth:`writers`) checks here.
        """
        start = max(from_lsn, 1)
        end = self.end_lsn if to_lsn is None else min(to_lsn, self.end_lsn)
        if start < self._first_lsn and start <= end:
            raise LogTruncatedError(
                f"read from LSN {start} but log is truncated before "
                f"{self._first_lsn}"
            )
        return start, end

    def scan(
        self, from_lsn: LSN = 1, to_lsn: Optional[LSN] = None
    ) -> Iterator[LogRecord]:
        """Records with ``from_lsn <= lsn <= to_lsn`` in LSN order.

        Raises :class:`LogTruncatedError` if the requested range starts
        before the physically retained prefix (:meth:`retained_range`).
        """
        start, end = self.retained_range(from_lsn, to_lsn)
        for i in range(start - self._first_lsn, end - self._first_lsn + 1):
            yield self._records[i]

    def durable_scan(self, from_lsn: LSN = 1) -> Iterator[LogRecord]:
        """Only the records that survived a crash (forced prefix)."""
        return self.scan(from_lsn, self._flushed_lsn)

    def truncate_prefix(self, up_to_lsn: LSN) -> int:
        """Physically discard records with LSN < ``up_to_lsn``.

        The caller is responsible for choosing a safe point: crash
        recovery needs the tracker's truncation point, media recovery
        needs every retained backup's scan start (see
        :class:`repro.core.retention.LogRetention`).  Returns the number
        of records discarded.
        """
        if up_to_lsn <= self._first_lsn:
            return 0
        cut = min(up_to_lsn, self.end_lsn + 1)
        discarded = cut - self._first_lsn
        self._evict(self._records[:discarded])
        del self._records[:discarded]
        self._first_lsn = cut
        if self._flushed_lsn < self._first_lsn - 1:
            self._flushed_lsn = self._first_lsn - 1
        return discarded

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------ statistics

    def count(
        self,
        from_lsn: LSN = 1,
        to_lsn: Optional[LSN] = None,
        predicate: Optional[Callable[[LogRecord], bool]] = None,
    ) -> int:
        if (
            predicate is None
            and from_lsn <= self._first_lsn
            and (to_lsn is None or to_lsn >= self.end_lsn)
        ):
            return self.stats.records  # O(1): whole retained log
        return sum(
            1
            for r in self.scan(from_lsn, to_lsn)
            if predicate is None or predicate(r)
        )

    def bytes_logged(
        self,
        from_lsn: LSN = 1,
        to_lsn: Optional[LSN] = None,
        predicate: Optional[Callable[[LogRecord], bool]] = None,
    ) -> int:
        if (
            predicate is None
            and from_lsn <= self._first_lsn
            and (to_lsn is None or to_lsn >= self.end_lsn)
        ):
            return self.stats.bytes  # O(1): whole retained log
        return sum(
            r.size_bytes
            for r in self.scan(from_lsn, to_lsn)
            if predicate is None or predicate(r)
        )

    def iwof_count(self, from_lsn: LSN = 1) -> int:
        if from_lsn <= self._first_lsn:
            return self.stats.iwof_records
        return self.count(from_lsn, predicate=lambda r: r.is_iwof)

    def iwof_bytes(self, from_lsn: LSN = 1) -> int:
        if from_lsn <= self._first_lsn:
            return self.stats.iwof_bytes
        return self.bytes_logged(from_lsn, predicate=lambda r: r.is_iwof)
