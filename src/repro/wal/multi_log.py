"""Multi-stream WAL: N append-only log streams behind one manager.

The single-stream :class:`~repro.wal.log_manager.LogManager` serializes
every append through one LSN counter and makes every ``force()`` its own
durability event.  ``MultiLogManager`` removes both bottlenecks while
preserving the exact ``LogManager`` API:

* **N independent streams** (:class:`LogStream`, one per executor
  thread/shard).  An append takes only its stream's lock; appends to
  different streams never contend.  Each record carries its stream id
  and a dense per-stream sequence number, plus the global sequence the
  simulation uses as the LSN — a GIL-atomic fetch-and-add
  (``itertools.count``), the "cheap global epoch/sequence" of
  Taurus-style designs, not a lock-protected counter + shared list.
* **Object→stream pinning**: every record is routed by a stable hash of
  its *home object* (the smallest page of its writeset), so all records
  for a given object — in particular the paper's Iw/oF identity writes —
  land on **one** stream in order.  This is the reproduction-faithful
  constraint: the backup-order reasoning (D/P frontiers vs. log order)
  relies on per-object record order, which striping must not scramble.
  Control records with an empty writeset (checkpoints) go to stream 0.
* **Group commit**: concurrent ``force()`` callers coalesce behind one
  fsync-equivalent *tick*.  A leader captures a consistent cut of the
  log (all stream locks held briefly — no device wait under locks),
  pays one ``force_delay_s`` device sync for every stream in parallel,
  marks the streams durable, and wakes the followers.  Batch sizes and
  follower wait latencies are recorded in ``Metrics``
  (``force_batch_sizes``, ``log.force.wait`` phase histogram), and each
  tick emits a ``log_force`` trace event carrying its batch size.
* **Ordered merge scans**: :meth:`merge_scan` yields records across
  streams in recovered total order (a k-way heap merge; each stream is
  internally ordered).  All recovery paths consume the log through this
  surface.

Durability across streams is a *consistent cut*: ``flushed_lsn`` is the
largest L such that **every** record with LSN <= L is durable on its
stream.  A crash (:meth:`discard_unflushed`) first loses each stream's
unforced suffix, then trims each stream back to that globally consistent
frontier — per-stream suffixes only, never an interior record — so the
surviving log is gap-free and all single-stream recovery reasoning
carries over unchanged.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional

from repro.ids import LSN, PageId
from repro.obs.events import LOG_FORCE
from repro.ops.base import Operation
from repro.wal.log_manager import LogManager, bisect_lsn
from repro.wal.records import LogRecord, RecordFlag


def stream_for_page(page: PageId, num_streams: int) -> int:
    """Stable object→stream hash (same page, same stream, every run)."""
    return ((page.partition * 2654435761) ^ (page.slot * 40503)) % num_streams


class LogStream:
    """One physical append-only log stream.

    Records are appended in ascending global-LSN order (the manager
    draws the LSN under this stream's lock), so ``lsns`` is sorted and
    range queries are binary searches.  ``flushed_count`` is the durable
    prefix length of this stream.
    """

    __slots__ = ("stream_id", "records", "lsns", "flushed_count", "lock")

    def __init__(self, stream_id: int):
        self.stream_id = stream_id
        self.records: List[LogRecord] = []
        self.lsns: List[LSN] = []
        self.flushed_count = 0
        self.lock = threading.Lock()

    def append(self, record: LogRecord) -> None:
        """Append under the (held) stream lock; stamps stream addressing."""
        record.stream_id = self.stream_id
        record.stream_seq = len(self.records) + 1
        self.records.append(record)
        self.lsns.append(record.lsn)

    def flush_to(self, target_lsn: LSN) -> None:
        """Mark this stream durable through ``target_lsn``."""
        with self.lock:
            n = bisect_right(self.lsns, target_lsn)
            if n > self.flushed_count:
                self.flushed_count = n

    def first_unflushed_lsn(self) -> Optional[LSN]:
        if self.flushed_count < len(self.records):
            return self.lsns[self.flushed_count]
        return None

    def slice(self, from_lsn: LSN, to_lsn: LSN) -> Iterator[LogRecord]:
        """This stream's records with ``from_lsn <= lsn <= to_lsn``."""
        lo = bisect_left(self.lsns, from_lsn)
        hi = bisect_right(self.lsns, to_lsn)
        return iter(self.records[lo:hi])

    def drop_after(self, keep_lsn: LSN) -> List[LogRecord]:
        """Drop (and return) the suffix of records with lsn > keep_lsn."""
        cut = bisect_right(self.lsns, keep_lsn)
        dropped = self.records[cut:]
        if dropped:
            del self.records[cut:]
            del self.lsns[cut:]
            if self.flushed_count > len(self.records):
                self.flushed_count = len(self.records)
        return dropped

    def drop_before(self, cut_lsn: LSN) -> List[LogRecord]:
        """Drop (and return) the prefix of records with lsn < cut_lsn."""
        cut = bisect_left(self.lsns, cut_lsn)
        dropped = self.records[:cut]
        if dropped:
            del self.records[:cut]
            del self.lsns[:cut]
            self.flushed_count = max(0, self.flushed_count - cut)
        return dropped

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self):
        return (
            f"LogStream({self.stream_id}, records={len(self.records)}, "
            f"flushed={self.flushed_count})"
        )


class MultiLogManager(LogManager):
    """N log streams behind the single-stream ``LogManager`` API.

    Drop-in compatible: global LSNs stay dense and every inherited
    consumer (scans, truncation arithmetic, WAL assertions, statistics)
    sees the same contract as the single-stream manager.  The inherited
    ``_records`` list is kept as the *merged global index* — appended
    lock-free in arrival order and re-sorted lazily before ordered reads
    (appends are timsort-friendly: at most a few positions out of
    order).  Scans, statistics and recovery may only run quiesced (no
    concurrent appends), exactly like the rest of the simulation; the
    writer index (:meth:`writers`) is the exception, readable from any
    thread while appends run (the contract is in ``LogManager``).
    """

    def __init__(
        self,
        streams: int = 4,
        auto_force: bool = True,
        group_commit: bool = True,
        force_delay_s: float = 0.0,
    ):
        super().__init__(auto_force=auto_force)
        if streams < 1:
            raise ValueError("MultiLogManager needs at least one stream")
        self.streams = [LogStream(i) for i in range(streams)]
        self.num_streams = streams
        self.group_commit = group_commit
        self.force_delay_s = force_delay_s
        # Completed group-commit ticks; stamped into log_force events.
        self.epoch = 0
        # Optional Metrics sink for group-commit histograms.
        self.metrics = None
        self._lsn_seq = itertools.count(1)
        self._order_dirty = False
        # Per-caller force path: device serialization.
        self._sync_lock = threading.Lock()
        # Group-commit leader/follower state.
        self._gc_cond = threading.Condition()
        self._gc_leader = False
        self._gc_waiters = 0

    # ------------------------------------------------------------- routing

    def stream_of(self, op: Operation) -> int:
        """The stream an operation's record is pinned to.

        The home object is the smallest page of the writeset (for pure
        reads, of the readset), so every record of a given object —
        Iw/oF identity writes above all — lands on one stream.  Records
        touching no pages at all (checkpoints) go to stream 0.
        """
        ws = op.writeset
        home = min(ws) if ws else None
        if home is None:
            rs = op.readset
            home = min(rs) if rs else None
        if home is None:
            return 0
        return stream_for_page(home, self.num_streams)

    # ------------------------------------------------------------- appends

    def append(
        self,
        op: Operation,
        flags: RecordFlag = RecordFlag.NONE,
        source: str = "",
    ) -> LogRecord:
        if self.faults is not None:
            from repro.sim.faults import IOPoint

            self.faults.check(IOPoint.LOG_APPEND, corrupt=self._bitrot)
        stream = self.streams[self.stream_of(op)]
        device = self.device
        with stream.lock:
            lsn = next(self._lsn_seq)
            record = LogRecord(lsn, op, flags, source)
            stream.append(record)
            if device is not None:
                # Under the stream lock so the device file's record order
                # matches the stream's stream_seq order.
                device.append(stream.stream_id, record)
            if self.auto_force:
                stream.flushed_count = len(stream.records)
        # The global index: append-only in arrival order, lazily
        # re-sorted before ordered reads.  list.append is GIL-atomic.
        self._records.append(record)
        self._order_dirty = True
        self._admit(record)
        if self.auto_force:
            if device is not None:
                device.sync()
            self._advance_frontier()
        if self._append_listeners:
            for listener in self._append_listeners:
                listener(record)
        return record

    def _admit(self, record: LogRecord) -> None:
        """Admit under the index lock, inserting in LSN order: appends on
        different streams run concurrently and can reach here out of
        order, and the statistics are shared counters."""
        lsn = record.lsn
        with self._index_lock:
            self.stats.add(record)
            index = self._page_writers
            for page in record.op.writeset:
                writers = index.get(page)
                if writers is None:
                    index[page] = [record]
                elif writers[-1].lsn < lsn:
                    writers.append(record)
                else:
                    writers.insert(bisect_lsn(writers, lsn), record)

    def _ensure_order(self) -> None:
        if self._order_dirty:
            self._records.sort(key=lambda r: r.lsn)
            self._order_dirty = False

    # ----------------------------------------------------------- durability

    def _consistent_cut(self) -> LSN:
        """The highest LSN such that every drawn LSN <= it is appended.

        Takes every stream lock briefly (fixed order, no device wait):
        with all locks held no append is in flight, so the dense global
        sequence has no holes and ``end_lsn`` is a consistent cut.
        """
        for stream in self.streams:
            stream.lock.acquire()
        try:
            return self.end_lsn
        finally:
            for stream in reversed(self.streams):
                stream.lock.release()

    def _advance_frontier(self) -> LSN:
        """Recompute the globally consistent durable frontier.

        The frontier is the largest L with no unflushed record at or
        below it.  Concurrent appends can only add unflushed records
        with *higher* LSNs than any completed cut, so a stale read here
        under-reports — never over-reports — durability.
        """
        frontier = self.end_lsn
        for stream in self.streams:
            first = stream.first_unflushed_lsn()
            if first is not None and first - 1 < frontier:
                frontier = first - 1
        if frontier > self._flushed_lsn:
            self._flushed_lsn = frontier
        return self._flushed_lsn

    def _sync(self, target: LSN, batch: int) -> None:
        """One durability event: device sync, then mark streams durable.

        The delay is paid once for the whole tick — the N streams model
        N devices syncing in parallel.  Fault injection happens before
        any state changes so a failed sync can simply be retried.
        """
        if self.faults is not None:
            from repro.sim.faults import IOPoint

            self.faults.check(IOPoint.LOG_FORCE, corrupt=self._bitrot)
        if self.force_delay_s:
            time.sleep(self.force_delay_s)
        if self.device is not None:
            # One real device sync covers every stream's pending suffix,
            # the whole point of the group-commit tick.
            self.device.sync()
        previous = self._flushed_lsn
        for stream in self.streams:
            stream.flush_to(target)
        flushed = self._advance_frontier()
        self.epoch += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.group_commit_ticks += 1
            metrics.group_commit_coalesced += batch - 1
            metrics.force_batch_sizes[batch] = (
                metrics.force_batch_sizes.get(batch, 0) + 1
            )
        if self.tracer.enabled:
            self.tracer.emit(
                LOG_FORCE, lsn=flushed, from_lsn=previous, batch=batch,
                tick=self.epoch,
            )

    def force(self, up_to: Optional[LSN] = None) -> None:
        """Force the log durable up to ``up_to`` (default: everything).

        With ``group_commit`` concurrent callers coalesce: one becomes
        the tick leader and syncs a consistent cut covering every
        waiter; the rest block on a condition until a tick that covers
        their target completes.  ``force`` never returns before every
        LSN up to the caller's target is durable, and ``flushed_lsn``
        never covers an LSN whose tick has not completed.
        """
        cut = self._consistent_cut()
        end = cut if up_to is None else min(up_to, cut)
        if end <= self._flushed_lsn:
            return
        if not self.group_commit:
            # Per-caller mode: every force that saw undurable work at
            # entry performs its own device sync, serialized on the
            # device lock — the pre-group-commit baseline the append/
            # force benchmarks contrast against.
            with self._sync_lock:
                self._sync(end, batch=1)
            return
        cond = self._gc_cond
        wait_started: Optional[float] = None
        with cond:
            while True:
                if self._flushed_lsn >= end:
                    # A tick led by someone else covered us.
                    if wait_started is not None:
                        self._observe_wait(wait_started)
                    return
                if not self._gc_leader:
                    self._gc_leader = True
                    break
                if wait_started is None:
                    wait_started = time.perf_counter()
                self._gc_waiters += 1
                try:
                    cond.wait()
                finally:
                    self._gc_waiters -= 1
        # Tick leader: sync a fresh consistent cut (coalesces every
        # append and waiter that arrived since we decided to lead).
        try:
            if wait_started is not None:
                self._observe_wait(wait_started)
            target = self._consistent_cut()
            batch = 1 + self._gc_waiters
            self._sync(target, batch=batch)
        finally:
            with cond:
                self._gc_leader = False
                cond.notify_all()

    def _observe_wait(self, started: float) -> None:
        if self.metrics is not None:
            self.metrics.observe_phase(
                "log.force.wait", time.perf_counter() - started
            )

    # ------------------------------------------------------------ integrity

    # ``repair_tail`` and ``_bitrot`` are the base class's; the two hooks
    # below select and cut per stream.

    def _reseat_tail(self) -> None:
        """Resume LSNs right after the surviving log once a tail is cut.

        As on the single-stream log the next append reuses the first
        lost LSN, so global LSNs stay dense (``end_lsn``, ``record_at``
        and every scan assume it); the verified watermark must then not
        cover the reused LSNs.
        """
        self._lsn_seq = itertools.count(self.end_lsn + 1)
        self._verified_lsn = min(self._verified_lsn, self.end_lsn)

    def _unverified(self) -> List[LogRecord]:
        """Each stream's records above the verified watermark."""
        suffix: List[LogRecord] = []
        for s in self.streams:
            suffix += s.records[bisect_right(s.lsns, self._verified_lsn):]
        return suffix

    def _cut_tail(self, cut_lsn: LSN) -> int:
        """Cut every stream back to just before ``cut_lsn``.

        The first (lowest-LSN) checksum-failed record marks the end of
        the trustworthy log *globally*: it and everything after it — a
        suffix of each stream — is discarded.
        """
        removed: List[LogRecord] = []
        for stream in self.streams:
            removed += stream.drop_after(cut_lsn - 1)
        self._evict(removed)
        self._ensure_order()
        del self._records[cut_lsn - self._first_lsn:]
        self._reseat_tail()
        return len(removed)

    def discard_unflushed(self) -> int:
        """Crash: lose each stream's unforced suffix.

        Every stream is trimmed back to the globally consistent durable
        frontier (``flushed_lsn``).  Records forced on their own stream
        but not yet covered by a completed tick are sacrificed too —
        they were never *claimed* durable — keeping the surviving log a
        gap-free global prefix.  The cut is always a per-stream suffix.
        """
        frontier = self._flushed_lsn
        lost: List[LogRecord] = []
        per_stream: Dict[str, int] = {}
        for stream in self.streams:
            removed = stream.drop_after(frontier)
            if removed:
                per_stream[str(stream.stream_id)] = len(removed)
                lost += removed
        if lost:
            self._evict(lost)
            self._ensure_order()
            del self._records[frontier - self._first_lsn + 1:]
            self._reseat_tail()
            if self.device is not None:
                # The volatile device buffer is lost with the process.
                self.device.drop_pending()
            self._emit_tail_lost(len(lost), per_stream=per_stream)
        return len(lost)

    def truncate_prefix(self, up_to_lsn: LSN) -> int:
        """Discard the global prefix below ``up_to_lsn``, per stream.

        Each stream drops its own prefix of records below the global
        safe point; LSN addressing stays stable.
        """
        if up_to_lsn <= self._first_lsn:
            return 0
        self._ensure_order()
        cut = min(up_to_lsn, self.end_lsn + 1)
        discarded = cut - self._first_lsn
        self._evict(self._records[:discarded])
        del self._records[:discarded]
        self._first_lsn = cut
        for stream in self.streams:
            stream.drop_before(cut)
        if self._flushed_lsn < self._first_lsn - 1:
            self._flushed_lsn = self._first_lsn - 1
        return discarded

    # ---------------------------------------------------------------- scans

    def record_at(self, lsn: LSN) -> LogRecord:
        self._ensure_order()
        return super().record_at(lsn)

    def scan(
        self, from_lsn: LSN = 1, to_lsn: Optional[LSN] = None
    ) -> Iterator[LogRecord]:
        self._ensure_order()
        return super().scan(from_lsn, to_lsn)

    def merge_scan(
        self, from_lsn: LSN = 1, to_lsn: Optional[LSN] = None
    ) -> Iterator[LogRecord]:
        """K-way ordered merge across the physical streams.

        Yields exactly the records of :meth:`scan` in the recovered
        total order (ascending global LSN); each stream contributes an
        already-ordered run, merged through a heap.
        """
        start, end = self.retained_range(from_lsn, to_lsn)
        runs = [s.slice(start, end) for s in self.streams]
        return heapq.merge(*runs, key=lambda r: r.lsn)

    # ---------------------------------------------------------- inspection

    def stream_lengths(self) -> Dict[int, int]:
        return {s.stream_id: len(s) for s in self.streams}

    def __repr__(self):
        return (
            f"MultiLogManager(streams={self.num_streams}, "
            f"end={self.end_lsn}, flushed={self._flushed_lsn})"
        )
