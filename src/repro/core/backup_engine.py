"""The on-line backup engine (section 3): the paper's contribution.

A :class:`BackupRun` sweeps the stable database in backup order, in N
coarse steps per partition.  The cache manager is bypassed for the copy
itself — pages are read straight from S — and the only synchronization is
the per-partition backup latch taken exclusively when D/P move (the
"loosely coupled" design of section 1.4).

Incremental backups (section 6.1) pass an ``update_set``: only those
pages are copied, the progress frontier still sweeping the full position
space so the flush policies stay meaningful.  A page outside the set that
is flushed while still "pending" would silently miss the backup, so the
run either (a) treats it as Done — forcing Iw/oF (conservative), or
(b) with ``dynamic_extend`` adds it to the copy set on the spot, since
the frontier has yet to reach it.  The copy set is held as one sorted
slot list per partition, and an incremental ``copy_some`` is planned
from those lists in closed form: it costs the copied pages and the step
boundaries crossed, never the positions the frontier skips.  No sweep
path builds a ``PageId``; every id comes from the layout.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cache.cache_manager import CacheManager
from repro.errors import BackupError, BackupInProgressError, TornWriteError
from repro.ids import PageId
from repro.obs import events as ev
from repro.sim.faults import with_retries
from repro.storage.backup_db import BackupDatabase


class BackupRun:
    """State of one in-progress backup sweep.

    A full run copies every page.  An incremental run (``update_set``
    given) copies only its copy set, held once as per-partition sorted
    slot lists (``_copy_slots``); pages of ``update_set`` outside the
    layout are ignored, since the frontier never reaches them.  Either
    way the frontier crosses every position in ``steps`` coarse steps.
    """

    def __init__(
        self,
        cm: "CacheManager",
        backup: BackupDatabase,
        steps: int,
        update_set: Optional[Iterable[PageId]] = None,
        dynamic_extend: bool = True,
        batched: bool = True,
    ):
        self.cm = cm
        self.backup = backup
        self.steps = steps
        self.layout = cm.layout
        self.dynamic_extend = dynamic_extend
        # Batched sweeps copy contiguous runs of pages per partition with
        # one bulk read per run; the serial path copies page-at-a-time in
        # strict round-robin order.  Both produce the same backup content
        # (only the copy *order* differs within a single copy_some call).
        self.batched = batched
        # None means full backup: copy everything.  Otherwise, per
        # partition, the sorted slots of the pages to copy.
        self._copy_slots: Optional[List[List[int]]] = None
        if update_set is not None:
            members = [set() for _ in range(self.layout.num_partitions)]
            for page_id in update_set:
                if self.layout.contains(page_id):
                    members[page_id[0]].add(page_id[1])
            self._copy_slots = [sorted(slots) for slots in members]
        # Serializes dynamic extensions of the copy set between flushing
        # threads (each holds only its partition's shared latch).
        self._extend_lock = threading.Lock()
        self.skipped_pages = 0
        self._boundaries: Dict[int, List[int]] = {}
        self._step_index: Dict[int, int] = {}
        self._cursor: Dict[int, int] = {}
        # Pages (copied or skipped) the frontier has yet to pass, summed
        # over all partitions — makes ``finished_copying`` O(1) instead of
        # a per-call scan over every partition cursor.
        self._remaining_total = self.layout.total_pages()
        self._sealed = False
        if cm.tracer.enabled:
            cm.tracer.emit(
                ev.BACKUP_BEGIN,
                backup_id=backup.backup_id,
                steps=steps,
                batched=batched,
                incremental=self._copy_slots is not None,
                scan_start=backup.media_scan_start_lsn,
            )
        for partition in range(self.layout.num_partitions):
            boundaries = self.layout.step_boundaries(partition, steps)
            self._boundaries[partition] = boundaries
            self._step_index[partition] = 0
            self._cursor[partition] = 0
            with cm.progress_transaction(partition) as progress:
                progress.begin(boundaries[0])
        if self._copy_slots is not None:
            self.cm.copy_set_filter = self.will_copy

    # ------------------------------------------------------------- filtering

    def will_copy(self, page_id: PageId) -> bool:
        """Will this page's location be captured by the sweep?

        Called by the cache manager under the partition's shared latch,
        so the progress values are stable while we consult them.
        Membership is a bisection of the partition's sorted slot list.
        With ``dynamic_extend``, a page the frontier has not reached yet
        (position at or past P) joins the copy set, inserted in order;
        the plan copies it when the frontier gets there.
        """
        if self._copy_slots is None:
            return True
        partition, slot = page_id
        if self._holds(partition, slot):
            return True
        if not self.dynamic_extend:
            return False
        progress = self.cm.progress[partition]
        if progress.active and slot >= progress.pending:
            # Frontier has not reached it: extend the copy set.
            with self._extend_lock:
                slots = self._copy_slots[partition]
                index = bisect_left(slots, slot)
                if index == len(slots) or slots[index] != slot:
                    slots.insert(index, slot)
            return True
        return False

    def _holds(self, partition: int, slot: int) -> bool:
        """Is ``(partition, slot)`` in the copy set?"""
        slots = self._copy_slots[partition]
        index = bisect_left(slots, slot)
        return index < len(slots) and slots[index] == slot

    # --------------------------------------------------------------- copying

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    @property
    def finished_copying(self) -> bool:
        return self._remaining_total <= 0

    def copy_some(self, pages: int = 1, batched: Optional[bool] = None) -> int:
        """Copy up to ``pages`` pages of the sweep.

        Returns the number of pages actually copied (skipped pages — those
        outside an incremental copy set — do not count but do advance the
        frontier).

        The batched path (the run's default, overridable per call) copies
        the same page set a serial round-robin sweep would, but as
        contiguous per-partition runs with one bulk read and one step
        check per run; step boundaries still move D/P under the exclusive
        latch at exactly the same frontier positions.  Use
        ``batched=False`` for strict page-at-a-time round-robin order
        (e.g. when exploring interleavings).
        """
        if self._sealed:
            raise BackupError("backup already sealed")
        use_batched = self.batched if batched is None else batched
        with self.cm.tracer.span(
            "backup.sweep", pages=pages, batched=use_batched
        ):
            if use_batched:
                return self._copy_batched(pages)
            return self._copy_serial(pages)

    # -------------------------------------------------------- serial copying

    def _copy_serial(self, pages: int) -> int:
        """Page-at-a-time round-robin sweep (the paper's Figure 3 loop)."""
        copied = 0
        while copied < pages and self._remaining_total > 0:
            advanced = False
            for partition in range(self.layout.num_partitions):
                if copied >= pages:
                    break
                outcome = self._copy_next(partition)
                if outcome is not None:
                    advanced = True
                    copied += outcome
            if not advanced:
                break
        return copied

    def _copy_next(self, partition: int) -> Optional[bool]:
        """Copy (or skip) the next page of ``partition``; advance steps.

        Returns whether the page was copied, or None once the partition
        is exhausted.
        """
        pages = self.layout.pages_in_partition(partition)
        cursor = self._cursor[partition]
        if cursor >= len(pages):
            return None
        progress = self.cm.progress[partition]
        if cursor >= progress.pending:
            # Current step's doubt region exhausted: advance under latch.
            self._advance_step(partition)
        copy = self._copy_slots is None or self._holds(partition, cursor)
        if copy:
            page_id = pages[cursor]
            metrics = self.cm.metrics
            version = with_retries(
                lambda: self.cm.stable.read_page(page_id), metrics=metrics
            )
            with_retries(
                lambda: self.backup.record_page(page_id, version),
                metrics=metrics,
            )
            metrics.backup_pages_copied += 1
        else:
            self.skipped_pages += 1
        self._cursor[partition] = cursor + 1
        self._remaining_total -= 1
        return copy

    # ------------------------------------------------------- batched copying

    def _copy_batched(self, pages: int) -> int:
        """Copy the same page set as ``_copy_serial`` via bulk runs.

        Planning first reproduces the serial round-robin schedule with
        pure integer arithmetic (advancing cursors and step boundaries at
        identical frontier positions), accumulating contiguous
        per-partition spans; the pages are then copied with one bulk
        stable read and one bulk backup record per span.  No cache
        manager activity can interleave inside a single call, so the
        resulting backup content is identical to the serial path's.
        Each span is read just before it is recorded.
        """
        spans: List[tuple] = []
        if self._copy_slots is None:
            copied = self._plan_full(pages, spans)
        else:
            copied = self._plan_incremental(pages, spans)
        metrics = self.cm.metrics
        for span in spans:
            self._record_span(span, self._bulk_read(span, metrics))
        return copied

    def _bulk_read(self, span, metrics):
        partition, start, stop = span
        page_ids = self.layout.pages_in_partition(partition)[start:stop]
        stable = self.cm.stable
        return with_retries(
            lambda: stable.read_pages(page_ids), metrics=metrics
        )

    def _record_span(self, span, entries) -> None:
        """Record one bulk span into B, surviving torn span writes.

        A torn write lands only a prefix (the device reports how much);
        the remainder is re-issued from the already-read versions — the
        backup process still holds its copy buffer, so no re-read of S is
        needed and the span's content is unchanged.  After a resumed
        span the whole span is verified against its integrity envelopes:
        a tear is exactly when a device may have written garbage, so the
        claim "torn spans are detected by checksums" is made true here
        rather than assumed.  Then counts the span's pages and its bulk
        read.
        """
        metrics = self.cm.metrics
        entries = list(entries)
        start = 0
        torn = False
        while start < len(entries):
            try:
                with_retries(
                    lambda: self.backup.record_pages(entries[start:]),
                    metrics=metrics,
                )
                break
            except TornWriteError as tear:
                start += tear.landed
                metrics.torn_spans_resumed += 1
                torn = True
        if torn:
            self.backup.verify_pages(pid for pid, _ver in entries)
        metrics.backup_pages_copied += span[2] - span[1]
        metrics.backup_bulk_reads += 1

    def _plan_full(self, budget: int, spans: List[tuple]) -> int:
        """Plan a full-backup batch: round-robin budget split, O(steps).

        A serial sweep deals the budget one page per active partition per
        round, partitions dropping out as they exhaust; the final partial
        round favours lower-numbered partitions.  That allocation is
        computed here in closed form per phase, never per page.
        """
        capacity: Dict[int, int] = {}
        for partition in range(self.layout.num_partitions):
            cap = self.layout.partition_size(partition) - self._cursor[partition]
            if cap > 0:
                capacity[partition] = cap
        active = sorted(capacity)
        allocation: Dict[int, int] = {}
        remaining = budget
        while remaining > 0 and active:
            rounds = min(
                remaining // len(active),
                min(capacity[p] for p in active),
            )
            if rounds:
                for p in active:
                    allocation[p] = allocation.get(p, 0) + rounds
                    capacity[p] -= rounds
                remaining -= rounds * len(active)
                active = [p for p in active if capacity[p] > 0]
                continue
            # Partial final round: one page each, lowest partitions first.
            for p in active[:remaining]:
                allocation[p] = allocation.get(p, 0) + 1
            remaining = 0
        copied = 0
        for partition in sorted(allocation):
            count = allocation[partition]
            copied += count
            self._remaining_total -= count
            self._append_runs(partition, count, spans)
        return copied

    def _append_runs(
        self, partition: int, count: int, spans: List[tuple]
    ) -> None:
        """Split ``count`` pages from the partition's cursor into spans,
        advancing D/P under the exclusive latch exactly where the serial
        sweep would (whenever the frontier meets the pending boundary)."""
        pos = self._cursor[partition]
        progress = self.cm.progress[partition]
        left = count
        while left > 0:
            if pos >= progress.pending:
                self._advance_step(partition)
            run = min(left, progress.pending - pos)
            spans.append((partition, pos, pos + run))
            pos += run
            left -= run
        self._cursor[partition] = pos

    def _plan_incremental(self, budget: int, spans: List[tuple]) -> int:
        """Plan an incremental batch from the copy set, in closed form.

        The serial sweep visits position ``cursor + r`` of every
        partition in round ``r``, partitions in index order, and stops
        right after its ``budget``-th copy.  So the copy events of this
        call are the copy slots at or past each cursor, ordered by
        ``(slot - cursor, partition)``; the ``budget``-th one fixes where
        every cursor stops (with fewer, the sweep runs to the end).
        Cursors, skips and the remaining count follow by arithmetic, and
        D/P advance under the exclusive latch at the same frontier
        positions as in the serial sweep.

        The spans are the contiguous copied runs, emitted in the order
        the serial sweep would coalesce them: runs closed by a later copy
        in their partition, by ``(next copy - cursor, partition)``, then
        the runs still open at the stop, by their partition's first copy.
        Cost: the copy slots consulted plus the step boundaries crossed.
        """
        if budget <= 0:
            return 0
        num_partitions = self.layout.num_partitions
        cursors = self._cursor
        copy_slots = self._copy_slots
        # An event key ``(slot - cursor) * num_partitions + partition``
        # orders copy events as the serial round-robin meets them.  At
        # most ``budget`` events per partition can fall in this call.
        events: List[int] = []
        for partition in range(num_partitions):
            cursor = cursors[partition]
            slots = copy_slots[partition]
            lo = bisect_left(slots, cursor)
            events.extend(
                (slot - cursor) * num_partitions + partition
                for slot in slots[lo:lo + budget]
            )
        stop: Optional[int] = None
        if len(events) >= budget:
            events.sort()
            stop = events[budget - 1]
        closed: List[tuple] = []
        still_open: List[tuple] = []
        copied = 0
        for partition in range(num_partitions):
            cursor = cursors[partition]
            size = self.layout.partition_size(partition)
            if stop is None:
                end = size
            else:
                rounds = stop // num_partitions
                if partition <= stop % num_partitions:
                    rounds += 1
                end = min(size, cursor + rounds)
            if end <= cursor:
                continue
            progress = self.cm.progress[partition]
            while progress.pending < end:
                self._advance_step(partition)
            # Read the copied slots only now, with P past ``end``: a
            # concurrent flush could extend the set below P until then.
            slots = copy_slots[partition]
            taken = slots[bisect_left(slots, cursor):bisect_left(slots, end)]
            cursors[partition] = end
            self._remaining_total -= end - cursor
            self.skipped_pages += end - cursor - len(taken)
            if not taken:
                continue
            copied += len(taken)
            run_start = previous = taken[0]
            for slot in taken:
                if slot > previous + 1:
                    closed.append((
                        (slot - cursor) * num_partitions + partition,
                        (partition, run_start, previous + 1),
                    ))
                    run_start = slot
                previous = slot
            still_open.append((
                (taken[0] - cursor) * num_partitions + partition,
                (partition, run_start, previous + 1),
            ))
        closed.sort()
        still_open.sort()
        spans.extend(span for _key, span in closed)
        spans.extend(span for _key, span in still_open)
        return copied

    def _advance_step(self, partition: int) -> None:
        index = self._step_index[partition] + 1
        boundaries = self._boundaries[partition]
        if index >= len(boundaries):
            raise BackupError(
                f"partition {partition}: no further step boundaries"
            )
        with self.cm.progress_transaction(partition) as progress:
            progress.advance(boundaries[index])
            if self.cm.tracer.enabled:
                self.cm.tracer.emit(
                    ev.BACKUP_STEP_ADVANCE,
                    partition=partition,
                    step=progress.steps_taken,
                    done=progress.done,
                    pending=progress.pending,
                )
        self._step_index[partition] = index

    def seal(self) -> BackupDatabase:
        """Complete the backup: final D/P reset under the latches."""
        if self._sealed:
            raise BackupError("backup already sealed")
        if not self.finished_copying:
            raise BackupError("seal() before all pages were copied")
        self.backup.complete(self.cm.log.end_lsn)
        for partition in range(self.layout.num_partitions):
            with self.cm.progress_transaction(partition) as progress:
                progress.finish()
        if self.cm.copy_set_filter is self.will_copy:
            self.cm.copy_set_filter = None
        self._sealed = True
        self.cm.metrics.backups_completed += 1
        if self.cm.tracer.enabled:
            self.cm.tracer.emit(
                ev.BACKUP_COMPLETE,
                backup_id=self.backup.backup_id,
                completion_lsn=self.backup.completion_lsn,
                pages=self.cm.metrics.backup_pages_copied,
            )
        return self.backup

    def abort(self) -> None:
        self.backup.abort()
        for partition in range(self.layout.num_partitions):
            progress = self.cm.progress[partition]
            if progress.active:
                progress.abort()
        if self.cm.copy_set_filter is self.will_copy:
            self.cm.copy_set_filter = None
        self._sealed = True
        self.cm.metrics.backups_aborted += 1
        if self.cm.tracer.enabled:
            self.cm.tracer.emit(
                ev.BACKUP_ABORT, backup_id=self.backup.backup_id
            )


class BackupEngine:
    """Creates and tracks backup runs against one cache manager.

    ``storage`` (a :class:`~repro.storage.api.StorageBackend`) is the
    factory every backup image is created through — the file backend
    lands each image on its own append-only file.  Without one, plain
    in-memory :class:`BackupDatabase` images are constructed directly.
    """

    def __init__(self, cm: "CacheManager", storage=None):
        self.cm = cm
        self.storage = storage
        self.completed: List[BackupDatabase] = []
        self.active: Optional[BackupRun] = None
        self._next_id = 1
        # Optional FaultPlane propagated to every backup image created.
        self.faults = None

    def attach_faults(self, plane):
        """Attach a fault plane, propagated to every image created."""
        self.faults = plane
        return plane

    def _create_backup(self, scan_start, base_backup_id):
        if self.storage is not None:
            backup = self.storage.create_backup(
                self._next_id, scan_start, base_backup_id=base_backup_id
            )
        else:
            backup = BackupDatabase(
                self._next_id, scan_start, base_backup_id=base_backup_id
            )
        backup.attach_faults(self.faults)
        self._next_id += 1
        return backup

    def allocate_backup(self, scan_start, base_backup_id=None):
        """Create an engine-numbered backup image outside a sweep.

        The archive compactor's entry point: a merged generation is not
        produced by a D/P sweep, but it must still come from the same id
        space, the same storage backend, and the same fault plane as
        swept images (so BACKUP_RECORD faults fire during compaction
        writes too).  The caller records pages and seals it explicitly.
        """
        return self._create_backup(scan_start, base_backup_id)

    def start_backup(
        self,
        steps: int = 8,
        update_set: Optional[Set[PageId]] = None,
        base_backup: Optional[BackupDatabase] = None,
        dynamic_extend: bool = True,
        batched: bool = True,
    ) -> BackupRun:
        if self.active is not None and not self.active.is_sealed:
            raise BackupInProgressError("a backup is already in progress")
        scan_start = self.cm.rec.truncation_point(self.cm.log.end_lsn)
        # The scan start may not exceed end_lsn + 1; for media recovery we
        # additionally never scan later than the backup's own start point.
        scan_start = min(scan_start, self.cm.log.end_lsn + 1)
        backup = self._create_backup(
            scan_start,
            base_backup.backup_id if base_backup is not None else None,
        )
        run = BackupRun(
            self.cm,
            backup,
            steps,
            update_set=update_set,
            dynamic_extend=dynamic_extend,
            batched=batched,
        )
        self.active = run
        return run

    def copy_some(self, pages: int = 1) -> int:
        if self.active is None or self.active.is_sealed:
            raise BackupError("no backup in progress")
        copied = self.active.copy_some(pages)
        if self.active.finished_copying:
            self.completed.append(self.active.seal())
            self.active = None
        return copied

    def run_to_completion(self, pages_per_tick: int = 8, tick=None) -> BackupDatabase:
        """Drive the active backup to completion, optionally invoking
        ``tick()`` between copy batches (for interleaved workloads)."""
        if self.active is None:
            raise BackupError("no backup in progress")
        while self.active is not None:
            self.copy_some(pages_per_tick)
            if tick is not None and self.active is not None:
                tick()
        return self.completed[-1]

    def abort_active(self) -> None:
        if self.active is not None and not self.active.is_sealed:
            self.active.abort()
        self.active = None

    def latest_backup(self) -> Optional[BackupDatabase]:
        return self.completed[-1] if self.completed else None
