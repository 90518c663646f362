"""Instant (incremental) media restore: serve traffic *during* recovery.

The offline path (:func:`repro.recovery.media_recovery.run_media_recovery`)
is stop-the-world: the database is unavailable from media failure until
the full image is restored and the whole media log replayed.  Sauer &
Härder's instant-restore observation is that nothing forces that: restore
state is page-granular, so an access to a not-yet-restored page can
trigger *single-page* restore (copy the page from the chosen backup
generation, then replay just the media-log slice that touches it), and
a background finish restores whatever traffic did not touch.  Here that
finish is the bulk drain.  Time-to-first-query drops from O(database)
to O(one page's restore + redo).

The pieces:

* **Restored bitmap** — one per-partition set of restored slots, keyed by
  the backup's partition structure; per-partition D/P-style frontiers
  (``pages_done``) report progress.  A page is restored exactly once, no
  matter which path gets there first.
* **Demand-driven redo evaluator** (on-demand restores only) — the
  media-log slice ``[scan_start, target]`` is read from the log's
  writer index by LSN (:meth:`~repro.wal.log_manager.LogManager.writers`,
  bounded by ``target``), so :meth:`RestoreManager.begin` reads nothing
  from the log.  Each record's *effect* (which stale pages it rewrote,
  with what versions) is memoized by LSN on first demand; a page's
  final version walks its writer list backwards through memoized
  effects.  Logical multi-page operations make effects
  interdependent (a record's staleness and reads depend on earlier
  writers of its write- and read-set), so effects are resolved with an
  explicit iterative work stack — no recursion, dependencies are
  strictly earlier LSNs.  Each effect is one call of the shared
  redo kernel (:func:`~repro.recovery.redo.apply_record`) — the
  evaluator is its third *scheduler*, demand-driven where
  :class:`~repro.recovery.redo.RedoReplayer` is LSN-ordered — handed the
  page versions the record would observe at its turn, so by induction
  over the slice every page it restores carries exactly the version the
  offline replay gives it.
* **Lazy path** — ``CacheManager.restore_hook`` (installed by
  :meth:`repro.db.Database.begin_instant_restore`) calls
  :meth:`RestoreManager.ensure_restored` for every cache-missed read and
  every written page before an operation applies, so traffic only ever
  observes fully recovered values.
* **Bulk drain** — :meth:`RestoreManager.drain` finishes in bulk what
  traffic left: the offline media recovery's one LSN-order
  replay of the slice over the chosen generation (so the outcome is the
  offline one by construction), then per unfinished partition the
  replay-written pages through the install rules and every other
  unrestored page laid from the backup in one store call.

Generation selection and quarantine reuse the offline gate
(:func:`~repro.recovery.media_recovery.select_generation`): bitrot in
the newest backup falls back to an older intact generation, and when no
intact generation exists the damaged pages are seeded POISON and
quarantined exactly as the offline degrade path would.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.ids import LSN, NULL_LSN, PageId
from repro.obs.events import RESTORE_PROGRESS
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome
from repro.recovery.media_recovery import (
    resolve_media_target,
    select_generation,
)
from repro.recovery.pipeline import (
    conclude_recovery,
    install_recovered_page,
    poison_seeds,
)
from repro.recovery.redo import RedoReplayer, apply_record
from repro.storage.backup_db import BackupDatabase
from repro.storage.page import PageVersion
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager, bisect_lsn
from repro.wal.records import LogRecord

__all__ = ["RestoreManager", "RestoredBitmap"]

#: Sentinel distinguishing "effect not yet computed" from "record skipped"
#: (whose memoized effect is ``None``).
_UNSET = object()


class RestoredBitmap:
    """Page-granular restore progress, keyed by the partition structure.

    One set of restored slots per partition plus a per-partition done
    counter — the restore-side analogue of the backup's D/P frontiers.
    Not internally locked; the owning :class:`RestoreManager` serializes
    access under its lock.
    """

    def __init__(self, layout):
        self.layout = layout
        self._slots: List[Set[int]] = [
            set() for _ in range(layout.num_partitions)
        ]

    def is_restored(self, pid: PageId) -> bool:
        return pid.slot in self._slots[pid.partition]

    def mark(self, pid: PageId) -> bool:
        """Mark one page restored; False if it already was."""
        slots = self._slots[pid.partition]
        if pid.slot in slots:
            return False
        slots.add(pid.slot)
        return True

    def unrestored(self, partition: int) -> List[PageId]:
        """The pages of ``partition`` not restored yet, in slot order."""
        done = self._slots[partition]
        return [
            pid for pid in self.layout.pages_in_partition(partition)
            if pid.slot not in done
        ]

    def mark_partition(self, partition: int) -> None:
        """Mark every page of ``partition`` restored."""
        self._slots[partition] = set(
            range(self.layout.partition_size(partition))
        )

    def pages_done(self, partition: int) -> int:
        return len(self._slots[partition])

    def partition_complete(self, partition: int) -> bool:
        return (
            len(self._slots[partition])
            >= self.layout.partition_size(partition)
        )

    @property
    def total_done(self) -> int:
        return sum(len(s) for s in self._slots)

    @property
    def complete(self) -> bool:
        return self.total_done >= self.layout.total_pages()


class _SliceEvaluator:
    """Demand-driven, memoized redo over one media-log slice.

    The third scheduler of the redo kernel, serving on-demand
    single-page restores: ``_effects[lsn]`` memoizes what
    :func:`~repro.recovery.redo.apply_record` returns for the record at
    ``lsn`` given the versions it would observe in LSN order — ``None``
    when the record is skipped (no stale write-set page at its turn),
    else the ``{page: version}`` mapping it installs.

    Nothing is read up front: a page's potential writers (records with
    the page in their writeset; whether one actually wrote depends on
    its memoized effect) come from the log's writer index
    (:meth:`~repro.wal.log_manager.LogManager.writers`), bounded to the
    slice ``[scan_start, end]`` — records traffic appends mid-restore
    land above ``end`` and never replay — and cached per page on first
    use.
    """

    def __init__(
        self,
        log: LogManager,
        scan_start: LSN,
        end: LSN,
        base: Dict[PageId, PageVersion],
        initial_value: Any,
        fetch,
    ):
        self._log = log
        self._scan_start = scan_start
        self._end = end
        self._base = base
        # Lazily pulls a page's backup copy into ``base`` the first time
        # the slice consults it (the single-page-read cost model); pages
        # absent from the backup read as the freshly formatted cell.
        self._fetch = fetch
        self._fetched: Set[PageId] = set()
        self._initial_value = initial_value
        self._writers: Dict[PageId, List[LogRecord]] = {}
        self._effects: Dict[LSN, Optional[Dict[PageId, PageVersion]]] = {}
        # Set once any memoized effect came from a raising transform:
        # besides quarantine seeds, the only way POISON enters a page.
        self.raised = False

    def _writers_of(self, page: PageId) -> List[LogRecord]:
        """The page's writers in the slice, ascending LSN (cached)."""
        writers = self._writers.get(page)
        if writers is None:
            writers = self._writers[page] = self._log.writers(
                page, self._scan_start, self._end
            )
        return writers

    # ------------------------------------------------------------ versions

    def _base_version(self, page: PageId) -> PageVersion:
        base = self._base
        if page not in base and page not in self._fetched:
            self._fetched.add(page)
            version = self._fetch(page)
            if version is not None:
                base[page] = version
        version = base.get(page)
        if version is None:
            return PageVersion(self._initial_value, NULL_LSN)
        return version

    def _version_before(self, page: PageId, lsn: LSN) -> PageVersion:
        """The page's version as the record at ``lsn`` would observe it.

        Requires the effects of every writer that must be consulted to
        already be memoized (guaranteed after :meth:`_ensure_effect` on
        the record's dependencies).
        """
        writers = self._writers_of(page)
        pos = bisect_lsn(writers, lsn) - 1
        while pos >= 0:
            effect = self._effects[writers[pos].lsn]
            if effect is not None:
                version = effect.get(page)
                if version is not None:
                    return version
            pos -= 1
        return self._base_version(page)

    def final_version(self, page: PageId) -> PageVersion:
        """The page's version after the whole slice has replayed."""
        self._ensure_writers_resolved(page)
        return self._version_before(page, self._end + 1)

    # ------------------------------------------------------------- effects

    def _missing_deps(self, record: LogRecord) -> List[LogRecord]:
        """Uncomputed earlier effects ``record`` depends on.

        For each page the record writes or reads, walk its writer list
        backwards from the record: the first writer whose effect is
        unknown blocks resolution for that page (an earlier writer only
        matters if every later one provably skipped or did not write the
        page, which requires their effects).
        """
        op = record.op
        effects = self._effects
        missing: List[LogRecord] = []
        for page in list(op.writeset) + list(op.readset):
            writers = self._writers_of(page)
            pos = bisect_lsn(writers, record.lsn) - 1
            while pos >= 0:
                writer = writers[pos]
                effect = effects.get(writer.lsn, _UNSET)
                if effect is _UNSET:
                    missing.append(writer)
                    break
                if effect is not None and page in effect:
                    break
                pos -= 1
        return missing

    def _ensure_effect(self, record: LogRecord) -> None:
        """Memoize ``record``'s effect (iterative, no recursion).

        The work stack revisits a record after its newly discovered
        dependencies resolve; every dependency has a strictly smaller
        LSN, so the computation terminates, and each record's effect is
        computed exactly once.
        """
        effects = self._effects
        if record.lsn in effects:
            return
        stack = [record]
        while stack:
            top = stack[-1]
            if top.lsn in effects:
                stack.pop()
                continue
            todo = [dep for dep in self._missing_deps(top)
                    if dep.lsn not in effects]
            if todo:
                stack.extend(todo)
                continue
            effects[top.lsn] = self._compute_effect(top)
            stack.pop()

    def _compute_effect(
        self, record: LogRecord
    ) -> Optional[Dict[PageId, PageVersion]]:
        """``record``'s effect, with all dependencies memoized."""
        lsn = record.lsn
        outcome = apply_record(
            record, lambda page: self._version_before(page, lsn)
        )
        if outcome is None:
            return None
        self.raised |= outcome[1]
        return outcome[0]

    def _ensure_writers_resolved(self, page: PageId) -> None:
        """Memoize the effects :meth:`_version_before` will consult."""
        for writer in reversed(self._writers_of(page)):
            self._ensure_effect(writer)
            effect = self._effects[writer.lsn]
            if effect is not None and page in effect:
                return


class RestoreManager:
    """Coordinates one instant media restore.

    Lifecycle: construct → :meth:`begin` (select generation, bound the
    media-log slice, re-format stable) → traffic flows through the
    cache manager's ``restore_hook`` (:meth:`ensure_restored`) →
    :meth:`drain` completes everything outstanding and returns a
    :class:`RecoveryOutcome` byte-identical to the offline path's.

    One re-entrant lock guards the bitmap, the evaluator's memo tables,
    and page installs: traffic threads race in :meth:`ensure_restored`.
    """

    def __init__(
        self,
        stable: StableDatabase,
        backup: BackupDatabase,
        log: LogManager,
        to_lsn: Optional[LSN] = None,
        fallback: Sequence[BackupDatabase] = (),
        oracle: Optional[Mapping[PageId, Any]] = None,
        initial_value: Any = None,
        tracer=None,
        metrics=None,
        io_guard=None,
    ):
        self.stable = stable
        self.backup = backup
        self.log = log
        self.to_lsn = to_lsn
        self.fallback = list(fallback)
        self.oracle = oracle
        self.initial_value = initial_value
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        # Context-manager factory wrapped around restore-driven stable
        # I/O (Database passes ``_faults_suspended``: recovery I/O is
        # driven by the recovery algorithm, not the workload under test).
        self._io_guard = io_guard or nullcontext
        self._lock = threading.RLock()
        self.bitmap = RestoredBitmap(stable.layout)
        self.chosen: Optional[BackupDatabase] = None
        self.target: Optional[LSN] = None
        self.quarantine_seed: List[PageId] = []
        self._seeds: Set[PageId] = set()
        # The media-log slice as (first, last) LSN; its records are read
        # from the live log when needed, never copied at begin.
        self._slice: Optional[Tuple[LSN, LSN]] = None
        self._evaluator: Optional[_SliceEvaluator] = None
        self._began = False
        self._drained: Optional[RecoveryOutcome] = None
        self._t_begin: Optional[float] = None
        self._first_demand_ms: Optional[float] = None

    # ---------------------------------------------------------------- begin

    def begin(self) -> "RestoreManager":
        """Select the generation, bound the log slice, format stable.

        After this every page is marked not-yet-restored and the stable
        store is readable again (formatted to the initial value); the
        cache manager's hook lazily fills pages as traffic touches them.
        Nothing is read from the log here.
        """
        if self._began:
            return self
        self.target = resolve_media_target(self.backup, self.log, self.to_lsn)
        self.chosen, self.quarantine_seed = select_generation(
            self.backup, self.target, self.log, self.fallback,
            self.tracer, self.metrics,
        )
        self._seeds = set(self.quarantine_seed)
        # Bound the slice now (an O(1) check that it is still retained):
        # traffic served mid-restore appends records above its end,
        # which must not replay.
        self._slice = first, last = self.log.retained_range(
            self.chosen.media_scan_start_lsn, self.target
        )
        # Quarantine seeds sit in the base as POISON from the start, so
        # the evaluator never fetches their damaged cells; everything
        # else comes from the chosen (vetted-intact) generation's
        # verified read.
        self._evaluator = _SliceEvaluator(
            self.log, first, last, poison_seeds(self.quarantine_seed),
            self.initial_value,
            fetch=self.chosen.read_page,
        )
        with self._io_guard():
            # Re-format every cell to the initial value (clears the
            # failed flag); real content lands page-by-page.
            self.stable.restore_from({}, initial_value=self.initial_value)
        self._t_begin = time.perf_counter()
        self._began = True
        if self.tracer.enabled:
            self.tracer.emit(
                RESTORE_PROGRESS, phase="begin",
                backup_id=self.chosen.backup_id, target_lsn=self.target,
                records=max(0, last - first + 1),
                quarantine_seeds=len(self.quarantine_seed),
            )
        return self

    # ------------------------------------------------------------ lazy path

    def ensure_restored(self, pid: PageId) -> bool:
        """Restore one page if it is not restored yet.

        The cache manager's hook: called for every cache-missed read and
        every page an operation is about to write, before the access
        proceeds.  Returns True when this call performed the restore.
        """
        if not self._began:
            raise RuntimeError("RestoreManager.begin() has not run")
        if not self.stable.layout.contains(pid):
            return False
        with self._lock:
            if self.bitmap.is_restored(pid):
                return False
            self._restore_page_locked(pid)
            return True

    def _restore_page_locked(self, pid: PageId) -> None:
        """Compute and install one page's recovered version (lock held)."""
        evaluator = self._evaluator
        version = evaluator.final_version(pid)
        # A clean slice (no seeds, nothing raised) cannot hold POISON:
        # skip the install rules' value walk, as the drain's classify does.
        clean = not (self._seeds or evaluator.raised)
        with self._io_guard():
            install_recovered_page(
                self.stable, pid, version, self.initial_value,
                self.tracer, self.metrics, kind="instant",
                poisoned=False if clean else None,
            )
        self.bitmap.mark(pid)
        if self.metrics is not None:
            self.metrics.pages_restored_on_demand += 1
        if self._first_demand_ms is None:
            self._first_demand_ms = (
                time.perf_counter() - self._t_begin
            ) * 1000.0
            if self.metrics is not None:
                self.metrics.time_to_first_query_ms = self._first_demand_ms
        if self.tracer.enabled:
            self.tracer.emit(
                RESTORE_PROGRESS, phase="page", page=str(pid),
                source="on-demand",
            )

    @property
    def time_to_first_query_ms(self) -> Optional[float]:
        """Wall time from begin() to the first on-demand restore."""
        return self._first_demand_ms

    # ---------------------------------------------------------------- drain

    def drain(self) -> RecoveryOutcome:
        """Finish the restore and return the offline-equivalent outcome.

        Does what offline media recovery does, restricted to the pages
        not restored yet: one LSN-order replay of the slice bounded at
        :meth:`begin` (read from the log now) over the chosen
        generation — so ``state``, ``replayed`` and ``skipped`` are the
        offline ones by construction — the shared pipeline's verdict
        (quarantine bookkeeping and oracle diffs included), and
        :meth:`_install_unrestored`.
        """
        if self._drained is not None:
            return self._drained
        if not self._began:
            self.begin()
        tracer = self.tracer
        with self._lock:
            # The seeds plus what replay wrote, as offline.  No tracer:
            # the instant path emits no REDO_OP events.
            state = poison_seeds(self.quarantine_seed)
            replayer = RedoReplayer(
                initial_value=self.initial_value, base=self.chosen.read_page
            )
            with tracer.span("recovery.instant.redo"):
                stats = replayer.replay(self.log.scan(*self._slice),
                                        state)
            with tracer.span("recovery.instant.classify"):
                outcome = conclude_recovery(
                    "instant", state, stats, bool(self.quarantine_seed),
                    self.oracle, self.initial_value, tracer,
                    # The diff covers the whole restore image, as offline.
                    self.chosen.iter_pages() if self.oracle is not None
                    else (),
                )
            with tracer.span("recovery.instant.install"), self._io_guard():
                self._install_unrestored(
                    state, set(outcome.poisoned).union(outcome.quarantined)
                )
            # Reported as the media recovery it is byte-identical to.
            outcome.kind = "media"
            self._drained = outcome
        if self.tracer.enabled:
            self.tracer.emit(
                RESTORE_PROGRESS, phase="complete",
                pages=self.bitmap.total_done,
                replayed=outcome.replayed, skipped=outcome.skipped,
                quarantined=len(outcome.quarantined),
            )
        return outcome

    def _install_unrestored(
        self, state: Dict[PageId, PageVersion], tainted: Set[PageId]
    ) -> None:
        """Install the drain's replay onto every page not restored yet.

        Per unfinished partition: the pages replay wrote go through the
        install rules (``tainted`` is classify's POISON verdict), and
        every other unrestored page is laid from the chosen generation —
        the formatted cell where it holds nothing — in one
        :meth:`~repro.storage.stable_db.StableDatabase.lay_pages` call.
        Seeds are in ``state``, so their damaged cells are never laid.
        A page the bitmap marks restored is never touched: traffic may
        have rewritten and flushed it since.  Lock held.
        """
        layout = self.stable.layout
        read = self.chosen.read_page
        formatted = PageVersion(self.initial_value, NULL_LSN)
        tracer = self.tracer
        restored = 0
        for partition in range(layout.num_partitions):
            pending = self.bitmap.unrestored(partition)
            if not pending:
                continue
            lay = {}
            for pid in pending:
                version = state.get(pid)
                if version is None:
                    lay[pid] = read(pid) or formatted
                else:
                    install_recovered_page(
                        self.stable, pid, version, self.initial_value,
                        tracer, self.metrics, kind="instant",
                        poisoned=pid in tainted,
                    )
            self.stable.lay_pages(lay)
            self.bitmap.mark_partition(partition)
            restored += len(pending)
            if tracer.enabled:
                for pid in pending:
                    tracer.emit(
                        RESTORE_PROGRESS, phase="page", page=str(pid),
                        source="background",
                    )
        # Out-of-layout replay targets: the install rules trace and count
        # them as dropped, exactly as the offline install does.
        for pid, version in state.items():
            if not layout.contains(pid):
                install_recovered_page(
                    self.stable, pid, version, self.initial_value, tracer,
                    self.metrics, kind="instant",
                )
        if self.metrics is not None:
            self.metrics.pages_restored_background += restored

    @property
    def complete(self) -> bool:
        return self.bitmap.complete

    def progress(self) -> Dict[int, int]:
        """Pages restored per partition (the restore-side frontiers)."""
        with self._lock:
            return {
                partition: self.bitmap.pages_done(partition)
                for partition in range(self.stable.layout.num_partitions)
            }

