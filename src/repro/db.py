"""``Database``: the public facade over the whole system.

A ``Database`` wires together the stable store, log manager, cache
manager, oracle, and backup engine, and exposes the operations a
downstream user (or an experiment harness) needs:

>>> from repro import BackupConfig, Database, CopyOp, PhysicalWrite
>>> from repro.ids import PageId
>>> db = Database(pages_per_partition=[64])
>>> db.execute(PhysicalWrite(PageId(0, 3), ("hello",)))   # doctest: +ELLIPSIS
<LSN 1: W_P(P0:3)>
>>> db.execute(CopyOp(PageId(0, 3), PageId(0, 40)))       # doctest: +ELLIPSIS
<LSN 2: copy(P0:3 -> P0:40)>
>>> run = db.start_backup(BackupConfig(steps=4))
>>> backup = db.run_backup(BackupConfig(pages_per_tick=16))
>>> db.media_failure()
>>> outcome = db.media_recover()
>>> outcome.ok
True
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Sequence, Set, Tuple, Union

from repro.cache.cache_manager import CacheManager
from repro.core.backup_engine import BackupEngine, BackupRun
from repro.core.config import BackupConfig
from repro.core.incremental import run_media_recovery_chain
from repro.core.partial_recovery import run_partition_media_recovery
from repro.core.retention import LogRetention
from repro.core.verify_backup import validate_backup
from repro.recovery.analysis_pass import run_analyzed_crash_recovery
from repro.recovery.selective_redo import run_selective_redo
from repro.sim.faults import FaultPlane
from repro.wal.checkpoint import CheckpointManager
from repro.core.policy import (
    FlushPolicy,
    GeneralOpsPolicy,
    PageOrientedPolicy,
    TreeOpsPolicy,
)
from repro.errors import NoBackupError, RecoveryError, ReproError
from repro.ids import LSN, PageId
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER
from repro.ops.base import Operation
from repro.recovery.crash_recovery import run_crash_recovery
from repro.recovery.explain import RecoveryOutcome
from repro.recovery.instant_restore import RestoreManager
from repro.recovery.media_recovery import run_media_recovery
from repro.sim.metrics import Metrics
from repro.sim.oracle import Oracle
from repro.storage.backup_db import BackupDatabase
from repro.storage.layout import Layout
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, RecordFlag

_POLICIES = {
    cls.name: cls
    for cls in (GeneralOpsPolicy, TreeOpsPolicy, PageOrientedPolicy)
}


class Database:
    """A single-node database with media recovery via online backup."""

    @classmethod
    def bootstrap_from_backup(
        cls,
        backup: BackupDatabase,
        source_log: LogManager,
        pages_per_partition: Sequence[int],
        policy: Union[str, FlushPolicy] = "general",
        initial_value: Any = None,
    ) -> "Database":
        """Stand up a brand-new node from an archived backup + log.

        The replacement-hardware flow: load the backup (e.g. via
        :func:`repro.storage.archive.load_backup`), roll the shipped log
        forward, and return a fresh, fully functional database in a new
        LSN epoch.  Implemented as seed-and-promote of a standby.
        """
        from repro.core.standby import StandbyReplica

        layout = Layout(list(pages_per_partition))
        replica = StandbyReplica.seed_from_backup(
            backup, source_log, layout, initial_value
        )
        policy_name = policy if isinstance(policy, str) else policy.name
        return replica.promote(policy=policy_name)

    def __init__(
        self,
        pages_per_partition: Sequence[int] = (256,),
        policy: Union[str, FlushPolicy] = "general",
        initial_value: Any = None,
        auto_force_log: bool = True,
        tracer=None,
        backend: str = "memory",
        data_dir: Optional[str] = None,
    ):
        """``backend``/``data_dir`` select the storage backend (see
        :func:`repro.storage.api.open_backend`): ``"memory"`` keeps the
        in-memory stores, ``"file"`` puts the stable pages, the WAL
        and every backup image on real files under ``data_dir``
        with explicit ``fsync``; ``close()`` releases whatever the
        backend opened.  Faults are wired with :meth:`attach_faults`."""
        if isinstance(policy, str):
            try:
                policy = _POLICIES[policy]()
            except KeyError:
                raise ReproError(
                    f"unknown policy {policy!r}; choose from "
                    f"{sorted(_POLICIES)}"
                ) from None
        self.layout = Layout(list(pages_per_partition))
        self.initial_value = initial_value
        from repro.storage.api import open_backend

        self.storage = open_backend(backend, data_dir)
        self.stable = self.storage.create_stable(self.layout, initial_value)
        self.metrics = Metrics()
        self.log = LogManager(auto_force=auto_force_log)
        device = self.storage.create_log_device()
        if device is not None:
            self.log.attach_device(device)
        self.cm = CacheManager(
            self.stable,
            self.log,
            policy=policy,
            metrics=self.metrics,
            initial_value=initial_value,
        )
        self.oracle = Oracle(self.log, initial_value)
        self.engine = BackupEngine(self.cm, storage=self.storage)
        self.retention = LogRetention(self.cm, self.engine)
        self.checkpoints = CheckpointManager(self.log, lambda: self.cm.rec)
        # Pages updated since the last completed full/incremental backup,
        # for incremental update-set capture (section 6.1).
        self.updated_since_backup: Set[PageId] = set()
        # The active engine sweep and the pages it took over from
        # updated_since_backup: an aborted sweep hands them back, so only
        # a seal discharges them.
        self._sweep_owed: Optional[Tuple[BackupRun, Set[PageId]]] = None
        # The log-structured archive tier, attached on demand
        # (attach_archive); None until then.
        self.archive = None
        # The damaged-page count the active instant restore's begin
        # detected (the restore itself is retention.active_restore).
        self._instant_damaged = 0
        # The generation an instant restore had chosen when a crash
        # interrupted it; recover() finishes from it as media recovery.
        self._interrupted_restore: Optional[BackupDatabase] = None
        self.faults: Optional[FaultPlane] = None
        self.tracer = NULL_TRACER
        if tracer is not None:
            self.attach_tracer(tracer)

    # ---------------------------------------------------------- observability

    def attach_tracer(self, tracer) -> "Database":
        """Wire a :class:`repro.obs.Tracer` into every subsystem.

        The cache manager (flush decisions, Iw/oF writes, backup
        latches), the log manager (forces), the fault plane (injections)
        and every recovery entry point emit structured events into the
        tracer from now on.  The tracer's histogram sink is pointed at
        this database's metrics so span timings land in
        ``Metrics.phase_timings``.
        """
        self.tracer = tracer
        if getattr(tracer, "metrics", None) is None and tracer.enabled:
            tracer.metrics = self.metrics
        self.cm.attach_tracer(tracer)
        self.log.tracer = tracer
        if self.faults is not None:
            self.faults.tracer = tracer
        return self

    # -------------------------------------------------------- fault injection

    def attach_faults(self, plane: FaultPlane) -> FaultPlane:
        """Wire a :class:`FaultPlane` into every simulated device.

        The stable database, the log manager, and every backup image the
        engine creates from now on consult the plane at each I/O
        boundary; the plane mirrors its injection counters into this
        database's :class:`~repro.sim.metrics.Metrics`.
        """
        self.faults = plane
        plane.metrics = self.metrics
        plane.tracer = self.tracer
        self.stable.attach_faults(plane)
        self.log.attach_faults(plane)
        self.engine.attach_faults(plane)
        return plane

    def ensure_fault_plane(self) -> FaultPlane:
        """The attached fault plane, creating (and wiring) one if absent."""
        if self.faults is None:
            self.attach_faults(FaultPlane())
        return self.faults

    def _faults_suspended(self):
        """Context manager: pause injection while recovery itself runs
        (recovery I/O is driven by the recovery algorithms, not the
        workload under test)."""
        if self.faults is None:
            from contextlib import nullcontext

            return nullcontext()
        return self.faults.suspended()

    def _stamp_outcome(self, outcome):
        """Fill the fault-survival counter on a recovery outcome."""
        if self.faults is not None:
            outcome.faults_survived = self.faults.injected_total
        return outcome

    # ------------------------------------------- shared recovery plumbing

    def _recovery_args(self) -> dict:
        """What every recovery driver takes from this database."""
        return dict(
            initial_value=self.initial_value,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    def _restore_source(
        self, backup: Optional[BackupDatabase]
    ) -> BackupDatabase:
        """``backup``, or the latest completed one when none is named."""
        backup = backup or self.engine.latest_backup()
        if backup is None:
            raise NoBackupError("no completed backup to restore from")
        return backup

    def _full_backups(self) -> List[BackupDatabase]:
        """Completed full (non-incremental) backups, oldest first."""
        return [
            b
            for b in self.engine.completed
            if b.is_complete and getattr(b, "base_backup_id", None) is None
        ]

    def _fallback_generations(
        self, backup: BackupDatabase
    ) -> List[BackupDatabase]:
        """Older generations media recovery may fall back to when
        ``backup`` fails its integrity check, newest first."""
        return [b for b in reversed(self._full_backups()) if b is not backup]

    def _count_damage(self, backups: Sequence[BackupDatabase]) -> int:
        """Damaged pages across the images a restore is about to read."""
        damaged = {pid for b in backups for pid in b.damaged_pages()}
        self.metrics.corruption_detected += len(damaged)
        return len(damaged)

    def _settle_damage(self, damaged: int, outcome: RecoveryOutcome) -> None:
        """Account what became of ``damaged`` pages: whatever recovery
        did not have to quarantine, it healed."""
        if damaged:
            lost = len(outcome.quarantined)
            self.metrics.pages_quarantined += lost
            self.metrics.corruption_healed += max(0, damaged - lost)

    def _resume_after(
        self, outcome: RecoveryOutcome, redo_from: Optional[LSN] = None
    ) -> RecoveryOutcome:
        """Epilogue of every offline recovery: S now holds the recovered
        state, so the cache restarts cold over it and nothing before
        ``redo_from`` (when given) needs redo again."""
        self._interrupted_restore = None
        self.cm.reload_after_recovery()
        if redo_from is not None:
            self.cm.stable_truncation_point = redo_from
        return self._stamp_outcome(outcome)

    # ---------------------------------------------------------- transactions

    def execute(self, op: Operation, source: str = "") -> LogRecord:
        """Run one logged operation against the database.

        ``source`` tags the log record with its originator (application
        or transaction name); selective redo (§6.3) uses the tag to
        exclude a corrupting source.
        """
        record = self.cm.execute(op, source=source)
        self.updated_since_backup.update(op.writeset)
        return record

    def execute_all(self, ops: Sequence[Operation]) -> List[LogRecord]:
        return [self.execute(op) for op in ops]

    def read(self, page_id: PageId) -> Any:
        return self.cm.read_page(page_id)

    # --------------------------------------------------------------- flushing

    def flush_page(self, page_id: PageId) -> bool:
        return self.cm.flush_page(page_id)

    def checkpoint(self) -> int:
        return self.cm.checkpoint()

    def install_some(self, count: int, rng: Optional[random.Random] = None) -> int:
        """Install up to ``count`` ready write-graph nodes, oldest first,
        or by ``rng.choice`` when an ``rng`` is given (see
        :meth:`CacheManager.install_some`)."""
        return self.cm.install_some(count, rng)

    # ---------------------------------------------------------------- backup

    def start_backup(self, config: Optional[BackupConfig] = None) -> BackupRun:
        """Begin an online backup shaped by ``config``; drive it with
        :meth:`backup_step` or :meth:`run_backup`.

        With ``config.incremental`` only pages updated since the
        previous completed backup are copied (requires a prior backup as
        base); ``config.batched=False`` forces page-at-a-time round-robin
        copying (see :meth:`BackupRun.copy_some`).
        """
        cfg = self._backup_config(config, "start_backup")
        if cfg.incremental:
            base = self.engine.latest_backup()
            if base is None:
                raise NoBackupError(
                    "incremental backup requires a completed base backup"
                )
            run = self.engine.start_backup(
                steps=cfg.steps,
                update_set=set(self.updated_since_backup),
                base_backup=base,
                dynamic_extend=cfg.dynamic_extend,
                batched=cfg.batched,
            )
        else:
            run = self.engine.start_backup(
                steps=cfg.steps, batched=cfg.batched
            )
        self._sweep_owed = (run, self.updated_since_backup)
        self.updated_since_backup = set()
        return run

    @staticmethod
    def _backup_config(config, method: str) -> BackupConfig:
        if config is None:
            return BackupConfig()
        if not isinstance(config, BackupConfig):
            raise ReproError(
                f"{method} expects a BackupConfig, got {config!r}"
            )
        return config

    def _abort_backup(self) -> None:
        """Abort the active engine sweep, if any.  The pages updated
        before it started are owed to the next generation again."""
        owed, self._sweep_owed = self._sweep_owed, None
        if owed is not None and self.engine.active is owed[0]:
            self.updated_since_backup |= owed[1]
        self.engine.abort_active()

    def backup_step(self, pages: int = 8) -> int:
        """Copy some pages of the active backup; returns pages copied."""
        return self.engine.copy_some(pages)

    def run_backup(
        self, config: Optional[BackupConfig] = None, tick=None
    ) -> BackupDatabase:
        """Drive the active backup to completion, ``config.pages_per_tick``
        pages per batch, calling ``tick()`` between batches to
        interleave a workload."""
        cfg = self._backup_config(config, "run_backup")
        return self.engine.run_to_completion(cfg.pages_per_tick, tick=tick)

    def backup_in_progress(self) -> bool:
        return self.engine.active is not None

    # ------------------------------------------------------- archive tier

    def attach_archive(
        self,
        config: Optional[BackupConfig] = None,
        manifest_store=None,
        adopt: bool = True,
    ):
        """Attach the log-structured archive tier (docs/ARCHIVE.md).

        Returns the :class:`~repro.archive.manager.ArchiveManager`
        managing this database's generation chain.  ``config`` supplies
        both the sweep shape for the generations it takes and the
        scheduling knobs (``incremental_every``, ``compact_threshold``);
        the manifest lands in ``manifest_store`` (default: a file store
        under the file backend's data directory, else in memory).  With
        ``adopt=True`` an empty manifest adopts the engine's trailing
        completed chain, so attaching to an already-backed-up database
        keeps its history restorable.  Idempotent: a second call returns
        the existing manager.
        """
        if self.archive is not None:
            return self.archive
        from repro.archive.manager import ArchiveManager

        self.archive = ArchiveManager(self, config, manifest_store)
        if adopt:
            self.archive.adopt_existing()
        return self.archive

    def restore_to_lsn(
        self, to_lsn: LSN, verify: bool = False
    ) -> RecoveryOutcome:
        """Point-in-time restore: recover the state as of ``to_lsn``.

        Overlays the longest archive-chain prefix sealed at-or-before
        the target and replays the media-log suffix truncated at the
        target — so an operator can restore to a pre-corruption LSN.
        Requires an attached archive (:meth:`attach_archive` is called
        implicitly, adopting the engine's chain if no manifest exists).

        ``verify=True`` checks the result against the oracle — only
        meaningful when ``to_lsn`` is the current log end (the oracle
        tracks the latest state); earlier targets skip verification.

        Afterwards the stable store reflects exactly the history up to
        ``to_lsn``; the log suffix past the target is *kept* — replayable
        (roll-forward) but not yet installed — so a subsequent
        :meth:`recover` rolls forward to the present if the operator
        decides the later history was good after all.
        """
        archive = self.archive or self.attach_archive()
        from repro.archive.manager import select_chain_prefix

        return self._recover_chain(
            select_chain_prefix(archive.chain(), to_lsn),
            verify and to_lsn == self.log.end_lsn,
            to_lsn,
        )

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release storage-backend resources (fds for the file backend).

        Idempotent; a no-op for the in-memory backend.  The in-memory
        state stays readable afterwards, so metrics/inspection after
        ``close()`` are fine — only device I/O is off the table.
        """
        self.storage.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def latest_backup(self) -> Optional[BackupDatabase]:
        return self.engine.latest_backup()

    # --------------------------------------------------------------- failure

    def crash(self) -> int:
        """System failure: lose the cache and the unforced log tail.

        Returns the number of log records lost.  An active backup is
        aborted (its partial image is useless after a crash).  An active
        instant restore is abandoned — S is still mostly the formatted
        store, so crash redo from the truncation point cannot rebuild it
        — and its log pin released; :meth:`recover` finishes it as media
        recovery from the generation it had chosen.
        """
        lost = self.log.discard_unflushed()
        self._abort_backup()
        restore = self.retention.active_restore
        if restore is not None:
            self._interrupted_restore = restore.chosen
            self.retention.active_restore = None
        self.cm.crash()
        if lost:
            self.oracle.rebuild(self.log)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.CRASH, lost_records=lost, flushed_lsn=self.log.flushed_lsn
            )
        return lost

    def recover(
        self, verify: bool = True, from_log_only: bool = False
    ) -> RecoveryOutcome:
        """Crash recovery: redo from the stable truncation point.

        ``from_log_only=True`` uses the analysis pass instead: the scan
        start is reconstructed from the durable log's checkpoint records
        alone, with no reliance on any surviving bookkeeping — the fully
        self-contained recovery path.

        Corruption handling runs first: the log tail is truncated at the
        first checksum-failed record (torn-tail repair), and if the
        stable database has damaged pages — or pages provably containing
        effects of truncated records — recovery escalates: heal from a
        completed backup (media recovery with generation fallback) when
        one covers the surviving log, rebuild the whole store from the
        log when it still reaches back to LSN 1, and otherwise quarantine
        the unhealable pages on the outcome instead of crashing.

        After a crash that interrupted an instant restore, recovery is
        that restore's media recovery instead: the chosen generation
        rolled forward to the log end (traffic served mid-restore is in
        the log, so it replays too).
        """
        with self._faults_suspended():
            dropped = self.log.repair_tail()
            # Mirror the log's cumulative repair counter so it is always
            # visible in Metrics.snapshot() (faultsweep/bench reports).
            self.metrics.tail_repair_dropped = self.log.tail_repair_dropped
            if dropped:
                self.metrics.log_tail_truncated += dropped
                self.metrics.corruption_detected += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.CORRUPTION_DETECTED, site="log",
                        dropped=dropped, end_lsn=self.log.end_lsn,
                    )
                    self.tracer.emit(
                        ev.CHAIN_FALLBACK, action="truncate-log-tail",
                        end_lsn=self.log.end_lsn,
                    )
                # The surviving prefix is now the whole truth; the
                # oracle (and the truncation point) must agree.
                self.oracle.rebuild(self.log)
                self.cm.stable_truncation_point = min(
                    self.cm.stable_truncation_point, self.log.end_lsn + 1
                )
            damaged = self.stable.damaged_pages()
            future = (
                self.stable.pages_ahead_of(self.log.end_lsn)
                if dropped
                else []
            )
            problems = sorted(set(damaged) | set(future))
            if damaged:
                self.metrics.corruption_detected += len(damaged)
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.CORRUPTION_DETECTED, site="stable",
                        pages=[str(p) for p in damaged],
                    )
            oracle = self.oracle.state() if verify else None
            restore = self._interrupted_restore
            if restore is not None:
                outcome = run_media_recovery(
                    self.stable, restore, self.log, oracle=oracle,
                    fallback=self._fallback_generations(restore),
                    **self._recovery_args(),
                )
                self._settle_damage(self._instant_damaged, outcome)
            elif problems:
                outcome = self._recover_damaged_stable(problems, oracle)
            elif from_log_only:
                outcome = run_analyzed_crash_recovery(
                    self.stable, self.log, oracle=oracle,
                    **self._recovery_args(),
                )
            else:
                outcome = run_crash_recovery(
                    self.stable,
                    self.log,
                    scan_start_lsn=self.cm.stable_truncation_point,
                    oracle=oracle,
                    **self._recovery_args(),
                )
        # After redo, S holds the current state: nothing is dirty.
        return self._resume_after(outcome, self.log.end_lsn + 1)

    def _recover_damaged_stable(
        self, problems: Sequence[PageId], oracle
    ) -> RecoveryOutcome:
        """Escalation ladder for crash recovery over a damaged store.

        ``problems`` are stable pages that cannot be trusted (checksum
        failures plus pages ahead of a truncated log end).  Called with
        the fault plane already suspended.
        """
        # (a) Heal from a backup: whole-image restore + roll forward to
        # the log end re-creates every page, damaged ones included.
        fulls = [
            b
            for b in self._full_backups()
            if (b.completion_lsn or 0) <= self.log.end_lsn
            and b.media_scan_start_lsn >= self.log.first_retained_lsn
        ]
        if fulls:
            newest = fulls[-1]
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.CHAIN_FALLBACK, action="escalate-media",
                    backup_id=newest.backup_id,
                    pages=[str(p) for p in problems],
                )
            outcome = run_media_recovery(
                self.stable,
                newest,
                self.log,
                oracle=oracle,
                fallback=list(reversed(fulls[:-1])),
                **self._recovery_args(),
            )
        elif self.log.first_retained_lsn == 1:
            # (b) Full-history rebuild: the log still reaches LSN 1, so
            # replaying it against a freshly formatted store reproduces
            # the current state by construction.
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.CHAIN_FALLBACK, action="rebuild-from-log",
                    pages=[str(p) for p in problems],
                )
            self.stable.restore_from({}, initial_value=self.initial_value)
            outcome = run_crash_recovery(
                self.stable,
                self.log,
                scan_start_lsn=1,
                oracle=oracle,
                rebuild_from_log=True,
                **self._recovery_args(),
            )
        else:
            # (c) No healing source: quarantine what replay cannot fix.
            outcome = run_crash_recovery(
                self.stable,
                self.log,
                scan_start_lsn=self.cm.stable_truncation_point,
                oracle=oracle,
                quarantine=problems,
                **self._recovery_args(),
            )
        self._settle_damage(len(problems), outcome)
        return outcome

    def validate_backup(
        self, backup: Optional[BackupDatabase] = None,
        base_chain: Sequence[BackupDatabase] = (),
    ):
        """Offline recoverability audit of a backup (no restore)."""
        backup = backup or self.engine.latest_backup()
        if backup is None:
            raise NoBackupError("no completed backup to validate")
        return validate_backup(
            backup, self.log, self.layout,
            base_chain=base_chain, initial_value=self.initial_value,
        )

    def media_failure(self) -> None:
        """The stable medium fails; S becomes inaccessible."""
        self._abort_backup()
        self.stable.fail_media()
        self.cm.crash()
        if self.tracer.enabled:
            self.tracer.emit(ev.MEDIA_FAILURE, scope="all")

    def media_recover(
        self,
        backup: Optional[BackupDatabase] = None,
        to_lsn: Optional[LSN] = None,
        verify: bool = True,
    ) -> RecoveryOutcome:
        """Restore from a backup (default: latest completed) and roll
        forward the media recovery log.

        Older completed full backups are passed along as the fallback
        chain: if the chosen image fails its integrity check, recovery
        restores the newest intact generation instead (longer redo span,
        same result) and only quarantines pages when every generation is
        damaged.
        """
        backup = self._restore_source(backup)
        damaged = self._count_damage([backup])
        with self._faults_suspended():
            outcome = run_media_recovery(
                self.stable,
                backup,
                self.log,
                to_lsn=to_lsn,
                oracle=(
                    self.oracle.state() if verify and to_lsn is None else None
                ),
                fallback=self._fallback_generations(backup),
                **self._recovery_args(),
            )
        self._settle_damage(damaged, outcome)
        return self._resume_after(outcome, self.log.end_lsn + 1)

    def begin_instant_restore(
        self,
        backup: Optional[BackupDatabase] = None,
        to_lsn: Optional[LSN] = None,
        verify: bool = True,
        eager: bool = False,
    ) -> RestoreManager:
        """Start an incremental (instant) media restore and resume service.

        Unlike :meth:`media_recover`, this returns as soon as the restore
        *begins*: the store is re-formatted, every page is marked
        not-yet-restored, and a restore hook is installed in the cache
        manager so any read or write of an unrestored page restores just
        that page (backup copy + its media-log slice) on demand.  Call
        :meth:`finish_instant_restore` to restore the rest in bulk and
        obtain the :class:`RecoveryOutcome` — byte-identical to what
        :meth:`media_recover` would have produced at the same target.

        ``eager`` is kept only for existing callers: ``eager=False`` (the
        default) is accepted silently, and ``eager=True`` raises
        :class:`ReproError` — the eager background pool was removed,
        because the bulk drain restores what traffic did not touch
        faster than per-page background restores do.
        """
        if eager:
            raise ReproError(
                "begin_instant_restore(eager=True): the eager background "
                "restore pool was removed; finish_instant_restore() "
                "restores the untouched pages in bulk"
            )
        backup = self._restore_source(backup)
        self._instant_damaged = self._count_damage([backup])
        manager = RestoreManager(
            self.stable,
            backup,
            self.log,
            to_lsn=to_lsn,
            fallback=self._fallback_generations(backup),
            oracle=(
                self.oracle.state() if verify and to_lsn is None else None
            ),
            io_guard=self._faults_suspended,
            **self._recovery_args(),
        )
        with self._faults_suspended():
            manager.begin()
        # Service resumes here: cold cache, lazy restore on every miss.
        self.cm.reload_after_recovery()
        self.cm.restore_hook = manager.ensure_restored
        self.cm.stable_truncation_point = self.log.end_lsn + 1
        # Held by the retention, which pins the media-log slice until the
        # drain returns: the restore reads it from the live log.
        self.retention.active_restore = manager
        return manager

    def finish_instant_restore(self) -> RecoveryOutcome:
        """Drain the active instant restore and return its outcome.

        Blocks until every page is restored, removes the lazy-restore
        hook, and performs the same quarantine/healing accounting the
        offline path does.  The cache is *not* invalidated: mid-restore
        traffic only ever observed fully restored pages, so its cached
        (possibly dirty) contents remain the current state.
        """
        manager = self.retention.active_restore
        if manager is None:
            raise RecoveryError("no instant restore in progress")
        outcome = manager.drain()
        self.cm.restore_hook = None
        self.retention.active_restore = None
        self._settle_damage(self._instant_damaged, outcome)
        return self._stamp_outcome(outcome)

    def media_recover_chain(
        self,
        chain: Optional[Sequence[BackupDatabase]] = None,
        verify: bool = True,
    ) -> RecoveryOutcome:
        """Restore from a full+incremental chain (section 6.1).

        Damaged link pages are skipped during the overlay (an earlier
        link's copy plus the base-scan-start replay heals them); pages
        damaged in every link that carries them are quarantined.
        """
        return self._recover_chain(
            self.engine.completed if chain is None else chain, verify
        )

    def _recover_chain(
        self,
        chain: Sequence[BackupDatabase],
        verify: bool,
        to_lsn: Optional[LSN] = None,
    ) -> RecoveryOutcome:
        """Chain restore to ``to_lsn`` (default: the log end)."""
        damaged = self._count_damage(chain)
        with self._faults_suspended():
            outcome = run_media_recovery_chain(
                self.stable,
                list(chain),
                self.log,
                to_lsn=to_lsn,
                oracle=self.oracle.state() if verify else None,
                **self._recovery_args(),
            )
        self._settle_damage(damaged, outcome)
        return self._resume_after(
            outcome, (self.log.end_lsn if to_lsn is None else to_lsn) + 1
        )

    # ---------------------------------------------- partial failure (§6.3 #2)

    def fail_partition(self, partition: int) -> None:
        """Partial media failure: one partition becomes unreadable."""
        self._abort_backup()
        self.stable.fail_partition(partition)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.MEDIA_FAILURE, scope="partition", partition=partition
            )
        # The cache may hold dirty pages of the failed partition whose
        # flushes would now fail; volatile state is dropped like a crash
        # confined to recovery concerns (healthy partitions' stable data
        # is untouched).
        self.cm.crash()

    def recover_partition(
        self, partition: int, backup: Optional[BackupDatabase] = None,
        verify: bool = True,
    ) -> RecoveryOutcome:
        """Media-recover a single failed partition (section 6.3).

        Requires every logged operation touching the partition since the
        backup's scan start to be confined to it.
        """
        backup = self._restore_source(backup)
        with self._faults_suspended():
            outcome = run_partition_media_recovery(
                self.stable,
                partition,
                backup,
                self.log,
                oracle=self.oracle.state() if verify else None,
                **self._recovery_args(),
            )
        # Healthy partitions keep their dirty-page bookkeeping: the
        # redo scan start does not move.
        return self._resume_after(outcome)

    # ----------------------------------------------- selective redo (§6.3 #3)

    def selective_recover(
        self,
        corrupt_source: str,
        backup: Optional[BackupDatabase] = None,
        verify: bool = True,
        transactional: bool = False,
    ) -> RecoveryOutcome:
        """Recover to a state excluding one source's operations and all
        operations tainted by them (section 6.3, direction 3).

        ``transactional=True`` treats each source tag as an atomicity
        group: a transaction with one tainted operation is excluded
        whole (a half-excluded transfer would break atomicity).

        The database afterwards reflects the corruption-free history;
        note the oracle still reflects the corrupted history, so the
        result carries its own verification diffs (against the
        corruption-free expected state).
        """
        backup = self._restore_source(backup)
        with self._faults_suspended():
            result = run_selective_redo(
                self.stable,
                backup,
                self.log,
                corrupt=lambda record: record.source == corrupt_source,
                verify=verify,
                group_of=(
                    (lambda record: record.source or None)
                    if transactional
                    else None
                ),
                **self._recovery_args(),
            )
        return self._resume_after(result, self.log.end_lsn + 1)

    # ------------------------------------------- checkpoints / log retention

    def take_checkpoint(self) -> LogRecord:
        """Log a fuzzy checkpoint (dirty-page table snapshot)."""
        return self.checkpoints.take_checkpoint()

    def truncate_log(self) -> int:
        """Physically discard the log prefix no retained backup or dirty
        page needs; returns records discarded."""
        return self.retention.truncate_log()

    def retire_backup(self, backup: BackupDatabase) -> None:
        """Release a backup's pin on the log."""
        self.retention.retire_backup(backup)

    # ------------------------------------------------------------- inspection

    def oracle_state(self):
        return self.oracle.state()

    def dirty_page_count(self) -> int:
        return len(self.cm.dirty_pages())

    def __repr__(self):
        return (
            f"Database(pages={self.layout.total_pages()}, "
            f"policy={self.cm.policy.name}, log_end={self.log.end_lsn})"
        )
