"""Media recovery: restore S from a backup B and roll forward (section 1).

The sequence is the paper's: (1) off-line restore — copy B onto the failed
medium; (2) roll forward — replay the media recovery log (the log suffix
from B's scan-start LSN) against the restored state using redo recovery.

Roll-forward can target any LSN at or after the backup's completion LSN
("to the desired time, usually the most recent committed state").  Earlier
targets are rejected: the backup is fuzzy and may already contain effects
of operations up to its completion point.

Corruption handling (self-healing): before restoring, the backup image is
verified against its integrity envelopes.  If any page is damaged the
recovery falls back to the *previous generation* in the backup chain
(``fallback``, newest first) — an older but fully intact image plus a
longer redo span, which the LSN redo test makes cost-only, never wrong.
Whole images are preferred over mixing pages across generations because a
per-page mix can hand a replayed logical operation inputs from the wrong
point in time.  Only when *no* intact generation exists does recovery
degrade: the damaged pages are seeded as POISON so replay either heals
them (a later blind physical/identity record rewrites them) or honestly
propagates the loss, and whatever remains unrecoverable is reported in
``RecoveryOutcome.quarantined`` instead of crashing or silently restoring
garbage.

The generation-selection gate (:func:`resolve_media_target` +
:func:`select_generation`) is factored out so instant restore
(:mod:`repro.recovery.instant_restore`) makes exactly the same choice the
offline path would — the equivalence property depends on it.

This module is the *gate*; the restore-and-roll-forward itself is the
shared pipeline (:func:`repro.recovery.pipeline.run_recovery`), which
streams the chosen image once onto the failed store and from there on is
crash recovery over S: redo reads the restored cells where it looks, and
the replay state holds only the pages it wrote.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NoBackupError, RecoveryError
from repro.ids import LSN, PageId
from repro.obs.events import (
    CHAIN_FALLBACK,
    CORRUPTION_DETECTED,
    RECOVERY_PHASE,
)
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome
# install_recovered_page is re-exported: it lived here before the shared
# pipeline and callers still import it from this module.
from repro.recovery.pipeline import install_recovered_page, run_recovery
from repro.storage.backup_db import BackupDatabase
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager

#: Rejection reasons emitted by :func:`_usable_fallback` (CHAIN_FALLBACK
#: ``action="reject-generation"`` events carry one of these).
REJECT_NOT_COMPLETE = "not-complete"
REJECT_PAST_TARGET = "completion-past-target"
REJECT_LOG_TRUNCATED = "log-truncated"
REJECT_DAMAGED = "damaged"


def _usable_fallback(
    older: Optional[BackupDatabase],
    target: LSN,
    log: LogManager,
    tracer,
    metrics=None,
) -> bool:
    """Can media recovery restore from this older generation?

    It must be sealed, complete at or before the roll-forward target,
    have its whole redo span still on the log, and verify clean.  A
    rejected generation is never silent: each one emits a
    ``CHAIN_FALLBACK`` event with ``action="reject-generation"`` and the
    reason, and bumps ``Metrics.fallback_rejections`` — fallback
    decisions are debuggable from traces alone.
    """
    reason = None
    if older is None or not older.is_complete:
        reason = REJECT_NOT_COMPLETE
    elif older.completion_lsn is not None and older.completion_lsn > target:
        # The older image is fuzzy up to its completion point, which lies
        # beyond the roll-forward target: it cannot serve this target.
        reason = REJECT_PAST_TARGET
    elif older.media_scan_start_lsn < log.first_retained_lsn:
        # Its redo span fell off the retained log: replaying from the
        # surviving prefix could miss updates the copy does not reflect.
        reason = REJECT_LOG_TRUNCATED
    else:
        damaged = older.damaged_pages()
        if damaged:
            if tracer.enabled:
                tracer.emit(
                    CORRUPTION_DETECTED, site="backup",
                    backup_id=older.backup_id,
                    pages=[str(p) for p in damaged],
                )
            reason = REJECT_DAMAGED
    if reason is None:
        return True
    if metrics is not None:
        metrics.fallback_rejections += 1
    if tracer.enabled:
        tracer.emit(
            CHAIN_FALLBACK, action="reject-generation", reason=reason,
            backup_id=getattr(older, "backup_id", None),
        )
    return False


def resolve_media_target(
    backup: BackupDatabase, log: LogManager, to_lsn: Optional[LSN]
) -> LSN:
    """Validate the backup and resolve the roll-forward target LSN.

    Shared by the offline path and instant restore so both reject the
    same inputs: the backup must be sealed, and the target must not
    precede its (fuzzy) completion point.
    """
    if backup is None:
        raise NoBackupError("no backup available for media recovery")
    if not backup.is_complete:
        raise NoBackupError(
            f"backup {backup.backup_id} is {backup.status.value}; media "
            "recovery requires a completed backup"
        )
    target = log.end_lsn if to_lsn is None else to_lsn
    if backup.completion_lsn is not None and target < backup.completion_lsn:
        raise RecoveryError(
            f"cannot roll forward to LSN {target}: backup completed at "
            f"{backup.completion_lsn} and is fuzzy before that point"
        )
    return target


def select_generation(
    backup: BackupDatabase,
    target: LSN,
    log: LogManager,
    fallback: Sequence[BackupDatabase] = (),
    tracer=None,
    metrics=None,
) -> Tuple[BackupDatabase, List[PageId]]:
    """The integrity gate: pick the newest intact generation.

    Returns ``(chosen, quarantine_seed)``.  ``quarantine_seed`` is empty
    unless *no* intact generation exists, in which case the newest image
    is used minus its damaged pages (the degrade path).  Reused verbatim
    by instant restore so lazy and offline recovery restore from the
    same image.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    damaged = backup.damaged_pages()
    if not damaged:
        return backup, []
    if tracer.enabled:
        tracer.emit(
            CORRUPTION_DETECTED, site="backup",
            backup_id=backup.backup_id,
            pages=[str(p) for p in damaged],
        )
    for older in fallback:
        if _usable_fallback(older, target, log, tracer, metrics):
            if tracer.enabled:
                tracer.emit(
                    CHAIN_FALLBACK, action="older-generation",
                    from_backup=backup.backup_id,
                    to_backup=older.backup_id,
                    scan_start_lsn=older.media_scan_start_lsn,
                )
            return older, []
    # No intact generation anywhere: degrade, don't crash.  The newest
    # image is used minus its damaged pages, which replay either heals
    # (blind rewrite) or proves lost.
    if tracer.enabled:
        tracer.emit(
            CHAIN_FALLBACK, action="quarantine",
            backup_id=backup.backup_id, pages=len(damaged),
        )
    return backup, damaged


def run_media_recovery(
    stable: StableDatabase,
    backup: BackupDatabase,
    log: LogManager,
    to_lsn: Optional[LSN] = None,
    oracle: Optional[Mapping[PageId, Any]] = None,
    initial_value: Any = None,
    tracer=None,
    fallback: Sequence[BackupDatabase] = (),
    metrics=None,
) -> RecoveryOutcome:
    """Restore ``stable`` from ``backup`` and roll forward to ``to_lsn``.

    ``fallback`` lists older completed backup generations, newest first;
    they are consulted (whole-image, longer redo span) when ``backup``
    fails its integrity check.  ``metrics`` (optional) receives
    fallback-rejection and dropped-page counts.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    target = resolve_media_target(backup, log, to_lsn)
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="media", phase="begin",
                    backup_id=backup.backup_id, target_lsn=target)
    # Integrity gate: pick the newest generation whose image is intact.
    chosen, quarantine_seed = select_generation(
        backup, target, log, fallback, tracer, metrics
    )
    return run_recovery(
        "media",
        chosen.iter_pages(),
        log.scan(chosen.media_scan_start_lsn, target),
        stable=stable,
        restore=stable.restore_from,
        seeds=quarantine_seed,
        expected=oracle,
        initial_value=initial_value,
        tracer=tracer,
        metrics=metrics,
        phase_fields={"restore": dict(
            backup_id=chosen.backup_id,
            scan_start_lsn=chosen.media_scan_start_lsn,
        )},
    )
