"""Selective redo: recovery that excludes a corrupting source (§6.3).

The paper's third future direction:

    "Media recovery can protect against some application errors that
    corrupt the database.  In this case, we may not recover the latest
    database state, but a state that excludes the effects of the
    corrupting application.  This is difficult now.  Can we support
    this in a general way?"

This module implements a sound answer for the operation model of this
library.  Given a predicate marking *directly corrupt* log records
(e.g. everything logged by one application after some point), it

1. computes the **taint closure**: an operation is excluded if it is
   directly corrupt or if it *read* a page whose current value was
   produced by an excluded operation.  A kept operation's writes are
   computed from untainted inputs, so they cleanse their target pages;
2. restores from a backup that predates the corruption and replays only
   the kept records — producing exactly "a state that excludes the
   effects of the corrupting application";
3. refuses (``RecoveryError``) when exclusion is impossible from the
   given backup: some directly-corrupt record is at or before the
   backup's completion point, so its effects may already be inside the
   backup image.

The taint closure is the honest price of logical operations: a copy
that consumed corrupt data spreads the corruption, and this analysis
reports precisely which innocent operations had to be sacrificed
(``collateral`` in the result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import NoBackupError, RecoveryError
from repro.ids import LSN, PageId
from repro.obs.events import RECOVERY_PHASE
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome
from repro.recovery.pipeline import run_recovery
from repro.storage.backup_db import BackupDatabase
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord


@dataclass
class TaintAnalysis:
    """Result of the taint-closure computation."""

    directly_corrupt: List[LSN] = field(default_factory=list)
    collateral: List[LSN] = field(default_factory=list)
    tainted_pages_at_end: Set[PageId] = field(default_factory=set)

    @property
    def excluded(self) -> Set[LSN]:
        return set(self.directly_corrupt) | set(self.collateral)


def compute_taint(
    records,
    corrupt: Callable[[LogRecord], bool],
    group_of: Optional[Callable[[LogRecord], Optional[str]]] = None,
) -> TaintAnalysis:
    """Taint closure over a record sequence (see module docstring).

    ``group_of`` (optional) names an atomicity group per record —
    typically the transaction tag.  When any record of a group becomes
    collateral, the *whole group* is excluded (a half-excluded transfer
    would violate transaction atomicity).  Computed to a fixpoint, since
    excluding a group reclassifies its earlier records.
    """
    excluded_groups: Set[str] = set()
    while True:
        analysis = TaintAnalysis()
        tainted: Set[PageId] = set()
        grew = False
        for record in records:
            op = record.op
            group = group_of(record) if group_of is not None else None
            if corrupt(record):
                analysis.directly_corrupt.append(record.lsn)
                tainted |= op.writeset
            elif group is not None and group in excluded_groups:
                analysis.collateral.append(record.lsn)
                tainted |= op.writeset
            elif op.readset & tainted:
                analysis.collateral.append(record.lsn)
                tainted |= op.writeset
                if group is not None and group not in excluded_groups:
                    excluded_groups.add(group)
                    grew = True
            else:
                # Kept operation: its outputs derive from untainted
                # inputs (or from the log record itself, for blind
                # writes) and cleanse the pages they overwrite.
                tainted -= op.writeset
        if not grew:
            analysis.tainted_pages_at_end = tainted
            return analysis


def expected_state_excluding(
    log: LogManager,
    excluded: Set[LSN],
    initial_value: Any = None,
) -> Dict[PageId, Any]:
    """The oracle of the corruption-free history: apply kept records in
    order to an empty state (verification aid)."""
    state: Dict[PageId, Any] = {}
    for record in log.scan(log.first_retained_lsn):
        if record.lsn in excluded:
            continue
        op = record.op
        reads = {pid: state.get(pid, initial_value) for pid in op.readset}
        for pid, value in op.apply(reads).items():
            state[pid] = value
    return state


def run_selective_redo(
    stable,
    backup: BackupDatabase,
    log: LogManager,
    corrupt: Callable[[LogRecord], bool],
    to_lsn: Optional[LSN] = None,
    initial_value: Any = None,
    verify: bool = True,
    group_of: Optional[Callable[[LogRecord], Optional[str]]] = None,
    tracer=None,
    metrics=None,
) -> RecoveryOutcome:
    """Restore from ``backup`` and roll forward excluding the taint.

    ``group_of`` enables transaction-atomic exclusion (see
    :func:`compute_taint`).
    """
    tracer = NULL_TRACER if tracer is None else tracer
    if backup is None or not backup.is_complete:
        raise NoBackupError("selective redo requires a completed backup")
    target = log.end_lsn if to_lsn is None else to_lsn
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="selective", phase="begin",
                    backup_id=backup.backup_id, target_lsn=target)

    records = list(log.scan(backup.media_scan_start_lsn, target))
    with tracer.span("recovery.selective.taint"):
        analysis = compute_taint(records, corrupt, group_of=group_of)
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="selective", phase="analysis",
                    directly_corrupt=len(analysis.directly_corrupt),
                    collateral=len(analysis.collateral))

    if analysis.directly_corrupt:
        first = analysis.directly_corrupt[0]
        if (
            backup.completion_lsn is not None
            and first <= backup.completion_lsn
        ):
            raise RecoveryError(
                f"corrupt record LSN {first} is at or before the backup's "
                f"completion LSN {backup.completion_lsn}: its effects may "
                "already be inside the backup image — use an older backup"
            )
    # Corruption before the scanned range cannot be excluded either.
    pre_range = [
        record
        for record in log.scan(log.first_retained_lsn,
                               backup.media_scan_start_lsn - 1)
        if corrupt(record)
    ]
    if pre_range:
        raise RecoveryError(
            f"corrupt record LSN {pre_range[0].lsn} precedes the backup's "
            "media-log scan start — use an older backup"
        )

    # Off-line restore, then roll forward the kept records only.
    excluded = analysis.excluded
    outcome = run_recovery(
        "selective",
        backup.iter_pages(),
        (record for record in records if record.lsn not in excluded),
        stable=stable,
        restore=stable.restore_from,
        expected=(
            expected_state_excluding(log, excluded, initial_value)
            if verify and to_lsn is None
            else None
        ),
        initial_value=initial_value,
        tracer=tracer,
        metrics=metrics,
        phase_fields={
            "restore": dict(scan_start_lsn=backup.media_scan_start_lsn),
            "redo": dict(excluded=len(excluded)),
        },
    )
    outcome.analysis = analysis
    return outcome
