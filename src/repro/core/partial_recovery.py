"""Partition-level media recovery (section 6.3, direction 2).

"Media failure might affect only a small part of the database.  With
logical operations, it may not be easy to determine the database part
upon which its recovery depends.  Preventing operations from having
operands from more than one partition makes a partition the unit of
media recovery."

This module implements exactly that:

* :func:`check_partition_confinement` — verifies that a log range never
  has an operation spanning partitions (the precondition);
* :func:`run_partition_media_recovery` — after losing ONE partition,
  restore just that partition from a backup and roll forward replaying
  only the operations that touch it.  Pages of healthy partitions are
  never read or written.

If the log contains a cross-partition operation touching the failed
partition, the function refuses with
:class:`~repro.errors.RecoveryError` — recovering would require pages
from other partitions whose current (newer) state may not reproduce the
needed inputs.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from repro.errors import NoBackupError, RecoveryError
from repro.ids import LSN, PageId
from repro.obs.events import RECOVERY_PHASE
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome
from repro.recovery.pipeline import run_recovery
from repro.storage.backup_db import BackupDatabase
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord


def op_partitions(record: LogRecord) -> set:
    op = record.op
    return {p.partition for p in (op.readset | op.writeset)}


def check_partition_confinement(
    log: LogManager, from_lsn: LSN = 1
) -> List[LogRecord]:
    """All records whose operation spans more than one partition."""
    return [
        record
        for record in log.scan(max(from_lsn, log.first_retained_lsn))
        if len(op_partitions(record)) > 1
    ]


def run_partition_media_recovery(
    stable,
    partition: int,
    backup: BackupDatabase,
    log: LogManager,
    oracle: Optional[Mapping[PageId, Any]] = None,
    initial_value: Any = None,
    tracer=None,
    metrics=None,
) -> RecoveryOutcome:
    """Restore one failed partition from ``backup`` and roll it forward.

    ``stable`` must expose per-partition failure
    (:class:`repro.storage.stable_db.StableDatabase` via
    ``restore_partition_from``).
    """
    tracer = NULL_TRACER if tracer is None else tracer
    if backup is None or not backup.is_complete:
        raise NoBackupError("partition recovery requires a completed backup")
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="partition", phase="begin",
                    partition=partition, backup_id=backup.backup_id)

    # One scan of the roll-forward range: keep the operations confined
    # to the failed partition; one that spans it and any other violates
    # the precondition.
    relevant: List[LogRecord] = []
    offenders: List[LogRecord] = []
    for record in log.scan(backup.media_scan_start_lsn):
        touched = op_partitions(record)
        if partition not in touched:
            continue
        if len(touched) > 1:
            offenders.append(record)
        else:
            relevant.append(record)
    if offenders:
        raise RecoveryError(
            f"partition {partition} is not the unit of media recovery: "
            f"{len(offenders)} cross-partition operation(s), first at "
            f"LSN {offenders[0].lsn}"
        )

    # Restore just the failed partition's pages from the backup image,
    # then roll forward only the operations confined to it.
    versions = [
        (pid, ver)
        for pid, ver in backup.iter_pages()
        if pid.partition == partition
    ]
    return run_recovery(
        "partition",
        versions,
        relevant,
        stable=stable,
        restore=lambda pages, initial: stable.restore_partition_from(
            partition, dict(pages), initial
        ),
        expected=(
            None
            if oracle is None
            else {
                pid: value
                for pid, value in oracle.items()
                if pid.partition == partition
            }
        ),
        initial_value=initial_value,
        tracer=tracer,
        metrics=metrics,
        phase_fields={"restore": dict(
            scan_start_lsn=backup.media_scan_start_lsn, pages=len(versions)
        )},
    )
