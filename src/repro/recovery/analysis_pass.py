"""The analysis pass: reconstruct recovery state from the log alone.

Real redo recovery (ARIES-style) starts with an *analysis* scan: find
the most recent checkpoint, rebuild the dirty-page table from it plus
the records that follow, and derive the redo scan start.  This module
supplies that pass so crash recovery does not depend on any volatile
bookkeeping surviving the crash:

* :func:`analyze_log` — one backward+forward scan producing an
  :class:`AnalysisResult` (last checkpoint, reconstructed dirty-page
  table upper bound, redo scan start, counts);
* :func:`run_analyzed_crash_recovery` — analysis + redo, the fully
  self-contained recovery path (used by ``Database.recover`` when asked
  for ``from_log_only``).

The reconstructed dirty-page table is an upper bound: a page counts as
possibly-dirty from its first update record after the checkpoint (or
its checkpointed recLSN) until the end — flushes are not logged, so
analysis cannot remove pages.  That only widens the redo scan, never
narrows it; the LSN redo test makes the extra records harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.ids import LSN, PageId
from repro.obs.events import RECOVERY_PHASE
from repro.obs.tracer import NULL_TRACER
from repro.recovery.crash_recovery import run_crash_recovery
from repro.recovery.explain import RecoveryOutcome
from repro.storage.stable_db import StableDatabase
from repro.wal.checkpoint import CheckpointOp
from repro.wal.log_manager import LogManager


@dataclass
class AnalysisResult:
    checkpoint_lsn: Optional[LSN]
    redo_scan_start: LSN
    dirty_page_table: Dict[PageId, LSN] = field(default_factory=dict)
    records_analyzed: int = 0

    def summary(self) -> str:
        checkpoint = (
            f"checkpoint@{self.checkpoint_lsn}"
            if self.checkpoint_lsn
            else "no checkpoint"
        )
        return (
            f"analysis: {checkpoint}, redo from {self.redo_scan_start}, "
            f"{len(self.dirty_page_table)} possibly-dirty pages, "
            f"{self.records_analyzed} records"
        )


def analyze_log(log: LogManager) -> AnalysisResult:
    """Reconstruct the recovery starting state from the durable log."""
    # Backward pass: locate the most recent durable checkpoint.
    checkpoint_record = None
    for record in log.durable_scan(log.first_retained_lsn):
        if isinstance(record.op, CheckpointOp):
            checkpoint_record = record

    dirty: Dict[PageId, LSN] = {}
    if checkpoint_record is not None:
        dirty.update(checkpoint_record.op.dirty_table)
        forward_start = checkpoint_record.lsn + 1
    else:
        forward_start = log.first_retained_lsn

    # Forward pass: every page updated after the checkpoint is possibly
    # dirty from its first such record.
    analyzed = 0
    for record in log.durable_scan(forward_start):
        analyzed += 1
        for page in record.op.writeset:
            dirty.setdefault(page, record.lsn)

    if dirty:
        redo_start = min(dirty.values())
    elif checkpoint_record is not None:
        redo_start = checkpoint_record.lsn + 1
    else:
        redo_start = log.first_retained_lsn
    return AnalysisResult(
        checkpoint_lsn=(
            checkpoint_record.lsn if checkpoint_record is not None else None
        ),
        redo_scan_start=redo_start,
        dirty_page_table=dirty,
        records_analyzed=analyzed,
    )


def run_analyzed_crash_recovery(
    stable: StableDatabase,
    log: LogManager,
    oracle: Optional[Mapping[PageId, Any]] = None,
    initial_value: Any = None,
    tracer=None,
    metrics=None,
) -> RecoveryOutcome:
    """Analysis pass + redo pass, self-contained from S and the log."""
    tracer = NULL_TRACER if tracer is None else tracer
    with tracer.span("recovery.analysis"):
        analysis = analyze_log(log)
    if tracer.enabled:
        tracer.emit(
            RECOVERY_PHASE,
            kind="analysis",
            phase="analysis",
            checkpoint_lsn=analysis.checkpoint_lsn,
            redo_scan_start=analysis.redo_scan_start,
            dirty_pages=len(analysis.dirty_page_table),
        )
    return run_crash_recovery(
        stable,
        log,
        scan_start_lsn=analysis.redo_scan_start,
        oracle=oracle,
        initial_value=initial_value,
        tracer=tracer,
        metrics=metrics,
    )
