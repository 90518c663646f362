"""Crash (system-failure) recovery: redo over the stable database.

After a crash the volatile cache is gone; S plus the durable log prefix
must reconstruct the current state.  Recovery is the shared pipeline
(:func:`repro.recovery.pipeline.run_recovery`) with S itself as the base
— read page by page where redo looks, never copied — and the durable log
from the scan-start (truncation) point as the slice, replayed in LSN
order — and, when an oracle is supplied, verified against it.

Corruption handling: pages the caller has identified as damaged (stable
checksum failures with no backup to heal from) are passed as
``quarantine``; they are seeded as POISON so replay either rebuilds them
from blind records or honestly propagates the loss into
``RecoveryOutcome.quarantined``.  ``rebuild_from_log=True`` ignores the
stable image entirely and replays the full retained log against an empty
initial state — the full-history rebuild used when the log still reaches
back to LSN 1, which is sound by construction (it is exactly how the
oracle state is produced).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.ids import LSN, PageId
from repro.obs.events import RECOVERY_PHASE
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome
from repro.recovery.pipeline import run_recovery
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager


def run_crash_recovery(
    stable: StableDatabase,
    log: LogManager,
    scan_start_lsn: LSN = 1,
    oracle: Optional[Mapping[PageId, Any]] = None,
    initial_value: Any = None,
    apply_to_stable: bool = True,
    tracer=None,
    quarantine: Sequence[PageId] = (),
    rebuild_from_log: bool = False,
    metrics=None,
) -> RecoveryOutcome:
    """Recover the current state from S and the durable log.

    When ``apply_to_stable`` is True the recovered page versions are
    written back into S (as a real system's redo pass would), making S
    equal to the recovered current state.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="crash", phase="begin",
                    scan_start_lsn=scan_start_lsn)
    # Doublewrite scan first: roll back any torn multi-page install so
    # redo starts from an atomically consistent stable state.
    with tracer.span("recovery.crash.repair_torn"):
        repaired = stable.repair_torn()
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="crash", phase="repair_torn",
                    rolled_back=repaired)
    return run_recovery(
        "crash",
        # S already holds the base.  Rebuild: an empty one — every page
        # reads as the initial value and the full log replay
        # reconstructs the store.
        {} if rebuild_from_log else stable,
        log.durable_scan(scan_start_lsn),
        stable=stable if apply_to_stable else None,
        seeds=quarantine,
        expected=oracle,
        initial_value=initial_value,
        tracer=tracer,
        metrics=metrics,
    )
