"""The trace event schema: one name + required-field set per event kind.

Every event the system emits is one of the kinds below.  The schema is
deliberately flat — a kind string plus a free-form field mapping whose
*required* keys are pinned here — so traces serialize to JSONL one event
per line and stay greppable.  :func:`validate_event` is the contract the
test suite (and :mod:`repro.obs.summary`) holds emitters to.

Field conventions:

* pages are serialized ``"P<partition>:<slot>"`` (``str(PageId)``);
* LSNs and I/O counts are plain ints;
* durations are milliseconds under the key ``ms``;
* ``recovery_phase`` events always carry ``kind`` (the recovery flavour:
  crash/media/media-chain/partition/selective/analysis) and ``phase``
  (begin / repair_torn / restore / analysis / redo / verify / complete).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

# ---------------------------------------------------------------- event kinds

#: Cache manager consulted the flush policy for one page of an install.
FLUSH_DECISION = "flush_decision"
#: An Iw/oF identity write was appended to the log.
IWOF_WRITE = "iwof_write"
#: A backup sweep began.
BACKUP_BEGIN = "backup_begin"
#: The backup process moved D/P to the next step boundary (under latch).
BACKUP_STEP_ADVANCE = "backup_step_advance"
#: A backup sealed successfully.
BACKUP_COMPLETE = "backup_complete"
#: A backup was aborted (crash or explicit abort).
BACKUP_ABORT = "backup_abort"
#: A backup latch was taken (shared by the cache manager, exclusive by
#: the backup process).
LATCH_ACQUIRE = "latch_acquire"
#: The fault plane fired an armed fault at an I/O boundary.
FAULT_INJECTED = "fault_injected"
#: One log record considered by a redo pass.
REDO_OP = "redo_op"
#: A recovery algorithm entered/finished one of its phases.
RECOVERY_PHASE = "recovery_phase"
#: The log was forced to stable storage.
LOG_FORCE = "log_force"
#: A damaged log tail was truncated at the first corrupt record.
LOG_TAIL_REPAIR = "log_tail_repair"
#: A crash dropped the unforced log tail.
LOG_TAIL_LOST = "log_tail_lost"
#: The system crashed (volatile state lost).
CRASH = "crash"
#: The stable medium failed.
MEDIA_FAILURE = "media_failure"
#: A checksummed read (page or log record) failed its integrity check.
CORRUPTION_DETECTED = "corruption_detected"
#: Recovery fell back to an older backup generation / longer redo span
#: (or truncated a damaged log tail) to heal detected corruption.
CHAIN_FALLBACK = "chain_fallback"
#: A page had no intact copy anywhere and was excluded from recovery.
QUARANTINE = "quarantine"
#: Instant restore progressed: ``phase`` is begin / page / complete
#: (``page`` restores carry ``page`` and ``source`` = on-demand for a
#: traffic-driven restore, background for the drain's bulk restore).
RESTORE_PROGRESS = "restore_progress"
#: The archive tier sealed a chain generation (``kind`` is full /
#: incremental / compacted) and recorded it in the chain manifest.
GENERATION_SEALED = "generation_sealed"
#: Compaction protocol step: ``phase`` is begin / swap / complete /
#: rollback (journal-then-swap; see docs/ARCHIVE.md).
COMPACTION = "compaction"
#: The chain healer acted on a damaged generation page: ``action`` is
#: newer-shadows / rebuild / quarantine.
CHAIN_HEAL = "chain_heal"
#: A replayed page was dropped instead of installed (e.g. outside the
#: stable layout in the quarantine-degrade path).  Carries why.
RESTORE_DROP = "restore_drop"
#: Span timers (``with tracer.span(name): ...``).
SPAN_BEGIN = "span_begin"
SPAN_END = "span_end"
#: Header line a harness writes before a captured event stream.
TRACE_HEADER = "trace_header"

#: Required fields per event kind.  Emitters may add more.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    FLUSH_DECISION: ("page", "region", "step", "needs_iwof"),
    IWOF_WRITE: ("page", "lsn"),
    BACKUP_BEGIN: ("backup_id", "steps", "batched"),
    BACKUP_STEP_ADVANCE: ("partition", "step", "done", "pending"),
    BACKUP_COMPLETE: ("backup_id", "completion_lsn"),
    BACKUP_ABORT: ("backup_id",),
    LATCH_ACQUIRE: ("partition", "mode"),
    FAULT_INJECTED: ("kind", "point", "io"),
    REDO_OP: ("lsn", "action"),
    RECOVERY_PHASE: ("kind", "phase"),
    LOG_FORCE: ("lsn",),
    LOG_TAIL_REPAIR: ("dropped", "cut_lsn"),
    LOG_TAIL_LOST: ("dropped", "cut_lsn"),
    CRASH: (),
    MEDIA_FAILURE: (),
    CORRUPTION_DETECTED: ("site",),
    CHAIN_FALLBACK: ("action",),
    QUARANTINE: ("page",),
    RESTORE_PROGRESS: ("phase",),
    GENERATION_SEALED: ("backup_id", "kind"),
    COMPACTION: ("phase",),
    CHAIN_HEAL: ("action",),
    RESTORE_DROP: ("page", "reason"),
    SPAN_BEGIN: ("span",),
    SPAN_END: ("span", "ms"),
    TRACE_HEADER: (),
}

ALL_KINDS = tuple(EVENT_FIELDS)


def validate_event(kind: str, fields: Mapping[str, object]) -> List[str]:
    """Problems with one event: unknown kind or missing required fields.

    Returns an empty list for a valid event (the form tests assert).
    """
    if kind not in EVENT_FIELDS:
        return [f"unknown event kind {kind!r}"]
    return [
        f"{kind}: missing required field {name!r}"
        for name in EVENT_FIELDS[kind]
        if name not in fields
    ]
