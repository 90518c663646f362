"""Recoverability verification: explainable states and order violations.

Two complementary checkers:

* :func:`diff_states` — operational correctness: after recovery the state
  must equal the oracle (the state produced by applying every logged
  operation in order during normal execution).

* :func:`find_order_violations` — the *structural* condition of section 2:
  for a stable state (S or a backup B) plus the log suffix available for
  its recovery, report every read-write installation edge O → P such that
  P's update is present in the state while O's effects are neither present
  nor reconstructible (no later physical/identity record covers O's
  targets).  This is exactly the condition that makes the Figure 1 backup
  unrecoverable, and is the predicate the paper's protocol maintains
  vacuously false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ids import LSN, PageId
from repro.ops.base import OperationKind
from repro.storage.page import PageVersion
from repro.wal.records import LogRecord


@dataclass
class RecoveryOutcome:
    """Result of a recovery run — the one return type of every recovery
    entry point on :class:`~repro.db.Database` (``recover``,
    ``media_recover``, ``finish_instant_restore``,
    ``media_recover_chain``, ``restore_to_lsn``, ``recover_partition``,
    ``selective_recover``), built in one place
    (:func:`repro.recovery.pipeline.conclude_recovery`).

    ``kind`` names the recovery flavour (``"crash"``, ``"media"`` — also
    an instant restore, which is byte-identical to it —
    ``"media-chain"`` — also a point-in-time restore — ``"partition"``,
    ``"selective"``);
    ``faults_survived`` counts the injected storage/WAL faults (see
    :mod:`repro.sim.faults`) the run lived through before this recovery
    verified; ``analysis`` carries the taint analysis for selective
    recovery, ``None`` otherwise.

    ``state`` is the replay state, not the store: the quarantine seeds
    plus the pages redo wrote, in every flavour.  Read a recovered page
    through the database (``db.read``, ``db.stable``).

    ``quarantined`` is the degraded-mode report of the corruption layer:
    pages for which *no* intact copy existed anywhere (every backup
    generation damaged, no log path to rebuild).  A recovery with
    quarantined pages is degraded but honest — the pages are excluded
    from verification instead of silently restored wrong, and ``ok``
    still holds for the rest of the store.
    """

    state: Dict[PageId, PageVersion]
    replayed: int
    skipped: int
    poisoned: List[PageId]
    diffs: List[Tuple[PageId, Any, Any]] = field(default_factory=list)
    kind: str = ""
    faults_survived: int = 0
    analysis: Optional[Any] = None  # TaintAnalysis for kind="selective"
    quarantined: List[PageId] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs and not self.poisoned

    @property
    def degraded(self) -> bool:
        """Recovery succeeded for all but the quarantined pages."""
        return self.ok and bool(self.quarantined)

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        kind = f"{self.kind} " if self.kind else ""
        faults = (
            f" faults_survived={self.faults_survived}"
            if self.faults_survived
            else ""
        )
        quarantined = (
            f" quarantined={len(self.quarantined)}" if self.quarantined else ""
        )
        if self.degraded:
            status = "DEGRADED"
        return (
            f"{kind}recovery {status}: redone={self.replayed} "
            f"skipped={self.skipped} diffs={len(self.diffs)} "
            f"poisoned={len(self.poisoned)}{faults}{quarantined}"
        )


def diff_states(
    recovered: Mapping[PageId, PageVersion],
    expected: Mapping[PageId, Any],
    initial_value: Any = None,
) -> List[Tuple[PageId, Any, Any]]:
    """(page, recovered_value, expected_value) for every mismatch."""
    diffs = []
    pages = set(recovered) | set(expected)
    for page in sorted(pages):
        rec = recovered[page].value if page in recovered else initial_value
        exp = expected.get(page, initial_value)
        if rec != exp:
            diffs.append((page, rec, exp))
    return diffs


@dataclass(frozen=True)
class OrderViolation:
    """Read-write edge O → P enforced for S but broken in the state."""

    reader_lsn: LSN  # O: the operation whose replay is now impossible
    writer_lsn: LSN  # P: the operation whose update is present
    page: PageId  # the contested page (in readset(O) ∩ writeset(P))
    lost_targets: Tuple[PageId, ...]  # O's targets with no recovery source


def find_order_violations(
    state: Mapping[PageId, PageVersion],
    records: Sequence[LogRecord],
    initial_value: Any = None,
) -> List[OrderViolation]:
    """Structural unrecoverability check for ``state`` + ``records``.

    ``records`` must be the log suffix available to recover ``state``
    (crash log from the truncation point, or the media log for a backup).
    """

    def page_lsn(page: PageId) -> LSN:
        version = state.get(page)
        return version.page_lsn if version is not None else 0

    # A page is "covered" after LSN L if some record > L writes it blindly
    # (physical/identity) — its value is then reconstructible from the log
    # regardless of replay inputs.
    blind_writes: Dict[PageId, List[LSN]] = {}
    for record in records:
        if record.op.is_blind:
            for page in record.op.writeset:
                blind_writes.setdefault(page, []).append(record.lsn)

    def covered_after(page: PageId, lsn: LSN) -> bool:
        return any(b > lsn for b in blind_writes.get(page, ()))

    violations: List[OrderViolation] = []
    by_lsn = {r.lsn: r for r in records}
    # For each record P whose update is present in the state, find earlier
    # readers O of pages P wrote whose own effects are absent and
    # uncovered.  Readers accumulate — the installation-graph definition
    # conflicts a read with EVERY later writer of the page.
    readers: Dict[PageId, List[LSN]] = {}
    for record in records:
        op = record.op
        for page in op.writeset:
            if page_lsn(page) >= record.lsn:
                # P's update to `page` is present in the state.
                for reader_lsn in readers.get(page, ()):
                    reader = by_lsn[reader_lsn].op
                    lost = tuple(
                        sorted(
                            t
                            for t in reader.writeset
                            if page_lsn(t) < reader_lsn
                            and not covered_after(t, reader_lsn)
                        )
                    )
                    if lost:
                        violations.append(
                            OrderViolation(
                                reader_lsn, record.lsn, page, lost
                            )
                        )
        for page in op.readset:
            readers.setdefault(page, []).append(record.lsn)
    return violations


# --------------------------------------------------------- trace timelines


def render_timeline(events, max_redo_ops: int = 8) -> str:
    """Render a captured trace (see :mod:`repro.obs`) as a causal timeline.

    Events print chronologically, indented by span nesting; runs of
    ``redo_op`` events are elided beyond ``max_redo_ops`` per burst.  The
    footer links every injected fault to the recovery phases that later
    observed damage (``verify`` with diffs/poison, ``complete`` with
    ``ok=False``) — the first question a failed recoverability sweep
    asks: *which* injection broke *which* recovery.
    """
    from repro.obs import events as ev

    lines: List[str] = []
    depth = 0
    redo_run = 0
    faults: List[Any] = []
    observed: List[Any] = []

    def fmt(event) -> str:
        inner = " ".join(f"{k}={v}" for k, v in event.fields.items())
        return f"[{event.seq:>4}] +{event.t * 1000:9.3f}ms  {event.kind}  {inner}"

    for event in events:
        if event.kind == ev.REDO_OP:
            redo_run += 1
            if redo_run == max_redo_ops + 1:
                lines.append("  " * depth + "        ... (redo ops elided)")
            if redo_run > max_redo_ops:
                continue
        elif redo_run:
            redo_run = 0
        if event.kind == ev.SPAN_END:
            depth = max(depth - 1, 0)
        lines.append("  " * depth + fmt(event))
        if event.kind == ev.SPAN_BEGIN:
            depth += 1
        if event.kind == ev.FAULT_INJECTED:
            faults.append(event)
        if event.kind in (
            ev.CORRUPTION_DETECTED,
            ev.CHAIN_FALLBACK,
            ev.QUARANTINE,
        ):
            # Corruption observations and the healing actions taken for
            # them belong in the causality footer: they are how a
            # bit-flip injection links to the recovery that absorbed it.
            observed.append(event)
        if event.kind == ev.RECOVERY_PHASE:
            phase = event.get("phase")
            damaged = (
                phase == "verify"
                and (event.get("diffs", 0) or event.get("poisoned", 0))
            ) or (phase == "complete" and event.get("ok") is False)
            if damaged:
                observed.append(event)

    if faults:
        lines.append("")
        lines.append("causality:")
        for fault in faults:
            lines.append(
                f"  fault [{fault.seq}] {fault.get('kind')} at "
                f"{fault.get('point')} (io #{fault.get('io')})"
            )
            later = [o for o in observed if o.seq > fault.seq]
            if later:
                for obs in later:
                    if obs.kind == ev.RECOVERY_PHASE:
                        detail = " ".join(
                            f"{k}={v}"
                            for k, v in obs.fields.items()
                            if k not in ("kind", "phase")
                        )
                        lines.append(
                            f"    -> observed by {obs.get('kind')} recovery "
                            f"phase {obs.get('phase')!r} [{obs.seq}] {detail}"
                        )
                    else:
                        detail = " ".join(
                            f"{k}={v}" for k, v in obs.fields.items()
                        )
                        lines.append(
                            f"    -> {obs.kind} [{obs.seq}] {detail}"
                        )
            else:
                lines.append("    -> no recovery phase observed damage")
    return "\n".join(lines)
