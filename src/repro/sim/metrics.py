"""Execution counters shared by the cache manager and the backup engines.

``flush_decisions_during_backup`` / ``iwof_during_backup`` measure exactly
the quantity of section 5: the probability that an object flush requires
Iw/oF logging *while a backup is in progress*.

``phase_timings`` holds per-phase timing histograms fed by tracer spans
(see :mod:`repro.obs`): each named phase (``backup.sweep``,
``recovery.crash.redo``, …) accumulates count/total/min/max plus a
power-of-two millisecond bucket histogram.

Concurrency contract
--------------------
A ``Metrics`` instance is **not** internally locked; single-thread hot
paths increment plain attributes with zero synchronization overhead.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class PhaseTiming:
    """Timing histogram for one named phase.

    ``buckets`` maps a power-of-two millisecond bucket label
    (``"<1ms"``, ``"<2ms"``, ``"<4ms"``, …) to an observation count —
    coarse but enough to spot a bimodal phase without storing samples.
    """

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0
    buckets: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def bucket_label(seconds: float) -> str:
        ms = seconds * 1000.0
        if ms < 1.0:
            return "<1ms"
        exponent = math.ceil(math.log2(ms))
        return f"<{2 ** exponent:g}ms"

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds
        label = self.bucket_label(seconds)
        self.buckets[label] = self.buckets.get(label, 0) + 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_ms": round(self.total_s * 1000.0, 4),
            "mean_ms": round(self.mean_s * 1000.0, 4),
            "min_ms": round(
                (0.0 if self.count == 0 else self.min_s) * 1000.0, 4
            ),
            "max_ms": round(self.max_s * 1000.0, 4),
            "buckets": dict(self.buckets),
        }


@dataclass
class Metrics:
    # Cache manager.
    page_flushes: int = 0
    node_installs: int = 0
    multi_page_installs: int = 0
    identity_installs: int = 0  # hot-page Iw/oF without flushing (§5.3)
    cache_hits: int = 0
    cache_misses: int = 0

    # Backup-related logging (the paper's headline quantity).
    flush_decisions_during_backup: int = 0
    iwof_during_backup: int = 0
    iwof_records: int = 0
    iwof_bytes: int = 0
    decisions_by_region: Dict[str, int] = field(default_factory=dict)
    iwof_by_region: Dict[str, int] = field(default_factory=dict)

    # Backup engines.
    backup_pages_copied: int = 0
    backup_bulk_reads: int = 0  # contiguous runs copied by the batched sweep
    backups_completed: int = 0
    backups_aborted: int = 0
    linked_flushes: int = 0

    # Per-backup-step breakdown (step m of section 5's analysis).
    decisions_by_step: Dict[int, int] = field(default_factory=dict)
    iwof_by_step: Dict[int, int] = field(default_factory=dict)

    # Fault injection (see repro.sim.faults): injections by kind, the
    # bounded retries that survived transients, torn backup spans that
    # were resumed, and torn stable installs rolled back at recovery.
    faults_injected: Dict[str, int] = field(default_factory=dict)
    io_retries: int = 0
    simulated_backoff_s: float = 0.0
    torn_spans_resumed: int = 0
    torn_writes_repaired: int = 0

    # Records dropped by torn-tail repair (mirrors
    # LogManager.tail_repair_dropped).
    tail_repair_dropped: int = 0

    # Corruption robustness: checksum failures observed, damage healed
    # (chain fallback / tail truncation), pages given up on, and log
    # records dropped by torn-tail repair.
    corruption_detected: int = 0
    corruption_healed: int = 0
    pages_quarantined: int = 0
    log_tail_truncated: int = 0

    # Media recovery / instant restore: fallback generations rejected by
    # the selection gate (with trace events carrying why), replayed pages
    # dropped because they fell outside the stable layout, and the
    # instant-restore split between on-demand (access-triggered) page
    # restores and the pages the drain restores in bulk.  ``time_to_first_query_ms`` is
    # stamped by the RestoreManager when the first on-demand access is
    # served (0.0 until then).
    fallback_rejections: int = 0
    pages_dropped_out_of_layout: int = 0
    pages_restored_on_demand: int = 0
    pages_restored_background: int = 0
    time_to_first_query_ms: float = 0.0

    # Per-phase timing histograms, fed by tracer spans (repro.obs).
    phase_timings: Dict[str, PhaseTiming] = field(default_factory=dict)

    def record_decision(self, region: str, needs_iwof: bool, step: int) -> None:
        """Record one flush-policy consult during a backup.

        ``step`` is the partition's current backup step (1-based,
        ``PartitionProgress.steps_taken``) and is deliberately required:
        a defaulted step silently lumped every decision into a phantom
        step 0, corrupting :meth:`step_fractions` (§5's Prob_m{log}).
        """
        self.flush_decisions_during_backup += 1
        self.decisions_by_region[region] = (
            self.decisions_by_region.get(region, 0) + 1
        )
        self.decisions_by_step[step] = (
            self.decisions_by_step.get(step, 0) + 1
        )
        if needs_iwof:
            self.iwof_during_backup += 1
            self.iwof_by_region[region] = (
                self.iwof_by_region.get(region, 0) + 1
            )
            self.iwof_by_step[step] = self.iwof_by_step.get(step, 0) + 1

    def step_fractions(self) -> Dict[int, float]:
        """Measured Prob_m{log} per backup step m (section 5)."""
        return {
            step: self.iwof_by_step.get(step, 0) / total
            for step, total in sorted(self.decisions_by_step.items())
            if total
        }

    @property
    def extra_logging_fraction(self) -> float:
        """Measured Prob{log}: Iw/oF per object flush during backup."""
        if not self.flush_decisions_during_backup:
            return 0.0
        return self.iwof_during_backup / self.flush_decisions_during_backup

    # ------------------------------------------------------------ phase times

    def observe_phase(self, name: str, seconds: float) -> None:
        """Feed one span duration into the phase's timing histogram."""
        timing = self.phase_timings.get(name)
        if timing is None:
            timing = self.phase_timings[name] = PhaseTiming()
        timing.observe(seconds)

    def phase_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase timing stats (count / total / mean / min / max ms)."""
        return {
            name: timing.summary()
            for name, timing in sorted(self.phase_timings.items())
        }

    # -------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, float]:
        """Every scalar counter plus the derived headline quantities.

        Enumerated from the dataclass fields so a newly added counter
        can never be silently omitted from faultsweep/bench reports
        (pinned by a test over ``dataclasses.fields``).
        """
        out: Dict[str, float] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, (int, float)):
                out[spec.name] = value
        # Derived / aggregate quantities (dict-valued fields summarize).
        out["extra_logging_fraction"] = self.extra_logging_fraction
        out["faults_injected"] = sum(self.faults_injected.values())
        return out
