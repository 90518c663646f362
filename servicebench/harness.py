"""The service loop, the recovery drills, and the metric reduction.

One *pass* runs a prepared workload: for each cycle, a timed forward
segment (closed loop, one client, zero think time, background duty
in-line) followed by three timed recovery drills, each verified against
the oracle outside the clock.  ``run_pass(w, rec=None)`` is the untraced
pass; with a :class:`~tracing.SpanRecorder` it is the traced pass.
"""

from __future__ import annotations

import gc
import resource
import statistics
from array import array
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.core.analysis import tree_extra_logging
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.recovery.explain import diff_states

from tracing import SpanRecorder
from workloads import BACKUP_STEPS, Workload

#: A forward segment stops early once it has run this many times its
#: share of ``--seconds``: a slower machine yields a truncated (and
#: flagged) run instead of a harness timeout.
DEADLINE_FACTOR = 4.0

#: Forward timings are reduced block by block and the median block is
#: reported: ``ops_per_s`` over blocks of THROUGHPUT_BLOCK consecutive ops
#: (background duty included), ``op_p50_us`` / ``op_p99_us`` over blocks
#: of LATENCY_BLOCK (ten samples beyond each block's p99).  On a shared
#: sandbox the host's slow phases last seconds: pooled over the whole
#: run, a mean moves with every stall and a tail percentile is made of
#: the slowest phase alone; the median block is neither.
THROUGHPUT_BLOCK = 100
LATENCY_BLOCK = 1000

#: Name prefix of the spans the harness opens around each timed region.
ROOT_SPAN = "timed."

RECOVERY_METRICS = (
    "crash_recover_ms", "media_recover_ms",
    "restore_ttfq_ms", "restore_full_ms",
)

#: Spans the program's own tracer times (read from
#: ``Metrics.phase_summary()``), by the name they are reported under.
PROGRAM_SPANS = {
    "recovery.crash.repair_torn": ("recovery.crash.repair_torn",),
    "recovery.crash.redo": ("recovery.crash.redo",),
    "recovery.media.restore": (
        "recovery.media.restore", "recovery.media_chain.restore",
    ),
    "recovery.media.redo": (
        "recovery.media.redo", "recovery.media_chain.redo",
    ),
}

#: Counters that are exact for a seed: equal on every run and on both
#: passes.  ``Metrics.snapshot()`` field -> reported name.
METRIC_COUNTERS = {
    "cache_hits": "cache.hits",
    "cache_misses": "cache.misses",
    "page_flushes": "cache.page_flushes",
    "node_installs": "cache.node_installs",
    "multi_page_installs": "cache.multi_page_installs",
    "flush_decisions_during_backup": "policy.decisions",
    "iwof_during_backup": "policy.iwof",
    "backup_pages_copied": "backup_engine.pages_copied",
    "backup_bulk_reads": "backup_engine.bulk_reads",
    "backups_completed": "backup_engine.backups_completed",
}


def blocks(values, size: int):
    """Consecutive full blocks of ``size`` values (one short block when
    there are fewer values than that, as at ``--quick`` sizes)."""
    size = min(size, len(values))
    return [
        values[i:i + size] for i in range(0, len(values) - size + 1, size)
    ]


def median_block_quantile(sorted_blocks, q: float) -> float:
    """Median over latency blocks of each (sorted) block's ``q`` quantile."""
    return statistics.median(
        block[int(q * len(block))] for block in sorted_blocks
    )


def service_loop(w: Workload, ops, lat: array, budget_s: float):
    """Run one forward segment; returns ``(wall, done, failures)``.

    The response time of op *i* is ``t_done(i) - t_done(i-1)``, so a
    background tick scheduled ahead of an op is the stall that op's
    client sees.  An op that raises is a counted failure, never a
    harness error.
    """
    tick, do_op = w.tick, w.do_op
    failures: List[str] = []
    done = 0
    start = t_prev = perf_counter()
    deadline = start + budget_s
    for i, op in enumerate(ops):
        tick(i)
        try:
            do_op(op)
        except Exception as exc:  # boundary: count it and keep serving
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        now = perf_counter()
        lat.append(now - t_prev)
        t_prev = now
        done += 1
        if now > deadline:
            break
    return t_prev - start, done, failures


def run_pass(
    w: Workload, seconds: float, rec: Optional[SpanRecorder] = None
) -> Dict[str, Any]:
    db = w.db
    lat = array("d")
    forward_s = drill_s = 0.0
    ops_done = log_bytes = 0
    truncated = False
    samples: Dict[str, List[float]] = {name: [] for name in RECOVERY_METRICS}
    attempted = 0
    failures: List[str] = []
    replayed = skipped = 0
    before = db.metrics.snapshot()
    wal_before = db.log.stats.snapshot()
    program_tracer = Tracer(metrics=db.metrics) if rec is not None else None
    span = rec.span if rec is not None else (lambda name: nullcontext())
    if rec is not None:
        w.instrument(rec)

    def timed(root: str, fn):
        """Run one recovery call on the clock, under a root span."""
        nonlocal drill_s
        with span(ROOT_SPAN + root):
            t0 = perf_counter()
            result = fn()
            elapsed = perf_counter() - t0
        drill_s += elapsed
        return elapsed * 1e3, result

    def verify(cycle: int, drill: str, outcome) -> None:
        """Stable state vs the oracle, off the clock: one attempt."""
        nonlocal attempted, replayed, skipped
        attempted += 1
        replayed += outcome.replayed
        skipped += outcome.skipped
        diffs = diff_states(
            db.stable.snapshot(), db.oracle_state(), db.initial_value
        )
        if diffs:
            pages = ", ".join(str(d[0]) for d in diffs[:8])
            failures.append(
                f"cycle {cycle} {drill} drill: {len(diffs)} pages differ "
                f"from the oracle ({pages})"
            )

    for cycle, ops in enumerate(w.segments):
        # ---- forward segment
        w.begin_segment()
        gc.collect()
        bytes_before = db.log.bytes_logged()
        with span(ROOT_SPAN + "forward"):
            wall, done, failed_ops = service_loop(
                w, ops, lat, DEADLINE_FACTOR * seconds / len(w.segments)
            )
        forward_s += wall
        ops_done += done
        attempted += done
        failures.extend(f"cycle {cycle} {f}" for f in failed_ops)
        truncated |= done < len(ops)
        log_bytes += db.log.bytes_logged() - bytes_before

        # ---- recovery drills
        if program_tracer is not None:
            db.attach_tracer(program_tracer)
        gc.collect()
        lost = db.crash()
        if lost:
            failures.append(f"cycle {cycle}: crash lost {lost} forced records")
        ms, outcome = timed("crash", lambda: db.recover(verify=False))
        samples["crash_recover_ms"].append(ms)
        verify(cycle, "crash", outcome)

        db.media_failure()
        ms, outcome = timed("media", w.media_recover)
        samples["media_recover_ms"].append(ms)
        verify(cycle, "media", outcome)

        db.media_failure()
        probe = w.probe_page(cycle)
        source = w.restore_source()

        def instant_restore():
            t0 = perf_counter()
            db.begin_instant_restore(
                backup=source, verify=False, eager=False
            )
            with span("instant.first_read"):
                db.read(probe)
            ttfq = (perf_counter() - t0) * 1e3
            return ttfq, db.finish_instant_restore()

        ms, (ttfq, outcome) = timed("instant", instant_restore)
        samples["restore_ttfq_ms"].append(ttfq)
        samples["restore_full_ms"].append(ms)
        verify(cycle, "instant", outcome)

        if program_tracer is not None:
            program_tracer.clear()
            db.attach_tracer(NULL_TRACER)
        w.after_recovery()
        if rec is not None:
            w.instrument(rec)

    checked, wrong = w.final_check()
    attempted += checked
    failures.extend(wrong)
    if rec is not None:
        rec.unwrap_all()

    after = db.metrics.snapshot()
    counters = {
        name: after[field] - before[field]
        for field, name in METRIC_COUNTERS.items()
    }
    wal_after = db.log.stats.snapshot()
    for key in ("records", "bytes", "iwof_records", "iwof_bytes"):
        counters[f"wal.{key}"] = wal_after[key] - wal_before[key]
    reads = counters["cache.hits"] + counters["cache.misses"]
    counters["cache.hit_ratio"] = counters["cache.hits"] / reads if reads else 0.0
    counters["cache.dirty_pages_max"] = w.dirty_pages_max
    counters["write_graph.ready_max"] = w.live_nodes_max
    decisions = counters["policy.decisions"]
    counters["iwof_fraction"] = (
        counters["policy.iwof"] / decisions if decisions else 0.0
    )
    counters["iwof_bound_ratio"] = (
        counters["iwof_fraction"] / tree_extra_logging(BACKUP_STEPS)
    )
    counters["archive.generations"] = w.generations
    counters["archive.compactions"] = w.compactions
    counters["recovery.redo_replayed"] = replayed
    counters["recovery.redo_skipped"] = skipped
    counters["recovery.redo_skip_ratio"] = (
        skipped / (replayed + skipped) if replayed + skipped else 0.0
    )

    throughput_blocks = blocks(lat, THROUGHPUT_BLOCK)
    latency_blocks = [sorted(block) for block in blocks(lat, LATENCY_BLOCK)]
    result: Dict[str, Any] = {
        "ops": ops_done,
        "forward_s": forward_s,
        "timed_s": forward_s + drill_s,
        "truncated": truncated,
        "attempted": attempted,
        "failures": failures,
        "counters": counters,
        "samples": {
            "ops_per_s": len(throughput_blocks),
            "op_p50_us": len(latency_blocks),
            "op_p99_us": len(latency_blocks),
            "sweep_pages_per_s": len(w.sweep_rates),
            **{name: len(values) for name, values in samples.items()},
        },
        "end_to_end": {
            "ops_per_s": statistics.median(
                len(block) / sum(block) for block in throughput_blocks
            ),
            "op_p50_us": median_block_quantile(latency_blocks, 0.50) * 1e6,
            "op_p99_us": median_block_quantile(latency_blocks, 0.99) * 1e6,
            "sweep_pages_per_s": statistics.median(w.sweep_rates),
            "log_bytes_per_op": log_bytes / ops_done,
            **{
                name: statistics.median(values)
                for name, values in samples.items()
            },
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        },
    }
    if rec is not None:
        result["per_layer"] = layer_table(rec, db, forward_s + drill_s)
    return result


def layer_table(
    rec: SpanRecorder, db, timed_s: float
) -> Dict[str, float]:
    """``<span>.calls / .self_ms / .self_frac`` for every recorded span."""
    table: Dict[str, float] = {}

    def put(span: str, calls: int, self_s: float) -> None:
        table[f"{span}.calls"] = calls
        table[f"{span}.self_ms"] = self_s * 1e3
        table[f"{span}.self_frac"] = self_s / timed_s

    for span, (calls, self_s) in rec.self_times(ROOT_SPAN).items():
        if not span.startswith(ROOT_SPAN):  # a root's self time is the
            put(span, calls, self_s)        # harness's own, not a layer's
    phases = db.metrics.phase_timings
    for span, sources in PROGRAM_SPANS.items():
        timings = [phases[s] for s in sources if s in phases]
        put(
            span,
            sum(t.count for t in timings),
            sum(t.total_s for t in timings),
        )
    return table
