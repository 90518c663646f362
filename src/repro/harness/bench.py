"""SIM-PERF benchmark driver with a persisted baseline file.

Runs the hot-path benchmark suite (the same scenarios as
``benchmarks/test_simulator_performance.py``) with a plain
``perf_counter`` harness and appends one labelled entry to a JSON
baseline file (default ``BENCH_hotpath.json``).  Each entry records the
environment, the git revision, and per-benchmark timing statistics;
entries after the first also record their speedup relative to the
*first* entry in the file, so committing a seed ("before") entry and a
current ("after") entry documents an optimization's effect.

Usage::

    python -m repro bench --rounds 40 --label after
    python benchmarks/run_bench.py --label seed --output BENCH_hotpath.json
    python -m repro bench --compare after integrity-envelopes
    python -m repro bench --check --output results/bench_ci.json

Speedups are computed on the per-benchmark *minimum* round time — the
standard robust statistic for microbenchmarks, insensitive to GC pauses
and scheduler noise that inflate means.

``--compare A B`` reads two labelled entries back out of the baseline
file and prints a per-benchmark min_ms table with the B-over-A speedup —
no benchmarks are run.  ``--check`` runs the suite and then gates it:
the run fails (non-zero exit) if any benchmark's min_ms exceeds its
noise envelope — with >= 3 accumulated entries, the historical mean
plus ``max(3 * stdev, 2%)`` of that benchmark's own min_ms history;
with fewer entries, a flat ``--gate-threshold`` (default 25%) over the
most recent entry of ``--baseline`` that has that benchmark, or a
specific entry named with ``--baseline-label``.  The gate deliberately
tracks the *accepted current* baseline rather than the all-time best:
old entries may predate feature costs that are now part of the contract
(the integrity envelopes, for instance), and all-time bests measured on
different hardware would make the threshold meaningless.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.storage.api import BACKENDS

DEFAULT_OUTPUT = "BENCH_hotpath.json"
DEFAULT_ROUNDS = 40
WARMUP_ROUNDS = 3


# --------------------------------------------------------------- benchmarks
#
# Each factory performs one-time setup and returns the callable timed per
# round.  The scenarios deliberately mirror the pytest-benchmark suite in
# benchmarks/test_simulator_performance.py so numbers are comparable.


def _bench_copy_chain_checkpoint() -> Callable[[], object]:
    from repro.db import Database
    from repro.workloads import copy_chain_workload

    db = Database(pages_per_partition=[256], policy="general")

    def run() -> int:
        for op in copy_chain_workload(
            db.layout, seed=2, count=150, chain_length=8
        ):
            db.execute(op)
        return db.checkpoint()

    return run


def _bench_backup_sweep() -> Callable[[], object]:
    from repro.core.config import BackupConfig
    from repro.db import Database

    db = Database(pages_per_partition=[4096], policy="general")
    cfg = BackupConfig(steps=8, pages_per_tick=256)

    def run() -> int:
        db.engine.completed.clear()
        db.start_backup(cfg)
        backup = db.run_backup(cfg)
        if backup.copied_count() != 4096:
            raise AssertionError("sweep did not copy every page")
        return backup.copied_count()

    return run


def _bench_mixed_execute() -> Callable[[], object]:
    from repro.db import Database
    from repro.workloads import mixed_logical_workload

    db = Database(pages_per_partition=[512], policy="general")
    source = mixed_logical_workload(db.layout, seed=1, count=10**9)

    def run() -> int:
        for _ in range(200):
            db.execute(next(source))
        return db.checkpoint()

    return run


def _bench_replay() -> Callable[[], object]:
    from repro.db import Database
    from repro.recovery.crash_recovery import run_crash_recovery
    from repro.workloads import mixed_logical_workload

    db = Database(pages_per_partition=[256], policy="general")
    for op in mixed_logical_workload(db.layout, seed=3, count=3000):
        db.execute(op)
    db.crash()

    def run() -> object:
        outcome = run_crash_recovery(
            db.stable, db.log, scan_start_lsn=1, apply_to_stable=False
        )
        if outcome.replayed + outcome.skipped != 3000:
            raise AssertionError("replay missed records")
        return outcome

    return run


def _bench_partition_sweep_file() -> Callable[[], object]:
    """Full backup sweep against the file-backed storage backend.

    Four partitions of 64 pages, one sweep thread; the cost per span is
    a real ``os.pread``, so these numbers document what the protocol
    surface costs on actual files.  The factory builds one database in a
    throwaway directory, removed at interpreter exit.
    """
    import atexit
    import shutil
    import tempfile

    from repro.core.config import BackupConfig
    from repro.db import Database

    data_dir = tempfile.mkdtemp(prefix="bench-file-")
    atexit.register(shutil.rmtree, data_dir, True)
    db = Database(pages_per_partition=[64, 64, 64, 64], policy="general",
                  backend="file", data_dir=data_dir)
    cfg = BackupConfig(steps=4, pages_per_tick=256)

    def run() -> int:
        db.engine.completed.clear()
        db.start_backup(cfg)
        backup = db.run_backup(cfg)
        if backup.copied_count() != 256:
            raise AssertionError("sweep did not copy every page")
        return backup.copied_count()

    return run


def _bench_log_append_force_file() -> Callable[[], object]:
    """Append+force against an fsynced on-disk log file.

    One caller thread appends 240 records and forces after each, so
    every force is a real ``os.fsync`` through
    :class:`~repro.storage.file_backend.FileLogDevice`: what is measured
    is the device cost of a force-per-commit pattern on one log.
    """
    import atexit
    import shutil
    import tempfile

    from repro.ids import PageId
    from repro.ops.physical import PhysicalWrite
    from repro.storage.file_backend import FileLogDevice
    from repro.wal.log_manager import LogManager

    wal_dir = tempfile.mkdtemp(prefix="bench-wal-")
    atexit.register(shutil.rmtree, wal_dir, True)
    ops = 240

    def run() -> int:
        log = LogManager(auto_force=False)
        log.attach_device(FileLogDevice(wal_dir, truncate=True))
        for i in range(ops):
            log.append(PhysicalWrite(PageId(0, i % 64), i))
            log.force()
        if log.flushed_lsn != ops:
            raise AssertionError("log not fully durable after forces")
        log.device.close()
        return log.flushed_lsn

    return run


def _bench_instant_restore(mode: str) -> Callable[[], object]:
    """Time-to-first-query vs time-to-full-restore after media failure.

    One database of 64 partitions x 64 pages (4096 pages), a completed
    backup, and a post-backup update tail.  ``mode="ttfq"`` measures the
    instant-restore promise: fail the media, begin the restore, and read
    one page — the work is a single page's backup fetch plus its
    media-log slice, independent of database size.  ``mode="full"``
    measures the same failure driven to a complete restore (begin + one
    on-demand read + the bulk drain).  The acceptance bar is
    ``ttfq * 5 <= full`` at this scale; in practice the gap is orders of
    magnitude because TTFQ is O(1 page) while the full restore is
    O(database).
    """
    from repro.core.config import BackupConfig
    from repro.db import Database
    from repro.ids import PageId
    from repro.ops.physical import PhysicalWrite

    partitions, size = 64, 64
    db = Database(pages_per_partition=[size] * partitions, policy="general")
    for p in range(partitions):
        for s in range(size):
            db.execute(PhysicalWrite(PageId(p, s), (p, s)))
    db.start_backup(BackupConfig(steps=4, pages_per_tick=1024))
    db.run_backup(BackupConfig(pages_per_tick=1024))
    for i in range(256):
        db.execute(PhysicalWrite(PageId(i % partitions, i % size), ("post", i)))
    probe = PageId(partitions // 2, size // 2)

    def run_ttfq() -> object:
        db.media_failure()
        db.begin_instant_restore(verify=False)
        value = db.read(probe)
        if value is None:
            raise AssertionError("probe page read nothing")
        return value

    def run_full() -> object:
        db.media_failure()
        manager = db.begin_instant_restore(verify=False)
        db.read(probe)
        outcome = db.finish_instant_restore()
        if not manager.complete:
            raise AssertionError("full restore missed pages")
        return outcome.replayed

    return run_ttfq if mode == "ttfq" else run_full


def _bench_incremental_sweep() -> Callable[[], object]:
    """Incremental archive sweep at 10% churn on a 4096-page database.

    The archive tier's scaling claim: an incremental generation costs
    pages-dirtied, not database-size — in pages copied and in time, as
    the sweep plans from the copy set and never visits the positions it
    skips.  Setup seeds all 64x64 pages and seals a base full backup;
    each round dirties ~10% of the pages (409 ``execute`` calls, timed
    with the round), runs an incremental sweep, and pins the copy set —
    every dirtied page captured, and at least 5x fewer pages than the
    full sweep would copy.  The chain is trimmed back to the base
    between rounds so every round measures exactly one link.
    """
    import random

    from repro.core.config import BackupConfig
    from repro.db import Database
    from repro.ids import PageId
    from repro.ops.physical import PhysicalWrite

    partitions, size = 64, 64
    total = partitions * size
    churn = total // 10
    db = Database(pages_per_partition=[size] * partitions, policy="general")
    for p in range(partitions):
        for s in range(size):
            db.execute(PhysicalWrite(PageId(p, s), (p, s)))
    db.start_backup(BackupConfig(steps=4, pages_per_tick=1024))
    db.run_backup(BackupConfig(pages_per_tick=1024))
    rng = random.Random(99)
    round_no = [0]

    def run() -> object:
        del db.engine.completed[1:]  # keep the base; measure one link
        round_no[0] += 1
        dirtied = set()
        while len(dirtied) < churn:
            dirtied.add(PageId(rng.randrange(partitions),
                               rng.randrange(size)))
        for pid in dirtied:
            db.execute(PhysicalWrite(pid, ("churn", round_no[0])))
        db.start_backup(BackupConfig(steps=4, pages_per_tick=1024,
                                     incremental=True))
        copied = db.run_backup(
            BackupConfig(pages_per_tick=1024)
        ).copied_count()
        if copied < churn:
            raise AssertionError(
                f"incremental sweep missed dirtied pages: {copied}/{churn}"
            )
        if copied * 5 > total:
            raise AssertionError(
                f"incremental sweep copied {copied} of {total} pages; "
                "expected at least 5x fewer than a full sweep"
            )
        return copied

    return run


BENCHMARKS: Dict[str, Callable[[], Callable[[], object]]] = {
    "copy_chain_checkpoint": _bench_copy_chain_checkpoint,
    "backup_sweep": _bench_backup_sweep,
    "mixed_execute": _bench_mixed_execute,
    "replay": _bench_replay,
    "instant_restore_ttfq": lambda: _bench_instant_restore("ttfq"),
    "instant_restore_full": lambda: _bench_instant_restore("full"),
    "incremental_sweep": _bench_incremental_sweep,
    "partition_sweep_file_serial": _bench_partition_sweep_file,
    "log_append_force_file": _bench_log_append_force_file,
}

#: Benchmarks that hit the file-backed storage backend (real fds and
#: fsyncs).  ``--backend memory`` (the default) skips them so a casual
#: bench run stays free of filesystem noise; ``--backend file`` runs
#: only them; ``--backend all`` runs everything.
FILE_BENCHMARKS = frozenset(
    name for name in BENCHMARKS if "_file" in name
)


# ------------------------------------------------------------------- timing


def time_benchmark(
    factory: Callable[[], Callable[[], object]],
    rounds: int,
    warmup: int = WARMUP_ROUNDS,
) -> Dict[str, float]:
    """Time ``rounds`` calls of the factory's callable; stats in ms."""
    run = factory()
    for _ in range(warmup):
        run()
    timings: List[float] = []
    perf_counter = time.perf_counter
    for _ in range(rounds):
        start = perf_counter()
        run()
        timings.append(perf_counter() - start)
    timings_ms = [t * 1000.0 for t in timings]
    return {
        "rounds": rounds,
        "min_ms": round(min(timings_ms), 4),
        "median_ms": round(statistics.median(timings_ms), 4),
        "mean_ms": round(statistics.fmean(timings_ms), 4),
        "stdev_ms": round(
            statistics.stdev(timings_ms) if rounds > 1 else 0.0, 4
        ),
    }


# -------------------------------------------------------------- environment


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def collect_environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
    }


# ------------------------------------------------------------- persistence


def _load(path: str) -> Dict:
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError(f"{path} is not a benchmark baseline file")
        return data
    return {
        "benchmark": "SIM-PERF hot paths",
        "statistic": "speedups computed on min_ms",
        "entries": [],
    }


def _speedups(baseline: Dict, current: Dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, stats in current.items():
        base = baseline.get(name)
        if base and base.get("min_ms") and stats.get("min_ms"):
            out[name] = round(base["min_ms"] / stats["min_ms"], 2)
    return out


# ------------------------------------------------------- compare / gate

#: Default regression-gate tolerance: fail a min_ms more than 25% above
#: the gate baseline's.
REGRESSION_THRESHOLD = 0.25


def _entry_by_label(data: Dict, label: str) -> Dict:
    matches = [e for e in data.get("entries", [])
               if e.get("label") == label]
    if not matches:
        known = sorted({e.get("label", "?") for e in data.get("entries", [])})
        raise ValueError(
            f"no entry labelled {label!r} in baseline file (have: {known})"
        )
    return matches[-1]


def compare_entries(
    path: str,
    label_a: str,
    label_b: str,
    quiet: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Compare two labelled entries of a baseline file, benchmark by
    benchmark.

    Returns ``{benchmark: {"a_min_ms", "b_min_ms", "speedup"}}`` over the
    benchmarks both entries ran; ``speedup`` > 1 means B is faster than
    A.  When two entries share a label the most recent one wins.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no baseline file at {path}")
    data = _load(path)
    entry_a = _entry_by_label(data, label_a)
    entry_b = _entry_by_label(data, label_b)
    results_a = entry_a.get("results", {})
    results_b = entry_b.get("results", {})
    rows: Dict[str, Dict[str, float]] = {}
    for name, stats_a in results_a.items():
        stats_b = results_b.get(name)
        if not stats_b:
            continue
        a_ms, b_ms = stats_a.get("min_ms"), stats_b.get("min_ms")
        if not a_ms or not b_ms:
            continue
        rows[name] = {
            "a_min_ms": a_ms,
            "b_min_ms": b_ms,
            "speedup": round(a_ms / b_ms, 2),
        }
    if not quiet:
        width = max((len(n) for n in rows), default=9)
        print(f"{path}: '{label_a}' vs '{label_b}' (min_ms)")
        print(f"  {'benchmark'.ljust(width)}  {label_a[:12]:>12}  "
              f"{label_b[:12]:>12}  speedup")
        for name, row in rows.items():
            print(f"  {name.ljust(width)}  {row['a_min_ms']:>12.4f}  "
                  f"{row['b_min_ms']:>12.4f}  {row['speedup']:>6.2f}x")
        only_a = sorted(set(results_a) - set(rows))
        only_b = sorted(set(results_b) - set(rows))
        if only_a:
            print(f"  (only in '{label_a}': {', '.join(only_a)})")
        if only_b:
            print(f"  (only in '{label_b}': {', '.join(only_b)})")
    return rows


def check_regressions(
    results: Dict[str, Dict[str, float]],
    baseline_path: str = DEFAULT_OUTPUT,
    baseline_label: Optional[str] = None,
    threshold: float = REGRESSION_THRESHOLD,
    quiet: bool = False,
) -> List[str]:
    """The CI regression gate.  Returns the benchmarks that regressed.

    With three or more accumulated entries for a benchmark the limit is
    a **noise envelope scaled to that benchmark's own history**:
    ``mean + max(3 * stdev, 2% of mean)`` over the historical min_ms
    values — a stable benchmark gets a tight gate, a noisy one
    (thread-scheduling benchmarks, for instance) automatically gets the
    slack it needs.  With fewer than three entries (or when
    ``baseline_label`` pins the gate to one entry) it falls back to the
    flat ``threshold`` (default 25%) over the most recent entry's
    min_ms.  Benchmarks with no baseline number are reported as new and
    always pass.
    """
    if not os.path.exists(baseline_path):
        raise FileNotFoundError(f"no baseline file at {baseline_path}")
    data = _load(baseline_path)
    entries = data.get("entries", [])
    if baseline_label is not None:
        entries = [_entry_by_label(data, baseline_label)]
    history: Dict[str, List[float]] = {}
    for entry in entries:
        for name, stats in entry.get("results", {}).items():
            if stats.get("min_ms"):
                history.setdefault(name, []).append(stats["min_ms"])
    failures: List[str] = []
    for name, stats in results.items():
        ms = stats.get("min_ms")
        if not ms:
            continue
        past = history.get(name)
        if not past:
            if not quiet:
                print(f"  gate {name}: {ms} ms (new benchmark, no baseline)")
            continue
        if len(past) >= 3:
            mean = statistics.fmean(past)
            spread = statistics.stdev(past)
            limit = mean + max(3.0 * spread, 0.02 * mean)
            described = (f"envelope over {len(past)} entries "
                         f"(mean {mean:.4f} ms, stdev {spread:.4f} ms)")
        else:
            base = past[-1]
            limit = base * (1.0 + threshold)
            described = f"baseline {base} ms (flat {threshold:.0%} gate)"
        ok = ms <= limit
        if not quiet:
            print(f"  gate {name}: {ms} ms vs {described} "
                  f"(limit {limit:.4f} ms) {'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(name)
    return failures


def run_suite(
    rounds: int = DEFAULT_ROUNDS,
    label: str = "current",
    output: str = DEFAULT_OUTPUT,
    only: Optional[List[str]] = None,
    quiet: bool = False,
    note: Optional[str] = None,
    backend: str = "memory",
) -> Dict:
    """Run the suite, append an entry to ``output``, return the entry.

    ``note`` attaches a free-form annotation to the entry — e.g. what
    changed since the previous entry and the measured overhead delta.
    ``backend`` filters the suite: ``"memory"`` (default) runs the
    simulated hot paths, ``"file"`` the :data:`FILE_BENCHMARKS`,
    ``"all"`` both.  An explicit ``only`` list bypasses the filter.
    """
    if backend not in (*BACKENDS, "all"):
        raise ValueError(f"unknown backend filter: {backend!r}")
    if only:
        names = list(only)
    else:
        names = [
            n for n in BENCHMARKS
            if backend == "all"
            or (n in FILE_BENCHMARKS) == (backend == "file")
        ]
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmark(s): {unknown}")
    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        if not quiet:
            print(f"  {name} ... ", end="", flush=True)
        results[name] = time_benchmark(BENCHMARKS[name], rounds)
        if not quiet:
            print(
                f"min {results[name]['min_ms']} ms, "
                f"median {results[name]['median_ms']} ms"
            )
    data = _load(output)
    entry: Dict = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": collect_environment(),
        "results": results,
    }
    if note:
        entry["note"] = note
    if data["entries"]:
        first = data["entries"][0]
        entry["baseline_label"] = first["label"]
        entry["speedup_vs_baseline"] = _speedups(
            first.get("results", {}), results
        )
    data["entries"].append(entry)
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")
    if not quiet:
        if "speedup_vs_baseline" in entry:
            print(
                f"speedup vs '{entry['baseline_label']}':",
                json.dumps(entry["speedup_vs_baseline"]),
            )
        print(f"wrote entry '{label}' to {output}")
    return entry


# -------------------------------------------------------------------- CLI


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the SIM-PERF hot-path benchmarks and append the "
        "results to a persisted baseline file.",
    )
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help=f"timed rounds per benchmark (default {DEFAULT_ROUNDS})",
    )
    parser.add_argument(
        "--label", default="current",
        help="label for this entry (e.g. 'seed', 'after')",
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT,
        help=f"baseline JSON file to append to (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--only", action="append", choices=sorted(BENCHMARKS),
        help="run only this benchmark (repeatable)",
    )
    parser.add_argument(
        "--note", default=None,
        help="free-form annotation stored on the entry",
    )
    parser.add_argument(
        "--backend", choices=(*BACKENDS, "all"), default="memory",
        help="which benchmarks to run: the simulated hot paths (memory, "
        "default), the file-backed storage benchmarks (file), or both "
        "(all)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("LABEL_A", "LABEL_B"), default=None,
        help="compare two labelled entries of the baseline file and exit "
        "(runs no benchmarks)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="after running, gate min_ms against --baseline; exit non-zero "
        "on any regression past --gate-threshold",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_OUTPUT,
        help="baseline file the --check gate reads "
        f"(default {DEFAULT_OUTPUT}); keep --output pointed elsewhere so "
        "a gated run never pollutes its own baseline",
    )
    parser.add_argument(
        "--baseline-label", default=None,
        help="gate against this labelled entry instead of the most recent",
    )
    parser.add_argument(
        "--gate-threshold", type=float, default=REGRESSION_THRESHOLD,
        help="allowed fractional min_ms regression before --check fails "
        f"(default {REGRESSION_THRESHOLD})",
    )
    args = parser.parse_args(argv)
    if args.compare:
        compare_entries(args.output, args.compare[0], args.compare[1])
        return 0
    entry = run_suite(
        rounds=args.rounds,
        label=args.label,
        output=args.output,
        only=args.only,
        note=args.note,
        backend=args.backend,
    )
    if args.check:
        failures = check_regressions(
            entry["results"],
            baseline_path=args.baseline,
            baseline_label=args.baseline_label,
            threshold=args.gate_threshold,
        )
        if failures:
            print(f"REGRESSION GATE FAILED: {', '.join(failures)}")
            return 1
        print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
