"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``   reproduce every paper figure/table (``--quick`` available);
``fig5``      one Figure 5 measurement (``--kind``, ``--steps``, …);
``demo``      the quickstart flow with narration;
``selftest``  a fast end-to-end correctness pass (Figure 1 both ways,
              crash + media recovery on a mixed workload);
``bench``     the SIM-PERF hot-path benchmarks, appended to a persisted
              baseline file (``BENCH_hotpath.json``);
``faultsweep``  the storage-fault recoverability matrix: torn writes,
              transient I/O errors, and crash-at-every-I/O-point sweeps
              (``--seed``, ``--stride``, ``--quick``); exits non-zero if
              any scenario fails to recover.  ``--trace PATH`` re-runs
              every unrecovered case with a recording tracer and dumps
              the event streams to a JSONL file;
``trace``     summarize a captured JSONL trace (``--timeline`` renders
              the causal event timeline);
``scrub``     integrity scrub.  With no arguments, a self-check: build a
              demo database with backups, inject seeded bit rot into
              stable, backup, and log stores, and verify the scrubber
              detects 100% of the damage.  With ``--archive FILE`` /
              ``--log FILE``, audit shipped artifacts.  With ``--chain``,
              a chain-aware self-check: build an archive generation
              chain, verify manifest → generations → log ranges with
              per-generation ``bytes_scanned``, rot a middle generation,
              heal it, and re-verify.  Exits nonzero on fatal findings.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import analysis
from repro.harness import experiments
from repro.harness.reporting import format_table
from repro.storage.api import BACKENDS


def cmd_bench(args) -> int:
    from repro.harness import bench

    if args.compare:
        bench.compare_entries(
            args.output or bench.DEFAULT_OUTPUT,
            args.compare[0], args.compare[1],
        )
        return 0
    kwargs = {"label": args.label, "only": args.only, "note": args.note,
              "backend": args.backend}
    if args.rounds is not None:
        kwargs["rounds"] = args.rounds
    if args.output is not None:
        kwargs["output"] = args.output
    entry = bench.run_suite(**kwargs)
    if args.check:
        failures = bench.check_regressions(
            entry["results"],
            baseline_path=args.baseline or bench.DEFAULT_OUTPUT,
            baseline_label=args.baseline_label,
            threshold=(args.gate_threshold
                       if args.gate_threshold is not None
                       else bench.REGRESSION_THRESHOLD),
        )
        if failures:
            print(f"REGRESSION GATE FAILED: {', '.join(failures)}")
            return 1
        print("regression gate passed")
    return 0


def cmd_faultsweep(args) -> int:
    from repro.harness.faultsweep import dump_failure_traces, run_faultsweep

    report = run_faultsweep(
        seed=args.seed, stride=args.stride, quick=args.quick, log=print,
        backend=args.backend, data_dir=args.data_dir,
    )
    print(
        format_table(
            ["scenario", "recovered", "total", "faults", "retries"],
            [
                (r.name, r.recovered, r.total, r.faults_injected,
                 r.io_retries)
                for r in report.results
            ],
        )
    )
    verdict = "PASS" if report.all_recovered else "FAIL"
    print(
        f"faultsweep {verdict}: {report.recovered}/{report.total} "
        f"scenarios recovered (seed={report.seed})"
    )
    if args.trace and report.failures:
        dumped = dump_failure_traces(report, args.trace, log=print)
        print(f"wrote {dumped} failure trace(s) to {args.trace}")
    elif args.trace:
        print(f"no failures; {args.trace} not written")
    return 0 if report.all_recovered else 1


def cmd_trace(args) -> int:
    from repro.obs.summary import summarize
    from repro.obs.tracer import load_jsonl
    from repro.recovery.explain import render_timeline

    events = load_jsonl(args.file)
    if not events:
        print(f"{args.file}: empty trace")
        return 1
    print(summarize(events))
    if args.timeline:
        print()
        print(render_timeline(events))
    return 0


def _print_chain_report(report) -> None:
    for finding in report.findings:
        print(f"  [{finding.severity}] {finding.site}: {finding.detail}")
    if report.generations:
        print(format_table(
            ["generation", "kind", "pages", "bytes_scanned", "damaged"],
            [
                (g["backup_id"], g["kind"], g["pages"],
                 g["bytes_scanned"], len(g["damaged"]))
                for g in report.generations
            ],
        ))
    print(report.summary())


def cmd_scrub_chain(args) -> int:
    """``scrub --chain`` self-check: build a generation chain, verify it
    end-to-end (manifest → generations → log ranges), rot a middle
    generation, require detection, heal, and require a clean re-scrub
    plus a successful restore."""
    import random

    from repro import BackupConfig, Database, PhysicalWrite
    from repro.core.scrub import scrub_chain
    from repro.ids import PageId

    rng = random.Random(args.seed)
    db = Database(pages_per_partition=[32, 32], policy="general",
                  backend=args.backend, data_dir=args.data_dir)

    def burst(count):
        for _ in range(count):
            pid = PageId(rng.randrange(2), rng.randrange(32))
            db.execute(PhysicalWrite(pid, ("v", rng.randrange(10**6))))

    burst(48)
    archive = db.attach_archive(BackupConfig(steps=4))
    archive.run_full(tick=lambda: burst(2))
    burst(24)
    archive.run_incremental(tick=lambda: burst(2))
    burst(24)
    archive.run_incremental(tick=lambda: burst(2))

    clean = scrub_chain(archive)
    print("pre-injection chain scrub:")
    _print_chain_report(clean)
    if not clean.ok or clean.backups_scanned != 3:
        print("chain scrub selftest FAIL: clean chain reported damage")
        db.close()
        return 1

    middle = archive.chain()[1]
    victims = middle.copy_order()
    if not victims:
        print("chain scrub selftest FAIL: middle generation is empty")
        db.close()
        return 1
    victim = victims[rng.randrange(len(victims))]
    middle._rot_cell(victim)
    damaged = scrub_chain(archive)
    print(f"\nafter rotting {victim} in generation {middle.backup_id}:")
    _print_chain_report(damaged)
    if damaged.ok:
        print("chain scrub selftest FAIL: injected damage not detected")
        db.close()
        return 1

    heal = archive.heal_chain()
    print(f"\n{heal.summary()}")
    healed = scrub_chain(archive)
    _print_chain_report(healed)
    db.media_failure()
    outcome = db.media_recover_chain(archive.chain())
    db.close()
    if not healed.ok or not outcome.ok:
        print("chain scrub selftest FAIL: chain not clean after healing")
        return 1
    print("chain scrub selftest PASS: damage detected, healed, restored")
    return 0


def cmd_scrub(args) -> int:
    from repro.core.scrub import scrub_archive, scrub_database, scrub_log_file

    if args.chain:
        return cmd_scrub_chain(args)

    if args.archive or args.log_file:
        ok = True
        for path, scrub in (
            (args.archive, scrub_archive), (args.log_file, scrub_log_file)
        ):
            if not path:
                continue
            report = scrub(path)
            for finding in report.findings:
                print(f"  [{finding.severity}] {finding.site}: "
                      f"{finding.detail}")
            print(report.summary())
            ok = ok and report.ok
        return 0 if ok else 1

    # Self-check: build a store with backups, inject seeded bit rot into
    # every store, and require the scrubber to detect all of it.
    import random

    from repro import BackupConfig, Database, PhysicalWrite
    from repro.ids import PageId

    db = Database(pages_per_partition=[32], policy="general",
                  backend=args.backend, data_dir=args.data_dir)
    for slot in range(16):
        db.execute(PhysicalWrite(PageId(0, slot), ("record", slot)))
    db.start_backup(BackupConfig(steps=4))
    db.run_backup()
    clean = scrub_database(db)
    print(f"pre-injection: {clean.summary()}")
    if clean.findings:
        print("scrub selftest FAIL: clean store reported damage")
        return 1
    rng = random.Random(args.seed)
    injected = {
        "stable": db.stable._bitrot(rng),
        "backup": db.latest_backup()._bitrot(rng),
        "log": db.log._bitrot(rng),
    }
    report = scrub_database(db)
    for finding in report.findings:
        print(f"  [{finding.severity}] {finding.site}: {finding.detail}")
    print(report.summary())
    sites_found = {
        f.site for f in report.findings if f.severity == "fatal"
    }
    missed = [
        site for site, landed in injected.items()
        if landed and site not in sites_found
    ]
    db.close()
    if missed:
        print(
            "scrub selftest FAIL: injected damage not detected at: "
            + ", ".join(missed)
        )
        return 1
    print("scrub selftest PASS: all injected damage detected")
    return 0


def cmd_fig5(args) -> int:
    point = experiments.fig5_measure(
        args.kind, args.steps, pages=args.pages, seed=args.seed
    )
    print(
        format_table(
            ["kind", "steps", "measured", "analytic", "samples"],
            [
                (
                    point.kind,
                    point.steps,
                    point.measured,
                    point.analytic,
                    point.samples,
                )
            ],
        )
    )
    return 0


def cmd_figures(args) -> int:
    # Delegate to the example script's logic without importing examples/
    # (which is not a package): re-run its sections here.
    rows = analysis.figure5_series()
    print("Closed forms (Figure 5):")
    print(
        format_table(
            ["steps N", "general", "tree"],
            rows,
        )
    )
    print()
    for kind in ("naive", "engine"):
        outcome = experiments.fig1_scenario(kind)
        status = "OK" if outcome.recovered else "FAILED"
        print(f"FIG1 {kind:7s}: media recovery {status}")
    print()
    sweep = experiments.fig5_sweep(
        step_counts=(1, 2, 4, 8) if args.quick else (1, 2, 4, 8, 16, 32),
        seeds=(1,) if args.quick else (1, 2, 3),
        pages=512 if args.quick else 1024,
    )
    print("FIG5 (measured):")
    print(
        format_table(
            ["kind", "steps", "measured", "analytic"],
            [(p.kind, p.steps, p.measured, p.analytic) for p in sweep],
        )
    )
    return 0


def cmd_demo(args) -> int:
    from repro import BackupConfig, CopyOp, Database, PhysicalWrite
    from repro.ids import PageId

    db = Database(pages_per_partition=[64], policy="general")
    print("seeding pages and running logical operations...")
    for slot in range(8):
        db.execute(PhysicalWrite(PageId(0, slot), ("record", slot)))
    db.start_backup(BackupConfig(steps=4))
    counter = 0
    while db.backup_in_progress():
        db.backup_step(4)
        db.execute(CopyOp(PageId(0, counter % 8), PageId(0, 8 + counter % 40)))
        db.install_some(2)
        counter += 1
    print(f"backup: {db.latest_backup()}")
    print(f"Iw/oF records: {db.metrics.iwof_records}")
    db.media_failure()
    outcome = db.media_recover()
    print(outcome.summary())
    return 0 if outcome.ok else 1


def cmd_selftest(args) -> int:
    import random

    from repro.core.config import BackupConfig
    from repro.db import Database
    from repro.workloads import mixed_logical_workload

    failures = 0

    naive = experiments.fig1_scenario("naive")
    engine = experiments.fig1_scenario("engine")
    ok = (not naive.recovered) and engine.recovered
    print(f"[{'ok' if ok else 'FAIL'}] Figure 1: naive fails, engine works")
    failures += 0 if ok else 1

    db = Database(pages_per_partition=[64], policy="general")
    rng = random.Random(0)
    source = mixed_logical_workload(db.layout, seed=0, count=100_000)
    db.start_backup(BackupConfig(steps=8))
    while db.backup_in_progress():
        db.backup_step(4)
        db.execute(next(source))
        db.install_some(2, rng)
    db.crash()
    ok = db.recover().ok
    print(f"[{'ok' if ok else 'FAIL'}] crash recovery (mixed workload)")
    failures += 0 if ok else 1

    db.start_backup(BackupConfig(steps=8))
    backup = db.run_backup()
    db.media_failure()
    ok = db.media_recover(backup=backup).ok
    print(f"[{'ok' if ok else 'FAIL'}] media recovery (mixed workload)")
    failures += 0 if ok else 1

    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Lomet (SIGMOD 2000): high speed on-line "
            "backup with logical log operations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce the paper figures")
    figures.add_argument("--quick", action="store_true")
    figures.set_defaults(fn=cmd_figures)

    fig5 = sub.add_parser("fig5", help="one Figure 5 measurement")
    fig5.add_argument("--kind", choices=["general", "tree"], default="tree")
    fig5.add_argument("--steps", type=int, default=8)
    fig5.add_argument("--pages", type=int, default=1024)
    fig5.add_argument("--seed", type=int, default=1)
    fig5.set_defaults(fn=cmd_fig5)

    demo = sub.add_parser("demo", help="quickstart flow")
    demo.set_defaults(fn=cmd_demo)

    selftest = sub.add_parser("selftest", help="fast end-to-end checks")
    selftest.set_defaults(fn=cmd_selftest)

    faultsweep = sub.add_parser(
        "faultsweep",
        help="fault-injection recoverability matrix (torn/transient/crash)",
    )
    faultsweep.add_argument("--seed", type=int, default=0)
    faultsweep.add_argument(
        "--stride", type=int, default=1,
        help="crash after every Nth I/O in the exhaustive sweep",
    )
    faultsweep.add_argument(
        "--quick", action="store_true",
        help="thin the crash sweep to ~2 dozen points",
    )
    faultsweep.add_argument(
        "--trace", metavar="PATH", default=None,
        help=(
            "on failure, re-run each unrecovered case with tracing and "
            "dump the event streams to this JSONL file"
        ),
    )
    faultsweep.add_argument(
        "--backend", choices=BACKENDS, default="memory",
        help="storage backend the sweep runs against (file = the pinned "
        "smoke matrix on real files)",
    )
    faultsweep.add_argument(
        "--data-dir", default=None,
        help="directory for the file backend's per-run data dirs "
        "(default: system tmp)",
    )
    faultsweep.set_defaults(fn=cmd_faultsweep)

    trace = sub.add_parser(
        "trace",
        help="summarize a captured JSONL trace (see faultsweep --trace)",
    )
    trace.add_argument("file", help="JSONL trace file")
    trace.add_argument(
        "--timeline", action="store_true",
        help="also render the causal event timeline",
    )
    trace.set_defaults(fn=cmd_trace)

    scrub = sub.add_parser(
        "scrub",
        help="integrity scrub (self-check, or audit archive/log files)",
    )
    scrub.add_argument("--seed", type=int, default=0)
    scrub.add_argument(
        "--archive", metavar="FILE", default=None,
        help="audit an archived backup file",
    )
    scrub.add_argument(
        "--log", dest="log_file", metavar="FILE", default=None,
        help="audit a serialized log file",
    )
    scrub.add_argument(
        "--chain", action="store_true",
        help="chain-aware self-check: verify manifest -> generations -> "
        "log ranges end-to-end, rot a middle generation, heal, re-verify",
    )
    scrub.add_argument(
        "--backend", choices=BACKENDS, default="memory",
        help="storage backend for the self-check database",
    )
    scrub.add_argument(
        "--data-dir", default=None,
        help="data directory for --backend file (default: fresh tmpdir)",
    )
    scrub.set_defaults(fn=cmd_scrub)

    from repro.harness.bench import BENCHMARKS

    bench = sub.add_parser(
        "bench",
        help="run the SIM-PERF hot-path benchmarks into a baseline file",
    )
    bench.add_argument("--rounds", type=int, default=None)
    bench.add_argument("--label", default="current")
    bench.add_argument("--output", default=None)
    bench.add_argument("--only", action="append", choices=sorted(BENCHMARKS))
    bench.add_argument(
        "--note", default=None,
        help="free-form annotation stored on the entry",
    )
    bench.add_argument(
        "--backend", choices=(*BACKENDS, "all"), default="memory",
        help="which benchmarks to run: simulated hot paths (memory, "
        "default), file-backed storage benchmarks (file), or both (all)",
    )
    bench.add_argument(
        "--compare", nargs=2, metavar=("LABEL_A", "LABEL_B"), default=None,
        help="compare two labelled entries of the baseline file and exit",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="gate min_ms against --baseline; exit non-zero on regression",
    )
    bench.add_argument("--baseline", default=None)
    bench.add_argument("--baseline-label", default=None)
    bench.add_argument("--gate-threshold", type=float, default=None)
    bench.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
