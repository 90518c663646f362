#!/usr/bin/env python3
"""servicebench: end-to-end service + recovery benchmark.

Two ways to run it, from the repository root:

``python3 servicebench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, one pass, in this process.  The last line of standard
    output is one JSON object ``{"correct", "attempted", "failed",
    "metrics"}``: the end-to-end metrics with ``--trace 0``, the
    per-layer metrics with ``--trace 1``.

``python3 servicebench/run.py --seed N [--quick] [--label L] [--repeat R]``
    The whole suite: every workload, untraced pass then traced pass,
    each in its own fresh subprocess; prints every metric by name with
    unit, sample count and regression bound, and writes
    ``servicebench/out/<label>.json`` (+ ``<label>.spans.jsonl``).
    ``--workload`` and ``--pass`` narrow it to one workload or one pass.

Exit status is non-zero on a harness error, never on a counted failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: Set-up runs this many times per process; ``setup_s`` is the median.
SETUP_REPEATS = 3
QUICK_DIVISOR = 20
#: Spans written per traced run to ``<label>.spans.jsonl`` (the per-layer
#: table is reduced from all of them; the file is for reading call trees).
SPANS_FILE_LIMIT = 50_000
#: Workloads the suite runs beside those of BENCHMARK.json: reported,
#: never gated (see workloads.TreeCopyFile for why).
UNGATED_WORKLOADS = ("treecopy_file",)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def workload_names(spec: dict) -> list:
    return [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS)


# ---------------------------------------------------------------------------
# One workload, one pass (the benchmark contract's entry point)
# ---------------------------------------------------------------------------


def run_workload(args, spec: dict) -> dict:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    t0 = time.perf_counter()
    import harness
    from tracing import SpanRecorder
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t0

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        # Set-up runs several times so setup_s is a median; every run
        # builds the identical store from the identical inputs.  The
        # traced pass uses the last two stores: one for its untraced
        # reference, one for the traced run itself.
        setup_times = []
        reference = None
        for index in range(SETUP_REPEATS):
            gc.collect()
            t = time.perf_counter()
            w = WORKLOADS[args.workload](args.seed, args.seconds)
            w.prepare(os.path.join(scratch, f"data{index}"))
            setup_times.append(time.perf_counter() - t)
            if index < SETUP_REPEATS - 1:
                if args.trace and index == SETUP_REPEATS - 2:
                    reference = harness.run_pass(w, args.seconds)
                w.close()
        rec = SpanRecorder() if args.trace else None
        result = harness.run_pass(w, args.seconds, rec)
        w.close()
        if args.spans_out and rec is not None:
            rec.write_jsonl(args.spans_out, SPANS_FILE_LIMIT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    counters = result["counters"]
    checks = []
    if result["truncated"]:
        checks.append("forward phase hit its deadline and was cut short")
    if args.workload.startswith("treecopy") and counters["iwof_bound_ratio"] > 1.10:
        checks.append(
            f"iwof_bound_ratio {counters['iwof_bound_ratio']:.4f} above 1.10"
        )
    if args.trace:
        differing = {
            name: (reference["counters"][name], value)
            for name, value in counters.items()
            if reference["counters"][name] != value
        }
        if differing:
            checks.append(f"counters differ between passes: {differing}")
        values = dict(result["per_layer"], **counters)
        values["trace.overhead_frac"] = (
            result["timed_s"] / reference["timed_s"] - 1.0
        )
        declared = spec["per_layer"]
        unknown = sorted(set(values) - {m["name"] for m in declared})
        if unknown:
            raise SystemExit(f"not declared in BENCHMARK.json: {unknown}")
    else:
        values = dict(
            result["end_to_end"],
            setup_s=import_s + statistics.median(setup_times),
        )
        declared = spec["end_to_end"]
    failures = result["failures"]
    return {
        "report": {
            "correct": not failures and not checks,
            "attempted": result["attempted"],
            "failed": len(failures),
            "metrics": {
                # A layer this workload never enters reports 0.
                m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                for m in declared
            },
        },
        "detail": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops": result["ops"],
            "forward_s": result["forward_s"],
            "timed_s": result["timed_s"],
            "setup_runs_s": setup_times,
            "samples": result["samples"],
            "counters": counters,
            "failures": failures,
            "checks": checks,
        },
    }


# ---------------------------------------------------------------------------
# The suite: every workload, both passes, fresh subprocess each
# ---------------------------------------------------------------------------


def environment(args, seconds: float) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None  # not a git checkout
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "seed": args.seed,
        "seconds": seconds,
        "scale": seconds / 10.0,
        "quick": args.quick,
        "repeat": args.repeat,
    }


def run_suite(args, spec: dict) -> int:
    seconds = args.seconds or spec["run_seconds"]
    if args.quick:
        seconds /= QUICK_DIVISOR
    names = [args.workload] if args.workload else workload_names(spec)
    passes = [0, 1] if args.trace is None else [args.trace]
    label = args.label or ("quick" if args.quick else "full")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{label}.spans.jsonl")
    part = spans_path + ".part"
    runs = []
    with open(spans_path, "w", encoding="utf-8") as spans:
        for _ in range(args.repeat):
            for name in names:
                for trace in passes:
                    proc = subprocess.run(
                        [
                            sys.executable, os.path.abspath(__file__),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", repr(seconds), "--trace", str(trace),
                            "--detail", "--spans-out", part,
                        ],
                        cwd=ROOT, capture_output=True, text=True,
                    )
                    if proc.returncode != 0:
                        sys.stderr.write(proc.stdout + proc.stderr)
                        print(f"harness error in {name} (trace={trace})")
                        return 1
                    run = json.loads(proc.stdout.splitlines()[-1])
                    runs.append(run)
                    print_run(run, spec)
                    if os.path.exists(part):
                        with open(part, encoding="utf-8") as src:
                            for line in src:
                                spans.write(f'{{"workload": "{name}", {line[1:]}')
                        os.remove(part)
    path = os.path.join(OUT_DIR, f"{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "label": label,
            "quick": args.quick,
            "environment": environment(args, seconds),
            "runs": runs,
        }, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)} and "
          f"{os.path.relpath(spans_path, ROOT)}"
          + ("   [quick: never compare against full runs]"
             if args.quick else ""))
    return 0


def print_run(run: dict, spec: dict) -> None:
    report, detail = run["report"], run["detail"]
    traced = detail["trace"]
    samples = dict(detail["samples"], setup_s=len(detail["setup_runs_s"]))
    print(
        f"\n== {detail['workload']}  "
        f"[{'traced' if traced else 'untraced'} pass, seed {detail['seed']}, "
        f"{detail['ops']} ops in {detail['forward_s']:.2f} s forward, "
        f"{detail['timed_s']:.2f} s timed]"
    )
    for metric in spec["per_layer" if traced else "end_to_end"]:
        name = metric["name"]
        value = report["metrics"][name]["value"]
        if traced and not value:
            continue  # layer absent from this workload
        n = f"n={samples[name]}" if name in samples else ""
        bound = (
            f"bound {metric['bound']:.0%}, {metric['better']} is better"
            if "bound" in metric else ""
        )
        print(f"  {name:<42} {value:>16.6g} {metric['unit']:<6} {n:<8} {bound}")
    if traced:
        print("  (wal.append includes the always-attached Oracle listener: "
              "not separable from outside)")
    print(
        f"  failed_frac = {report['failed']}/{report['attempted']}"
        f"   correct = {report['correct']}"
    )
    for line in detail["failures"][:20] + detail["checks"]:
        print(f"    ! {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="nominal length of the timed phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--pass", dest="pass_", choices=("untraced", "traced"),
                        help="suite: run only this pass")
    parser.add_argument("--quick", action="store_true",
                        help=f"suite: same code paths at 1/{QUICK_DIVISOR} size")
    parser.add_argument("--label", help="suite: name of the out/ files")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: run everything this many times")
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    spec = load_spec()
    known = workload_names(spec)
    if args.workload and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {known}")
    if args.pass_:
        args.trace = int(args.pass_ == "traced")

    # The contract's form names workload, seconds and trace; anything
    # less is a suite run.
    if not (args.workload and args.seconds and args.trace is not None) \
            or args.quick or args.pass_ or args.label:
        return run_suite(args, spec)
    run = run_workload(args, spec)
    for line in run["detail"]["failures"][:20] + run["detail"]["checks"]:
        print(f"! {line}")
    print(json.dumps(run if args.detail else run["report"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
