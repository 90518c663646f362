#!/usr/bin/env python3
"""Compare two servicebench result files: ``compare.py A.json B.json``.

A is the base, B the candidate; both are ``servicebench/out/<label>.json``
files written by ``run.py`` (ideally with ``--repeat 3`` or more, the two
sides' runs alternated).  One row per (workload, end-to-end metric):
both medians with their quartiles, the ratio B/A, the bound, and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  A's own spread (IQR / median) is wider than the bound and
                the two sides' runs interleave, so the bound cannot be
                resolved — not the same as unchanged.

Exits non-zero on any ``regressed`` row or a higher ``failed_frac``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def untraced(document: dict) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for run in document["runs"]:
        if not run["detail"]["trace"]:
            runs.setdefault(run["detail"]["workload"], []).append(run["report"])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a
    q1, _, q3 = quartiles(a)
    if (q3 - q1) / med_a > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "ok"  # every B run reads better than every A run
        if not all(sign * (y - x) > 0 for x in a for y in b):
            return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def failed_frac(reports: List[dict]) -> float:
    return sum(r["failed"] for r in reports) / sum(r["attempted"] for r in reports)


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    doc_a, doc_b = load(argv[1]), load(argv[2])
    if doc_a["quick"] or doc_b["quick"]:
        print("refusing to compare --quick results: they are a smoke "
              "test, not a measurement")
        return 2
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    runs_a, runs_b = untraced(doc_a), untraced(doc_b)
    bad = 0
    print(f"A = {doc_a['label']} ({doc_a['environment']['git_rev']})   "
          f"B = {doc_b['label']} ({doc_b['environment']['git_rev']})")
    header = (f"{'workload':<15} {'metric':<18} {'A median [q1, q3]':<36} "
              f"{'B median [q1, q3]':<36} {'B/A':>7} {'bound':>6}  verdict")
    print(header)
    for workload in runs_a:
        if workload not in runs_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a[workload]]
            b = [r["metrics"][name]["value"] for r in runs_b[workload]]
            result = verdict(a, b, metric["better"], metric["bound"])
            bad += result == "regressed"
            cells = []
            for values in (a, b):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            ratio = statistics.median(b) / statistics.median(a)
            print(f"{workload:<15} {name:<18} {cells[0]:<36} {cells[1]:<36} "
                  f"{ratio:>7.3f} {metric['bound']:>6.0%}  {result}")
        frac_a, frac_b = failed_frac(runs_a[workload]), failed_frac(runs_b[workload])
        worse = frac_b > frac_a
        bad += worse
        print(f"{workload:<15} {'failed_frac':<18} {frac_a:<36.6g} "
              f"{frac_b:<36.6g} {'':>7} {'0%':>6}  "
              f"{'regressed' if worse else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
