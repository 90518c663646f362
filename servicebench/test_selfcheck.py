"""Self-check of the benchmark harness (pytest; not part of tier-1).

    python -m pytest servicebench/test_selfcheck.py -q

Runs the suite at ``--quick`` size, so it checks the harness's
invariants — determinism of counters, completeness of the output,
span bookkeeping — not any timing.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from run import load_spec, workload_names  # noqa: E402  (path set above)

SPEC = load_spec()
WORKLOADS = workload_names(SPEC)
#: End-to-end metrics that are counts, so exact for a seed.
EXACT_END_TO_END = ("log_bytes_per_op",)
QUICK_SECONDS = SPEC["run_seconds"] / 20


def quick_suite(label: str, seed: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--seed", str(seed), "--label", label],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    path = os.path.join(HERE, "out", f"{label}.json")
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    os.remove(path)
    os.remove(os.path.join(HERE, "out", f"{label}.spans.jsonl"))
    return proc.stdout, document


@pytest.fixture(scope="module")
def two_runs():
    return quick_suite("selfcheck-a", 0), quick_suite("selfcheck-b", 0)


def by_pass(document):
    return {
        (r["detail"]["workload"], r["detail"]["trace"]): r
        for r in document["runs"]
    }


def test_every_declared_name_is_reported(two_runs):
    (stdout, document), _ = two_runs
    assert document["quick"] is True
    runs = by_pass(document)
    for workload in WORKLOADS:
        assert f"== {workload}" in stdout
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            metrics = runs[workload, trace]["report"]["metrics"]
            assert list(metrics) == [m["name"] for m in SPEC[section]]
            for m in SPEC[section]:
                assert metrics[m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert m["name"] in stdout
        assert all(
            runs[w, 0]["report"]["metrics"][m["name"]]["value"] > 0
            for w in WORKLOADS
        ), m["name"]


def test_counters_repeat_exactly(two_runs):
    (_, first), (_, second) = two_runs
    a, b = by_pass(first), by_pass(second)
    for workload in WORKLOADS:
        reference = a[workload, 0]
        assert reference["report"]["correct"], reference["detail"]
        for run in (a[workload, 1], b[workload, 0], b[workload, 1]):
            assert run["detail"]["counters"] == reference["detail"]["counters"]
            assert run["detail"]["ops"] == reference["detail"]["ops"]
            assert run["report"]["failed"] == reference["report"]["failed"] == 0
            assert run["report"]["attempted"] == reference["report"]["attempted"]
            assert run["detail"]["checks"] == []
        for name in EXACT_END_TO_END:
            assert (
                b[workload, 0]["report"]["metrics"][name]
                == reference["report"]["metrics"][name]
            )


def test_self_time_fits_in_the_wall(two_runs):
    (_, document), _ = two_runs
    for (workload, trace), run in by_pass(document).items():
        if not trace:
            continue
        metrics = run["report"]["metrics"]
        self_ms = sum(
            m["value"] for name, m in metrics.items()
            if name.endswith(".self_ms")
        )
        assert 0 < self_ms <= run["detail"]["timed_s"] * 1e3, workload
        assert metrics["db.execute.calls"]["value"] > 0
        assert metrics["trace.overhead_frac"]["value"] > -0.5


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_the_op_stream(name, tmp_path):
    from workloads import WORKLOADS as classes

    streams = []
    for seed in (0, 0, 1):
        w = classes[name](seed, QUICK_SECONDS)
        w.prepare(str(tmp_path / f"data{len(streams)}"))
        streams.append(repr(w.segments))
        w.close()
    assert streams[0] == streams[1]
    assert streams[0] != streams[2]


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrappers_are_removed_after_the_traced_pass(name, tmp_path):
    import harness
    from tracing import SpanRecorder
    from workloads import WORKLOADS as classes

    w = classes[name](0, QUICK_SECONDS)
    w.prepare(str(tmp_path / "data"))
    rec = SpanRecorder()
    result = harness.run_pass(w, QUICK_SECONDS, rec)
    assert result["per_layer"]["db.execute.calls"] > 0
    db = w.db
    layers = [
        db, db.cm, db.cm.graph, db.cm.policy, db.log, db.stable, db.engine,
        db.storage, getattr(w, "store", None), db.archive, db.log.device,
    ]
    for layer in layers:
        if layer is None:
            continue
        shadows = [
            attr for attr, value in vars(layer).items()
            if getattr(value, "__name__", "") == "wrapper"
        ]
        assert shadows == [], (type(layer).__name__, shadows)
    w.close()
