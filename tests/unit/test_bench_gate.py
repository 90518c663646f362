"""Unit tests for the bench regression gate (repro.harness.bench).

The gate's noise envelope must scale to each benchmark's own history:
with three or more accumulated entries the limit is
``mean + max(3 * stdev, 2% of mean)`` of the historical min_ms values;
with fewer it falls back to the flat threshold over the newest entry.
"""

import json

import pytest

from repro.harness.bench import BENCHMARKS, check_regressions


def _baseline(path, series):
    """Write a baseline file whose entries carry ``series`` per name.

    ``series`` maps benchmark name -> list of historical min_ms values;
    the i-th entry holds the i-th value of every series long enough.
    """
    depth = max(len(v) for v in series.values())
    entries = []
    for i in range(depth):
        results = {
            name: {"min_ms": values[i]}
            for name, values in series.items()
            if i < len(values)
        }
        entries.append({"label": f"e{i}", "results": results})
    path.write_text(json.dumps({"entries": entries}))
    return str(path)


def test_flat_gate_with_sparse_history(tmp_path):
    path = _baseline(tmp_path / "b.json", {"bench": [10.0, 11.0]})
    # 25% over the newest entry (11.0): limit 13.75.
    assert check_regressions({"bench": {"min_ms": 13.0}}, path,
                             quiet=True) == []
    assert check_regressions({"bench": {"min_ms": 14.0}}, path,
                             quiet=True) == ["bench"]


def test_envelope_scales_to_noisy_history(tmp_path):
    # Noisy history: mean 100, stdev ~10 => limit ~130.  A flat 25% gate
    # against the newest entry (90) would wrongly fail 115.
    path = _baseline(tmp_path / "b.json",
                     {"bench": [110.0, 100.0, 90.0]})
    assert check_regressions({"bench": {"min_ms": 115.0}}, path,
                             quiet=True) == []
    assert check_regressions({"bench": {"min_ms": 140.0}}, path,
                             quiet=True) == ["bench"]


def test_envelope_is_tight_for_stable_history(tmp_path):
    # Near-zero stdev: the 2%-of-mean floor applies, so a 25% regression
    # that the flat gate would wave through now fails.
    path = _baseline(tmp_path / "b.json",
                     {"bench": [100.0, 100.0, 100.0, 100.0]})
    assert check_regressions({"bench": {"min_ms": 101.0}}, path,
                             quiet=True) == []
    assert check_regressions({"bench": {"min_ms": 110.0}}, path,
                             quiet=True) == ["bench"]


def test_baseline_label_pins_flat_gate(tmp_path):
    path = _baseline(tmp_path / "b.json",
                     {"bench": [100.0, 50.0, 50.0]})
    # Pinned to e0 (100.0): flat gate, 120 passes despite the newer 50s.
    assert check_regressions({"bench": {"min_ms": 120.0}}, path,
                             baseline_label="e0", quiet=True) == []
    # Unpinned: envelope over [100, 50, 50] (limit ~153) fails 160.
    assert check_regressions({"bench": {"min_ms": 160.0}}, path,
                             quiet=True) == ["bench"]


def test_new_benchmark_passes_without_history(tmp_path):
    path = _baseline(tmp_path / "b.json", {"bench": [10.0]})
    assert check_regressions({"fresh": {"min_ms": 99.0}}, path,
                             quiet=True) == []


def test_missing_baseline_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        check_regressions({"bench": {"min_ms": 1.0}},
                          str(tmp_path / "absent.json"), quiet=True)


def test_retired_baseline_benchmark_is_not_gated(tmp_path):
    # A name the baseline still carries but the current run no longer
    # produces (a deleted benchmark) neither fails nor blocks the gate.
    path = _baseline(tmp_path / "b.json",
                     {"bench": [10.0, 10.0, 10.0],
                      "retired": [1.0, 1.0, 1.0]})
    assert check_regressions({"bench": {"min_ms": 10.0}}, path,
                             quiet=True) == []


def test_append_force_benchmark_registered():
    assert "log_append_force_file" in BENCHMARKS
