"""FIG5 (per-step) — measured Prob_m{log} at each backup step m.

Section 5 derives the per-step probabilities before averaging:

* general: ``Prob_m{log} = m/N``
* tree:    ``Prob_m{log} = (m/N)(1 − (m−1)/N) − 1/(2N²)``

This bench measures both at every step of an N=8 backup and overlays
the closed forms — a finer-grained validation than the Figure 5 average.
"""

import pytest

from repro.core import analysis
from repro.core.config import BackupConfig
from repro.db import Database
from repro.harness.reporting import format_table
from repro.sim.runner import InterleavedRun
from repro.workloads import fresh_copy_workload

STEPS = 8


def measure_steps(kind, pages=2048, seeds=(1, 2, 3, 4)):
    decisions = {}
    iwof = {}
    for seed in seeds:
        policy = "tree" if kind == "tree" else "general"
        db = Database(pages_per_partition=[pages], policy=policy)
        workload = fresh_copy_workload(
            db.layout,
            seed=seed,
            tree_ops=(kind == "tree"),
            is_clean=lambda p: not db.cm.is_dirty(p),
        )
        run = InterleavedRun(
            db, workload, seed=seed, ops_per_tick=3, installs_per_tick=3,
            backup=BackupConfig(steps=STEPS, pages_per_tick=8),
        )
        result = run.run(max_ticks=20_000)
        assert result.backup is not None
        for step, count in db.metrics.decisions_by_step.items():
            decisions[step] = decisions.get(step, 0) + count
            iwof[step] = iwof.get(step, 0) + db.metrics.iwof_by_step.get(
                step, 0
            )
    return {
        step: iwof.get(step, 0) / total
        for step, total in sorted(decisions.items())
    }


@pytest.fixture(scope="module")
def per_step():
    return {
        "general": measure_steps("general"),
        "tree": measure_steps("tree"),
    }


class TestPerStepCurves:
    def test_print_per_step_table(self, per_step):
        print()
        print(f"FIG5 (per step) — measured Prob_m(log) at N={STEPS}")
        rows = []
        for m in range(1, STEPS + 1):
            rows.append(
                (
                    m,
                    per_step["general"].get(m, float("nan")),
                    analysis.general_step_probability(m, STEPS),
                    per_step["tree"].get(m, float("nan")),
                    analysis.tree_step_probability(m, STEPS),
                )
            )
        print(
            format_table(
                ["step m", "general meas", "general calc",
                 "tree meas", "tree calc"],
                rows,
            )
        )

    def test_general_rises_linearly_with_step(self, per_step):
        measured = per_step["general"]
        for m in range(1, STEPS + 1):
            assert measured[m] == pytest.approx(
                analysis.general_step_probability(m, STEPS), abs=0.12
            ), f"step {m}"

    def test_tree_is_unimodal_and_matches(self, per_step):
        measured = per_step["tree"]
        for m in range(1, STEPS + 1):
            assert measured[m] == pytest.approx(
                analysis.tree_step_probability(m, STEPS), abs=0.12
            ), f"step {m}"
        # The tree curve peaks mid-backup and falls at both ends.
        values = [measured[m] for m in range(1, STEPS + 1)]
        peak = values.index(max(values))
        assert 1 <= peak <= STEPS - 2
        assert values[0] < max(values)
        assert values[-1] < max(values)

    def test_benchmark_one_seed(self, benchmark):
        result = benchmark.pedantic(
            lambda: measure_steps("general", pages=512, seeds=(1,)),
            rounds=2,
            iterations=1,
        )
        assert result
