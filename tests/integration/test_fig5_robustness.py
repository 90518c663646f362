"""Integration: the Figure 5 measurement is robust to simulation knobs.

The closed forms assume uniform flush positions and steady rates; the
measured fractions should track them across different backup speeds,
flush rates, and database sizes — not just the benchmark defaults.
"""

import pytest

from repro.core import analysis
from repro.core.config import BackupConfig
from repro.harness.experiments import fig5_measure


class TestRateRobustness:
    @pytest.mark.parametrize("backup_pages_per_tick", [2, 4, 8])
    def test_general_insensitive_to_backup_speed(self, backup_pages_per_tick):
        point = fig5_measure(
            "general", steps=8, pages=768, seed=2,
            backup_pages_per_tick=backup_pages_per_tick,
        )
        assert point.measured == pytest.approx(point.analytic, abs=0.09)

    @pytest.mark.parametrize("installs_per_tick", [3, 6])
    def test_tree_matches_when_flushing_keeps_up(self, installs_per_tick):
        point = fig5_measure(
            "tree", steps=8, pages=768, seed=2,
            installs_per_tick=installs_per_tick,
        )
        assert point.measured == pytest.approx(point.analytic, abs=0.09)

    def test_lagging_flushes_skew_above_the_model(self):
        """When the cache manager cannot keep up, flushes cluster late
        in the backup where ¬Pend is likelier — measured Prob{log}
        rises above the uniform-rate closed form.  A model deviation
        the paper's §5 assumptions predict, documented here."""
        lagging = fig5_measure(
            "tree", steps=8, pages=768, seed=2, installs_per_tick=1
        )
        keeping_up = fig5_measure(
            "tree", steps=8, pages=768, seed=2, installs_per_tick=3
        )
        assert lagging.measured > keeping_up.measured
        assert lagging.measured > lagging.analytic

    @pytest.mark.parametrize("pages", [256, 512, 2048])
    def test_insensitive_to_database_size(self, pages):
        point = fig5_measure("general", steps=4, pages=pages, seed=3)
        assert point.measured == pytest.approx(point.analytic, abs=0.09)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seed_variance_is_small(self, seed):
        point = fig5_measure("tree", steps=8, pages=1024, seed=seed)
        assert point.measured == pytest.approx(point.analytic, abs=0.08)


class TestCrossPolicyOrdering:
    @pytest.mark.parametrize("steps", [2, 8, 32])
    def test_page_oriented_floor_is_zero(self, steps):
        """The degenerate policy (conventional fuzzy dump setting)
        never logs, at any step count."""
        from repro.db import Database
        from repro.sim.runner import InterleavedRun
        from repro.workloads import page_oriented_workload

        db = Database(pages_per_partition=[512], policy="page-oriented")
        run = InterleavedRun(
            db,
            page_oriented_workload(db.layout, seed=1, count=None),
            backup=BackupConfig(steps=steps, pages_per_tick=4),
        )
        result = run.run(max_ticks=10_000)
        assert result.backup is not None
        assert db.metrics.iwof_during_backup == 0

    def test_three_policy_ordering(self):
        """page (0) < tree (~0.23) < general (~0.56) at N=8 — the
        paper's hierarchy of operation-class generality vs cost."""
        general = fig5_measure("general", 8, pages=768, seed=1).measured
        tree = fig5_measure("tree", 8, pages=768, seed=1).measured
        assert 0 < tree < general
