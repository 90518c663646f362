"""A-HOT — amortizing Iw/oF over hot pages (§5.3).

Two of the paper's §5.3 observations, quantified:

1. **Amortization** — "multiple updates can accumulate in each object
   before we log or flush it": under a hotspot workload, installing
   less often amortizes both flushes and Iw/oF records over more
   updates, so the extra-logging cost *per executed operation* falls
   even though the per-flush probability (Figure 5) is unchanged.

2. **Logging instead of flushing for S itself** — a hot dirty page can
   be installed by an identity write without being flushed
   (``identity_install``), advancing the log truncation point while the
   page keeps absorbing updates in the cache.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.harness.reporting import format_table
from repro.workloads.skewed import hotspot_workload


def run_with_install_rate(installs_per_tick, ops=600, seed=3):
    db = Database(pages_per_partition=[256], policy="general")
    workload = hotspot_workload(db.layout, seed=seed, count=None)
    rng = random.Random(seed)
    db.start_backup(BackupConfig(steps=8))
    executed = 0
    while db.backup_in_progress():
        db.backup_step(2)
        for _ in range(3):
            db.execute(next(workload))
            executed += 1
        db.install_some(installs_per_tick, rng)
    db.media_failure()
    assert db.media_recover().ok
    return {
        "installs_per_tick": installs_per_tick,
        "executed": executed,
        "iwof": db.metrics.iwof_records,
        "flushes": db.metrics.page_flushes,
        "iwof_per_op": db.metrics.iwof_records / executed,
        "per_flush": db.metrics.extra_logging_fraction,
    }


@pytest.fixture(scope="module")
def sweep():
    return [run_with_install_rate(rate) for rate in (1, 2, 4, 8)]


class TestAmortization:
    def test_print_table(self, sweep):
        print()
        print("A-HOT — Iw/oF per executed op vs cache-manager install rate")
        print(
            format_table(
                [
                    "installs/tick",
                    "ops",
                    "iwof records",
                    "iwof per op",
                    "per-flush fraction",
                ],
                [
                    (
                        row["installs_per_tick"],
                        row["executed"],
                        row["iwof"],
                        row["iwof_per_op"],
                        row["per_flush"],
                    )
                    for row in sweep
                ],
            )
        )

    def test_lazier_installs_log_less_per_op(self, sweep):
        per_op = [row["iwof_per_op"] for row in sweep]
        # installs/tick 1 (laziest) should beat 8 (most eager) clearly.
        assert per_op[0] < per_op[-1] * 0.8

    def test_per_flush_probability_is_rate_independent(self, sweep):
        """Figure 5's quantity is per FLUSH; amortization does not change
        it much — the saving is in flushing less often."""
        fractions = [row["per_flush"] for row in sweep]
        assert max(fractions) - min(fractions) < 0.25

    def test_all_rates_recover(self, sweep):
        assert all(row["executed"] > 0 for row in sweep)


class TestIdentityInstallForHotPages:
    def test_hot_page_served_from_log_not_flushes(self):
        """identity_install keeps a hot page cache-resident while still
        advancing the truncation point (§5.3, second bullet)."""
        from repro.ids import PageId
        from repro.ops.physiological import PhysiologicalWrite

        db = Database(pages_per_partition=[64], policy="general")
        hot = PageId(0, 0)
        truncation_points = []
        for round_number in range(5):
            for i in range(10):
                db.execute(
                    PhysiologicalWrite(hot, "stamp", (round_number * 10 + i,))
                )
            db.cm.identity_install(hot)
            truncation_points.append(
                db.cm.rec.truncation_point(db.log.end_lsn)
            )
        # Ten updates amortized per identity write; truncation advances
        # every round without a single flush of the hot page.
        assert truncation_points == sorted(truncation_points)
        assert db.metrics.page_flushes == 0
        assert db.metrics.identity_installs == 5
        db.crash()
        assert db.recover().ok

    def test_benchmark_identity_install(self, benchmark):
        from repro.ids import PageId
        from repro.ops.physiological import PhysiologicalWrite

        db = Database(pages_per_partition=[64], policy="general")
        hot = PageId(0, 0)

        def one_round():
            for i in range(10):
                db.execute(PhysiologicalWrite(hot, "stamp", (i,)))
            db.cm.identity_install(hot)

        benchmark.pedantic(one_round, rounds=10, iterations=1)
