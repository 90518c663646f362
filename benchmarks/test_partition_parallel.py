"""A-PAR — partitioned parallel backup (§3.4).

"It is possible to divide the database into disjoint partitions, and to
independently track backup progress in each partition.  This permits us
to back up partitions in parallel."

The bench compares one 512-page partition against 4×128 swept in
parallel (round-robin), under the same partition-local workload:

* same number of pages copied; per-partition latches instead of one;
* the extra-logging fraction stays in the same band (the analysis is
  per-partition);
* recovery works in both configurations.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.harness.reporting import format_table
from repro.ids import PageId
from repro.ops.physiological import PhysiologicalWrite


def run_config(pages_per_partition, seed=17, steps=4):
    db = Database(pages_per_partition=pages_per_partition, policy="general")
    rng = random.Random(seed)
    layout = db.layout
    db.start_backup(BackupConfig(steps=steps))
    ticks = 0
    while db.backup_in_progress():
        db.backup_step(8)
        ticks += 1
        for _ in range(3):
            partition = rng.randrange(layout.num_partitions)
            slot = rng.randrange(layout.partition_size(partition))
            db.execute(
                PhysiologicalWrite(
                    PageId(partition, slot), "stamp",
                    (rng.randrange(1 << 16),),
                )
            )
        db.install_some(3, rng)
    # Snapshot latch counters before the media failure resets volatiles.
    exclusive_latches = sum(
        latch.exclusive_acquisitions for latch in db.cm.latches.values()
    )
    db.media_failure()
    ok = db.media_recover().ok
    return {
        "partitions": len(pages_per_partition),
        "ticks": ticks,
        "pages_copied": db.metrics.backup_pages_copied,
        "iwof_fraction": db.metrics.extra_logging_fraction,
        "exclusive_latches": exclusive_latches,
        "recovered": ok,
    }


@pytest.fixture(scope="module")
def configs():
    return {
        "1 x 512": run_config([512]),
        "4 x 128": run_config([128, 128, 128, 128]),
    }


class TestParallelPartitions:
    def test_print_table(self, configs):
        print()
        print("A-PAR — single partition vs 4 partitions in parallel")
        print(
            format_table(
                ["layout", "ticks", "pages", "iwof fraction",
                 "latch x-acquisitions", "recovered"],
                [
                    (
                        name, c["ticks"], c["pages_copied"],
                        c["iwof_fraction"], c["exclusive_latches"],
                        c["recovered"],
                    )
                    for name, c in configs.items()
                ],
            )
        )

    def test_both_copy_everything_and_recover(self, configs):
        for config in configs.values():
            assert config["pages_copied"] == 512
            assert config["recovered"]

    def test_parallel_uses_per_partition_latches(self, configs):
        # Each partition takes its own begin/advance/finish latch cycle.
        assert (
            configs["4 x 128"]["exclusive_latches"]
            > configs["1 x 512"]["exclusive_latches"]
        )

    def test_extra_logging_band_comparable(self, configs):
        single = configs["1 x 512"]["iwof_fraction"]
        parallel = configs["4 x 128"]["iwof_fraction"]
        assert abs(single - parallel) < 0.2

    def test_benchmark_parallel_sweep(self, benchmark):
        result = benchmark.pedantic(
            lambda: run_config([64, 64, 64, 64]), rounds=3, iterations=1
        )
        assert result["recovered"]
