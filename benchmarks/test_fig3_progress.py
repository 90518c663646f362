"""FIG3 — tracking backup progress with D and P.

Regenerates the Figure 3 walk: at each step the previously in-doubt part
of S becomes Done, and the Pending part is split into a new Doubt region
and the remaining Pend — verified against a live backup run.
"""

import pytest

from repro.core.config import BackupConfig
from repro.core.progress import BackupRegion
from repro.db import Database
from repro.harness.reporting import format_table


@pytest.fixture(scope="module")
def walk():
    db = Database(pages_per_partition=[128], policy="general")
    db.start_backup(BackupConfig(steps=4))
    size = db.layout.partition_size(0)
    progress = db.cm.progress[0]
    snapshots = []

    def snap(label):
        counts = {region: 0 for region in BackupRegion}
        for pos in range(size):
            counts[progress.classify(pos)] += 1
        snapshots.append(
            (
                label,
                progress.done,
                progress.pending,
                counts[BackupRegion.DONE],
                counts[BackupRegion.DOUBT],
                counts[BackupRegion.PEND],
            )
        )

    snap("step 1 begins")
    while db.backup_in_progress():
        before = progress.steps_taken
        db.backup_step(8)
        if db.backup_in_progress() and progress.steps_taken != before:
            snap(f"step {progress.steps_taken} begins")
    snap("complete (reset)")
    return snapshots, size


class TestFigure3:
    def test_print_progress_walk(self, walk):
        snapshots, _ = walk
        print()
        print("FIG3 — D/P progress and Done/Doubt/Pend page counts")
        print(
            format_table(
                ["moment", "D", "P", "done", "doubt", "pend"], snapshots
            )
        )

    def test_counts_always_partition_the_database(self, walk):
        snapshots, size = walk
        for _, _, _, done, doubt, pend in snapshots:
            assert done + doubt + pend == size

    def test_doubt_region_is_one_step_wide(self, walk):
        snapshots, size = walk
        for label, _, _, _, doubt, _ in snapshots[:-1]:
            assert doubt == size // 4, label

    def test_reset_after_completion(self, walk):
        snapshots, size = walk
        label, done_bound, pend_bound, done, doubt, pend = snapshots[-1]
        assert (done_bound, pend_bound) == (0, 0)
        assert pend == size  # everything pending for the next backup


class TestFig3Timing:
    def test_benchmark_full_sweep(self, benchmark):
        def sweep():
            db = Database(pages_per_partition=[512], policy="general")
            db.start_backup(BackupConfig(steps=8))
            return db.run_backup(BackupConfig(pages_per_tick=64))

        backup = benchmark(sweep)
        assert backup.is_complete
