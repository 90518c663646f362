"""T-SPEED — the "full speed" claim: what does an online backup cost?

Section 1.4 promises a backup "similar to current online backups" —
i.e. the update path keeps running at (nearly) full speed while the
sweep proceeds, paying only the occasional Iw/oF record.  This bench
runs an identical update workload three ways and compares the work the
update path had to do:

* **no backup** — the floor;
* **engine backup** — the paper's protocol (adds Iw/oF records only);
* **linked-flush backup** — the strawman (forces the dirty set through
  the cache manager).

Measured in simulator work units (log records and page writes issued by
the update path) and in wall-clock time via pytest-benchmark.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.core.linked_flush import LinkedFlushBackup
from repro.db import Database
from repro.harness.reporting import format_table
from repro.workloads import mixed_logical_workload

OPS = 400
PAGES = 256


def run_workload(mode, seed=21):
    db = Database(pages_per_partition=[PAGES], policy="general")
    workload = mixed_logical_workload(db.layout, seed=seed, count=OPS)
    rng = random.Random(seed)
    if mode == "engine":
        db.start_backup(BackupConfig(steps=8))
    executed = 0
    for op in workload:
        db.execute(op)
        executed += 1
        if executed % 3 == 0:
            db.install_some(1, rng)
        if mode == "engine" and db.backup_in_progress():
            db.backup_step(2)
    if mode == "engine":
        while db.backup_in_progress():
            db.backup_step(16)
    linked = LinkedFlushBackup(db.cm, storage=db.storage)
    if mode == "linked":
        linked.run()
    return {
        "mode": mode,
        "executed": executed,
        "log_records": db.log.end_lsn,
        "iwof": db.metrics.iwof_records,
        "page_writes": db.stable.page_writes,
        "forced_flushes": linked.forced_flushes,
        "records_per_op": db.log.end_lsn / executed,
    }


@pytest.fixture(scope="module")
def results():
    return {mode: run_workload(mode) for mode in ("none", "engine", "linked")}


class TestBackupOverhead:
    def test_print_table(self, results):
        print()
        print("T-SPEED — update-path cost of an online backup")
        print(
            format_table(
                ["mode", "ops", "log records", "iwof", "page writes",
                 "CM-forced flushes", "records/op"],
                [
                    (
                        r["mode"], r["executed"], r["log_records"],
                        r["iwof"], r["page_writes"], r["forced_flushes"],
                        r["records_per_op"],
                    )
                    for r in results.values()
                ],
            )
        )

    def test_engine_overhead_is_modest(self, results):
        """The engine's extra log records per op stay well under 2×."""
        floor = results["none"]["records_per_op"]
        engine = results["engine"]["records_per_op"]
        assert engine < floor * 2.0
        assert results["engine"]["iwof"] > 0  # it did pay something

    def test_linked_stalls_the_cache_manager(self, results):
        """The strawman forces dirty pages through the CM synchronously
        at backup time; the engine and the floor never do."""
        assert results["linked"]["forced_flushes"] > 0
        assert results["engine"]["forced_flushes"] == 0
        assert results["none"]["forced_flushes"] == 0

    def test_no_backup_pays_zero_iwof(self, results):
        assert results["none"]["iwof"] == 0


class TestWallClock:
    @pytest.mark.parametrize("mode", ["none", "engine"])
    def test_benchmark_update_path(self, benchmark, mode):
        result = benchmark.pedantic(
            lambda: run_workload(mode), rounds=3, iterations=1
        )
        assert result["executed"] == OPS
