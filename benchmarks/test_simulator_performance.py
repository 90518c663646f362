"""SIM-PERF — simulator cost characterization.

Not a paper figure: documents the cost of the substrate itself so users
can size experiments.  Timed paths: operation execution through the
cache manager, dynamic write-graph maintenance under adversarial copy
chains, full-cache checkpointing, long-log replay, and the B-tree.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.btree import BTree
from repro.workloads import copy_chain_workload, mixed_logical_workload


class TestExecutionPath:
    def test_benchmark_mixed_execute(self, benchmark):
        db = Database(pages_per_partition=[512], policy="general")
        source = mixed_logical_workload(db.layout, seed=1, count=10**9)

        def run_batch():
            for _ in range(200):
                db.execute(next(source))
            db.checkpoint()

        benchmark(run_batch)

    def test_benchmark_copy_chain_graph_pressure(self, benchmark):
        """Copy chains build deep write-graph paths before collapsing."""
        db = Database(pages_per_partition=[256], policy="general")

        def run_chains():
            for op in copy_chain_workload(
                db.layout, seed=2, count=150, chain_length=8
            ):
                db.execute(op)
            db.checkpoint()

        benchmark(run_chains)

    def test_benchmark_replay_throughput(self, benchmark):
        db = Database(pages_per_partition=[256], policy="general")
        for op in mixed_logical_workload(db.layout, seed=3, count=3000):
            db.execute(op)
        db.crash()

        from repro.recovery.crash_recovery import run_crash_recovery

        def replay():
            return run_crash_recovery(
                db.stable, db.log, scan_start_lsn=1, apply_to_stable=False
            )

        outcome = benchmark(replay)
        assert outcome.replayed + outcome.skipped == 3000

    def test_benchmark_btree_inserts(self, benchmark):
        rng = random.Random(4)
        keys = list(range(2000))
        rng.shuffle(keys)

        def build():
            db = Database(pages_per_partition=[2048], policy="tree")
            tree = BTree(db, order=32, logging="tree").create()
            for key in keys:
                tree.insert(key, key)
            return tree

        tree = benchmark.pedantic(build, rounds=3, iterations=1)
        assert tree.check_invariants() == 2000

    def test_benchmark_backup_sweep_throughput(self, benchmark):
        db = Database(pages_per_partition=[4096], policy="general")

        def sweep():
            db.engine.completed.clear()
            db.start_backup(BackupConfig(steps=8))
            return db.run_backup(BackupConfig(pages_per_tick=256))

        backup = benchmark(sweep)
        assert backup.copied_count() == 4096


class TestGraphGrowth:
    def test_write_graph_stays_bounded_under_churn(self):
        """Installing keeps the live graph proportional to the dirty
        set, not to history — no leak across 5k operations."""
        db = Database(pages_per_partition=[128], policy="general")
        rng = random.Random(5)
        source = mixed_logical_workload(db.layout, seed=5, count=5000)
        peak = 0
        for i, op in enumerate(source):
            db.execute(op)
            db.install_some(2, rng)
            if i % 500 == 0:
                peak = max(peak, len(db.cm.graph.nodes()))
        assert peak < 200  # bounded by the dirty set, not 5000 ops
        db.checkpoint()
        assert len(db.cm.graph.nodes()) == 0
