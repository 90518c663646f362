"""Unit tests for simulation support: oracle, metrics, failure, runner."""

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.sim.failure import CrashPlan, FailureInjector
from repro.sim.metrics import Metrics
from repro.sim.oracle import oracle_state_at
from repro.sim.runner import InterleavedRun
from repro.errors import ReproError
from repro.workloads import page_oriented_workload


def pid(slot):
    return PageId(0, slot)


class TestOracle:
    def test_tracks_logical_state(self):
        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "a"))
        db.execute(CopyOp(pid(0), pid(1)))
        assert db.oracle.value(pid(1)) == "a"
        assert db.oracle.applied_through == 2

    def test_oracle_state_at_historic_lsn(self):
        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "a"))
        db.execute(PhysicalWrite(pid(0), "b"))
        assert oracle_state_at(db.log, 1)[pid(0)] == "a"
        assert oracle_state_at(db.log, 2)[pid(0)] == "b"

    def test_rebuild_after_lost_tail(self):
        db = Database(pages_per_partition=[8], auto_force_log=False)
        db.execute(PhysicalWrite(pid(0), "kept"))
        db.log.force()
        db.execute(PhysicalWrite(pid(0), "lost"))
        db.crash()
        assert db.oracle.value(pid(0)) == "kept"


class TestMetrics:
    def test_extra_logging_fraction(self):
        metrics = Metrics()
        assert metrics.extra_logging_fraction == 0.0
        metrics.record_decision("done", True, step=1)
        metrics.record_decision("pend", False, step=1)
        assert metrics.extra_logging_fraction == pytest.approx(0.5)
        assert metrics.decisions_by_region == {"done": 1, "pend": 1}
        assert metrics.iwof_by_region == {"done": 1}

    def test_snapshot_keys(self):
        snapshot = Metrics().snapshot()
        assert "extra_logging_fraction" in snapshot
        assert "backup_pages_copied" in snapshot


class TestFailureInjection:
    def test_crash_plan_fires_once(self):
        db = Database(pages_per_partition=[8])
        injector = FailureInjector(db, [CrashPlan(at_tick=2, kind="crash")])
        assert injector.check(0) is None
        assert injector.check(2) is not None
        assert injector.check(3) is None
        assert len(injector.fired) == 1

    def test_media_plan(self):
        db = Database(pages_per_partition=[8])
        injector = FailureInjector(db, [CrashPlan(0, kind="media")])
        injector.check(0)
        assert db.stable.failed

    def test_bad_kind_rejected(self):
        with pytest.raises(ReproError):
            CrashPlan(0, kind="gremlins")

    def test_two_plans_due_same_tick_fire_one_per_call(self):
        """check() fires at most one plan per call, so two failures due
        at the same tick arrive on consecutive checks, not together."""
        db = Database(pages_per_partition=[8])
        injector = FailureInjector(
            db, [CrashPlan(2, kind="crash"), CrashPlan(2, kind="media")]
        )
        first = injector.check(2)
        assert first is not None and first.kind == "crash"
        assert not db.stable.failed  # media plan still pending
        second = injector.check(2)
        assert second is not None and second.kind == "media"
        assert db.stable.failed
        assert injector.check(2) is None
        assert [p.kind for p in injector.fired] == ["crash", "media"]

    def test_plan_at_tick_zero_fires_immediately(self):
        db = Database(pages_per_partition=[8])
        injector = FailureInjector(db, [CrashPlan(0)])
        plan = injector.check(0)
        assert plan is not None and plan.at_tick == 0
        assert injector.check(0) is None

    def test_media_failure_while_backup_in_progress(self):
        """A media plan firing mid-backup aborts the sweep; recovery must
        fall back to the previous completed backup."""
        from repro.core.config import BackupConfig

        db = Database(pages_per_partition=[8])
        for slot in range(8):
            db.execute(PhysicalWrite(PageId(0, slot), ("v", slot)))
        db.start_backup(BackupConfig(steps=2))
        old = db.run_backup()
        for slot in range(4):
            db.execute(PhysicalWrite(PageId(0, slot), ("w", slot)))
        db.start_backup(BackupConfig(steps=2))
        db.backup_step(2)
        assert db.backup_in_progress()
        injector = FailureInjector(db, [CrashPlan(5, kind="media")])
        assert injector.check(5) is not None
        # The in-flight image was aborted, not completed.
        assert not db.backup_in_progress()
        assert db.latest_backup() is old
        assert db.media_recover().ok


class TestInterleavedRun:
    def test_run_completes_backup(self):
        db = Database(pages_per_partition=[64], policy="general")
        workload = page_oriented_workload(db.layout, seed=1, count=None)
        run = InterleavedRun(
            db, workload, backup=BackupConfig(steps=4, pages_per_tick=4)
        )
        result = run.run(max_ticks=1000)
        assert result.backup is not None
        assert result.backup.is_complete
        assert result.ops_executed > 0

    def test_deterministic_given_seed(self):
        def go():
            db = Database(pages_per_partition=[64], policy="general")
            workload = page_oriented_workload(db.layout, seed=1, count=None)
            result = InterleavedRun(db, workload, seed=3).run(1000)
            return (result.ticks, result.ops_executed, db.log.end_lsn)

        assert go() == go()

    def test_injected_crash_stops_run(self):
        db = Database(pages_per_partition=[64], policy="general")
        workload = page_oriented_workload(db.layout, seed=1, count=None)
        injector = FailureInjector(db, [CrashPlan(at_tick=3)])
        result = InterleavedRun(db, workload, injector=injector).run(1000)
        assert result.crashed
        assert result.ticks == 4

    def test_io_fault_crash_stops_run_recoverably(self):
        from repro.sim.failure import IOFaultPlan

        db = Database(pages_per_partition=[64], policy="general")
        workload = page_oriented_workload(db.layout, seed=1, count=None)
        injector = FailureInjector(db, [IOFaultPlan(at_io=25)])
        result = InterleavedRun(db, workload, injector=injector).run(1000)
        assert result.crashed
        assert injector.faults_injected == 1
        outcome = db.recover()
        assert outcome.ok
        assert outcome.faults_survived == 1

    def test_io_transients_survived_in_run(self):
        from repro.sim.failure import IOFaultPlan
        from repro.sim.faults import FaultKind, IOPoint

        db = Database(pages_per_partition=[64], policy="general")
        workload = page_oriented_workload(db.layout, seed=1, count=None)
        injector = FailureInjector(db, [
            IOFaultPlan(at_io=2, kind=FaultKind.TRANSIENT,
                        point=IOPoint.LOG_APPEND, times=2),
            IOFaultPlan(at_io=1, kind=FaultKind.TRANSIENT,
                        point=IOPoint.STABLE_MULTI_WRITE),
        ])
        result = InterleavedRun(db, workload, injector=injector).run(1000)
        assert not result.crashed
        assert result.backup is not None and result.backup.is_complete
        assert db.metrics.io_retries >= 3
