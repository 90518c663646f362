"""Property-based tests: crash recoverability under random schedules.

The central safety property: whatever operations run, however the cache
manager's flushing is interleaved, a crash at any point leaves S + log
able to reproduce the oracle state.
"""

import random

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId

N_PAGES = 10


def pid(slot):
    return PageId(0, slot)


# A schedule is a list of small integers decoded into actions; encoding
# the randomness as data lets hypothesis shrink failing schedules.
schedules = st.lists(st.integers(0, 999), min_size=1, max_size=60)


def run_schedule(schedule, policy="general"):
    """Decode and run a schedule; returns the database just after the
    last action (no crash yet)."""
    db = Database(pages_per_partition=[N_PAGES], policy=policy)
    from repro.ops.logical import CopyOp, GeneralLogicalOp
    from repro.ops.physical import PhysicalWrite
    from repro.ops.physiological import PhysiologicalWrite

    rng = random.Random(0)
    for code in schedule:
        action = code % 6
        a, b = (code // 6) % N_PAGES, (code // 60) % N_PAGES
        if action == 0:
            db.execute(PhysicalWrite(pid(a), code))
        elif action == 1:
            db.execute(PhysiologicalWrite(pid(a), "stamp", (code,)))
        elif action == 2 and a != b:
            db.execute(CopyOp(pid(a), pid(b)))
        elif action == 3 and a != b:
            db.execute(
                GeneralLogicalOp(
                    [pid(a)], [pid(b), pid((b + 1) % N_PAGES)], "copy_value"
                )
            )
        elif action == 4:
            db.install_some(1, rng)
        else:
            db.flush_page(pid(a))
    return db


class TestCrashRecoverability:
    @given(schedules)
    @settings(max_examples=120, deadline=None)
    def test_crash_after_any_schedule_recovers(self, schedule):
        db = run_schedule(schedule)
        db.crash()
        outcome = db.recover()
        assert outcome.ok, outcome.diffs[:3]

    @given(schedules)
    @settings(max_examples=60, deadline=None)
    def test_stable_state_is_order_violation_free(self, schedule):
        """The structural invariant behind recoverability: at no point
        does S contain a later writer's update while an earlier reader's
        uncovered effects are missing."""
        from repro.recovery.explain import find_order_violations

        db = run_schedule(schedule)
        violations = find_order_violations(
            db.stable.snapshot(), list(db.log.scan())
        )
        assert violations == [], violations[:2]

    @given(schedules)
    @example([350, 32, 90, 375, 453, 161]).xfail(
        raises=AssertionError, reason="ROADMAP item 1: lost read dependency"
    )
    @settings(max_examples=60, deadline=None)
    def test_replay_from_lsn_one_equivalent(self, schedule):
        """Replaying from LSN 1 must agree with replaying from the
        truncation point (the LSN redo test skips installed work)."""
        from repro.recovery.crash_recovery import run_crash_recovery

        db = run_schedule(schedule)
        db.crash()
        full = run_crash_recovery(
            db.stable, db.log, scan_start_lsn=1,
            oracle=db.oracle.state(), apply_to_stable=False,
        )
        assert full.ok, full.diffs[:3]


class TestBackupRecoverability:
    @given(schedules, st.integers(1, 4), st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_media_recovery_after_any_interleaving(
        self, schedule, steps, backup_offset
    ):
        """Start a backup part-way through a random schedule, finish it
        while the rest of the schedule runs: B + media log must recover."""
        db = Database(pages_per_partition=[N_PAGES], policy="general")
        from repro.ops.logical import CopyOp
        from repro.ops.physical import PhysicalWrite
        from repro.ops.physiological import PhysiologicalWrite

        rng = random.Random(0)
        started = False
        for i, code in enumerate(schedule):
            if not started and i >= backup_offset:
                db.start_backup(BackupConfig(steps=steps))
                started = True
            action = code % 5
            a, b = (code // 5) % N_PAGES, (code // 50) % N_PAGES
            if action == 0:
                db.execute(PhysicalWrite(pid(a), code))
            elif action == 1:
                db.execute(PhysiologicalWrite(pid(a), "stamp", (code,)))
            elif action == 2 and a != b:
                db.execute(CopyOp(pid(a), pid(b)))
            elif action == 3:
                db.install_some(1, rng)
            elif started and db.backup_in_progress():
                db.backup_step(1)
        if not started:
            db.start_backup(BackupConfig(steps=steps))
        while db.backup_in_progress():
            db.backup_step(4)
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok, outcome.diffs[:3]
