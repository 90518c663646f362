"""Property-based tests for taint-excluding selective redo (§6.3)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery.selective_redo import (
    compute_taint,
    expected_state_excluding,
)
from repro.wal.log_manager import LogManager

N_PAGES = 8


def pid(slot):
    return PageId(0, slot)


# Encoded actions: (who, what, a, b) — `who` chooses good vs bad source.
actions = st.tuples(
    st.booleans(),
    st.integers(0, 2),
    st.integers(0, N_PAGES - 1),
    st.integers(0, N_PAGES - 1),
)
schedules = st.lists(actions, min_size=1, max_size=40)


def decode(code, counter):
    is_bad, what, a, b = code
    source = "bad" if is_bad else "good"
    if what == 0:
        return PhysicalWrite(pid(a), ("w", counter)), source
    if what == 1:
        return PhysiologicalWrite(pid(a), "stamp", (counter,)), source
    if a == b:
        return PhysicalWrite(pid(a), ("w2", counter)), source
    return CopyOp(pid(a), pid(b)), source


class TestTaintClosureProperties:
    @given(schedules)
    @settings(max_examples=150, deadline=None)
    def test_no_kept_op_ever_reads_a_tainted_page(self, schedule):
        log = LogManager()
        records = []
        for i, code in enumerate(schedule):
            op, source = decode(code, i)
            records.append(log.append(op, source=source))
        analysis = compute_taint(
            records, lambda record: record.source == "bad"
        )
        excluded = analysis.excluded
        tainted = set()
        for record in records:
            if record.lsn in excluded:
                tainted |= record.op.writeset
            else:
                assert not (record.op.readset & tainted)
                tainted -= record.op.writeset

    @given(schedules)
    @settings(max_examples=100, deadline=None)
    def test_no_bad_source_means_nothing_excluded(self, schedule):
        log = LogManager()
        records = []
        for i, code in enumerate(schedule):
            op, _ = decode(code, i)
            records.append(log.append(op, source="good"))
        analysis = compute_taint(
            records, lambda record: record.source == "bad"
        )
        assert analysis.excluded == set()


class TestSelectiveRecoveryProperties:
    @given(schedules)
    @settings(max_examples=60, deadline=None)
    def test_recovered_state_equals_corruption_free_history(self, schedule):
        """After selective recovery the database equals the state produced
        by applying only the kept operations — for any schedule where the
        corruption happens after the backup."""
        db = Database(pages_per_partition=[N_PAGES], policy="general")
        # Pre-backup history is all clean.
        for slot in range(N_PAGES):
            db.execute(PhysicalWrite(pid(slot), ("base", slot)),
                       source="good")
        db.checkpoint()
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup(BackupConfig(pages_per_tick=8))
        for i, code in enumerate(schedule):
            op, source = decode(code, i)
            db.execute(op, source=source)
        result = db.selective_recover("bad", backup=backup)
        assert result.ok, result.diffs[:3]
        expected = expected_state_excluding(db.log, result.analysis.excluded)
        for slot in range(N_PAGES):
            assert (
                db.stable.read_page(pid(slot)).value
                == expected.get(pid(slot))
            )
