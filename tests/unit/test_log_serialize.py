"""Unit tests for log/operation serialization."""

import random

import pytest

from repro.appfs.application import AppRead, AppWrite
from repro.appfs.runtime import AppEmit, AppFeed, AppStep, register_logic
from repro.btree.ops import (
    BTreeBorrow,
    BTreeInsert,
    BTreeMergeInto,
    BTreeSplitMove,
    BTreeSplitRemove,
)
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import LogError
from repro.ids import PageId
from repro.ops.identity import IdentityWrite
from repro.ops.logical import CopyOp, GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.ops.tree import MovRec, RmvRec, WriteNew
from repro.wal.checkpoint import CheckpointOp
from repro.wal.serialize import (
    load_log,
    op_from_spec,
    op_to_spec,
    save_log,
)


def pid(slot):
    return PageId(0, slot)


def roundtrip_equivalent(op, reads):
    """The reconstructed op must have identical sets and effects."""
    clone = op_from_spec(op_to_spec(op))
    assert clone.readset == op.readset
    assert clone.writeset == op.writeset
    assert clone.apply(reads) == op.apply(reads)
    return clone


class TestOpRoundtrip:
    def test_physical(self):
        roundtrip_equivalent(PhysicalWrite(pid(0), ("v", 1)), {})

    def test_identity_keeps_its_class(self):
        clone = op_from_spec(op_to_spec(IdentityWrite(pid(0), "x")))
        assert isinstance(clone, IdentityWrite)

    def test_physiological(self):
        roundtrip_equivalent(
            PhysiologicalWrite(pid(0), "increment", (3,)), {pid(0): 4}
        )

    def test_copy(self):
        roundtrip_equivalent(CopyOp(pid(0), pid(1)), {pid(0): "data"})

    def test_general_logical(self):
        roundtrip_equivalent(
            GeneralLogicalOp(
                [pid(0), pid(1)], [pid(2)], "concat_sorted"
            ),
            {pid(0): ((1, "a"),), pid(1): ((2, "b"),)},
        )

    def test_write_new_and_movrec(self):
        records = tuple((k, k) for k in range(6))
        roundtrip_equivalent(
            WriteNew(pid(0), pid(1), "copy_value"), {pid(0): records}
        )
        roundtrip_equivalent(MovRec(pid(0), 3, pid(1)), {pid(0): records})
        roundtrip_equivalent(RmvRec(pid(0), 3), {pid(0): records})

    def test_btree_ops(self):
        node = ("leaf", ((1, "a"), (2, "b"), (3, "c")))
        other = ("leaf", ((9, "z"),))
        roundtrip_equivalent(BTreeInsert(pid(0), 4, "d"), {pid(0): node})
        roundtrip_equivalent(
            BTreeSplitMove(pid(0), 2, pid(1)), {pid(0): node}
        )
        roundtrip_equivalent(BTreeSplitRemove(pid(0), 2), {pid(0): node})
        roundtrip_equivalent(
            BTreeMergeInto(pid(0), pid(1)), {pid(0): node, pid(1): other}
        )
        roundtrip_equivalent(
            BTreeBorrow(pid(0), pid(1), 1, from_low=True),
            {pid(0): node, pid(1): other},
        )

    def test_app_runtime_ops_keep_their_classes(self):
        register_logic("serde-logic", lambda s, i: ((s or 0) + 1, s))
        app_state = ("app", 0, "serde-logic", 0, 5, None)
        for op, reads in (
            (AppFeed(pid(0), pid(1)), {pid(0): 5, pid(1): app_state}),
            (AppStep(pid(1), "serde-logic"), {pid(1): app_state}),
            (AppEmit(pid(1), pid(2)), {pid(1): app_state}),
            (AppRead(pid(0), pid(1)), {pid(0): 5, pid(1): app_state}),
        ):
            clone = roundtrip_equivalent(op, reads)
            assert type(clone) is type(op)
            assert clone.successor_pairs() == op.successor_pairs()

    def test_app_write(self):
        clone = roundtrip_equivalent(
            AppWrite(pid(1), pid(2)), {pid(1): ("state",)}
        )
        assert clone.successor_pairs() == ((pid(2), pid(1)),)

    def test_checkpoint(self):
        op = CheckpointOp({pid(0): 5, pid(3): 9})
        clone = op_from_spec(op_to_spec(op))
        assert isinstance(clone, CheckpointOp)
        assert clone.dirty_table == op.dirty_table

    def test_unknown_spec_rejected(self):
        with pytest.raises(LogError):
            op_from_spec({"kind": "quantum"})


class TestLogRoundtrip:
    def _busy_db(self):
        from repro.workloads import mixed_logical_workload

        db = Database(pages_per_partition=[48], policy="general")
        rng = random.Random(6)
        for op in mixed_logical_workload(db.layout, seed=6, count=150):
            db.execute(op, source=f"txn-{rng.randrange(5)}")
            if rng.random() < 0.3:
                db.install_some(1, rng)
        db.take_checkpoint()
        return db

    def test_save_load_preserves_records(self, tmp_path):
        db = self._busy_db()
        path = str(tmp_path / "shipped.log.json")
        save_log(db.log, path)
        loaded = load_log(path)
        assert loaded.end_lsn == db.log.end_lsn
        assert loaded.first_retained_lsn == db.log.first_retained_lsn
        for original, clone in zip(db.log.scan(), loaded.scan()):
            assert original.lsn == clone.lsn
            assert original.flags == clone.flags
            assert original.source == clone.source
            assert original.op.writeset == clone.op.writeset

    def test_replay_of_loaded_log_matches_oracle(self, tmp_path):
        db = self._busy_db()
        path = str(tmp_path / "shipped.log.json")
        save_log(db.log, path)
        loaded = load_log(path)
        from repro.recovery.redo import RedoReplayer

        state = {}
        RedoReplayer().replay(loaded.scan(), state)
        for page, value in db.oracle_state().items():
            assert state[page].value == value

    def test_truncated_log_roundtrips_with_offset(self, tmp_path):
        db = self._busy_db()
        db.checkpoint()
        db.log.truncate_prefix(50)
        path = str(tmp_path / "tail.log.json")
        save_log(db.log, path)
        loaded = load_log(path)
        assert loaded.first_retained_lsn == 50
        assert loaded.record_at(50).lsn == 50

    def test_cross_machine_bootstrap_from_files_only(self, tmp_path):
        """The complete shipping loop: backup file + log file are the
        ONLY things crossing the machine boundary."""
        from repro.storage.archive import load_backup, save_backup

        db = self._busy_db()
        db.start_backup(BackupConfig(steps=4))
        db.run_backup(BackupConfig(pages_per_tick=16))
        from repro.workloads import mixed_logical_workload

        for op in mixed_logical_workload(db.layout, seed=7, count=30):
            db.execute(op)
        backup_path = str(tmp_path / "backup.json")
        log_path = str(tmp_path / "log.json")
        save_backup(db.latest_backup(), backup_path)
        save_log(db.log, log_path)
        expected = db.oracle_state()
        del db  # the "machine" is gone

        replacement = Database.bootstrap_from_backup(
            load_backup(backup_path),
            load_log(log_path),
            pages_per_partition=[48],
        )
        for page, value in expected.items():
            assert replacement.stable.read_page(page).value == value


class TestLogFormat:
    def test_log_file_is_format1_and_reloads_its_stats(self, tmp_path):
        import json

        from repro.wal.log_manager import LogManager

        log = LogManager()
        for i in range(10):
            log.append(PhysicalWrite(pid(i % 8), (i,)))
        path = str(tmp_path / "plain.log")
        save_log(log, path)
        with open(path) as fh:
            assert json.load(fh)["format"] == 1
        loaded = load_log(path)
        assert loaded.stats.records == loaded.count() == 10

    def test_format2_file_is_rejected_not_misread(self, tmp_path):
        """The striped-log envelope (format 2) is no longer written, and
        a file in it is refused rather than loaded as a single log."""
        import json

        path = str(tmp_path / "striped.log")
        with open(path, "w") as fh:
            json.dump({"format": 2, "log_streams": 2, "first_lsn": 1,
                       "flushed_lsn": 0, "streams": []}, fh)
        with pytest.raises(LogError, match="unsupported log format 2"):
            load_log(path)
