"""Unit tests for BackupConfig and the unified backup/recovery API."""

import dataclasses
import inspect

import pytest

from repro.core.config import BackupConfig
from repro.core.linked_flush import LinkedFlushBackup
from repro.core.naive_backup import NaiveFuzzyDump
from repro.db import Database
from repro.errors import ReproError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.recovery.explain import RecoveryOutcome
from repro.sim.faults import FaultPlane


def pid(slot):
    return PageId(0, slot)


def seeded_db(pages=16):
    db = Database(pages_per_partition=[pages], policy="general")
    for slot in range(8):
        db.execute(PhysicalWrite(pid(slot), ("v", slot)))
    return db


class TestBackupConfig:
    def test_defaults(self):
        cfg = BackupConfig()
        assert cfg.steps == 8 and cfg.pages_per_tick == 8 and cfg.batched

    def test_frozen(self):
        cfg = BackupConfig()
        with pytest.raises(Exception):
            cfg.steps = 3

    def test_validation(self):
        with pytest.raises(ReproError):
            BackupConfig(steps=0)
        with pytest.raises(ReproError):
            BackupConfig(pages_per_tick=0)


class TestSingleSurface:
    """Each backup knob is set in one place, each ``Database``
    capability is reached one way."""

    def test_config_holds_only_backup_knobs(self):
        assert [f.name for f in dataclasses.fields(BackupConfig)] == [
            "steps", "pages_per_tick", "incremental", "dynamic_extend",
            "batched", "incremental_every", "compact_threshold",
        ]
        for knob in ("engine", "backend", "data_dir", "workers",
                     "log_streams", "redo_workers"):
            with pytest.raises(TypeError):
                BackupConfig(**{knob: "x"})

    def test_database_takes_no_storage_or_faults_parameter(self):
        assert list(inspect.signature(Database).parameters) == [
            "pages_per_partition", "policy", "initial_value",
            "auto_force_log", "tracer", "backend", "data_dir",
        ]
        for knob in ("storage", "faults", "workers", "log_streams",
                     "redo_workers"):
            with pytest.raises(TypeError):
                Database(pages_per_partition=[4], **{knob: None})

    def test_backup_calls_take_only_a_config(self):
        db = seeded_db()
        with pytest.raises(TypeError):
            db.start_backup(steps=2)
        with pytest.raises(ReproError):
            db.start_backup(2)
        db.start_backup(BackupConfig(steps=2))
        with pytest.raises(TypeError):
            db.run_backup(pages_per_tick=4)
        with pytest.raises(ReproError):
            db.run_backup(4)
        backup = db.run_backup(BackupConfig(pages_per_tick=4))
        assert backup.is_complete and db.latest_backup() is backup

    def test_faults_attach_one_way(self):
        db = seeded_db()
        with pytest.raises(AttributeError):
            db.stable.faults = FaultPlane()
        plane = db.attach_faults(FaultPlane())
        assert db.stable.faults is plane

    def test_caller_built_naive_dump_is_not_the_databases_backup(self):
        db = seeded_db()
        naive = NaiveFuzzyDump(db.cm, storage=db.storage)
        naive.start_backup()
        naive.copy_some(4)
        assert not db.backup_in_progress()
        backup = naive.run_to_completion()
        assert backup.is_complete
        assert db.latest_backup() is None

    def test_caller_built_naive_dump_does_not_span_a_crash(self):
        db = seeded_db()
        naive = NaiveFuzzyDump(db.cm, storage=db.storage)
        naive.start_backup()
        naive.copy_some(4)
        db.crash()
        db.recover()
        assert not db.backup_in_progress()
        assert db.latest_backup() is None
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup(BackupConfig(pages_per_tick=4))
        assert db.latest_backup() is backup

    def test_caller_built_linked_flush_is_synchronous(self):
        db = seeded_db()
        backup = LinkedFlushBackup(db.cm, storage=db.storage).run()
        assert backup.is_complete
        assert not db.backup_in_progress()
        assert db.latest_backup() is None

    def test_each_policy_has_one_name(self):
        for name in ("general", "tree", "page-oriented"):
            assert Database(pages_per_partition=[4],
                            policy=name).cm.policy.name == name
        with pytest.raises(ReproError):
            Database(pages_per_partition=[4], policy="page")

    def test_recovery_outcome_has_one_name_per_count(self):
        db = seeded_db()
        db.crash()
        outcome = db.recover()
        assert isinstance(outcome.replayed, int)
        assert not hasattr(outcome, "redone")
        assert not hasattr(outcome, "outcome")


class TestStartBackupAPI:
    def test_config_object_accepted(self):
        db = seeded_db()
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup(BackupConfig(pages_per_tick=4))
        assert backup.is_complete

    def test_incremental_via_config(self):
        db = seeded_db()
        db.start_backup(BackupConfig(steps=2))
        db.run_backup()
        db.execute(PhysicalWrite(pid(0), "changed"))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        inc = db.run_backup()
        assert inc.is_complete
        assert db.media_recover_chain().ok


class TestUnifiedRecoveryOutcome:
    def test_all_entry_points_return_recovery_outcome(self):
        db = seeded_db()
        db.start_backup(BackupConfig(steps=2))
        db.run_backup()

        db.crash()
        assert isinstance(db.recover(), RecoveryOutcome)

        db.media_failure()
        outcome = db.media_recover()
        assert isinstance(outcome, RecoveryOutcome)
        assert outcome.kind == "media"

        assert isinstance(db.media_recover_chain(), RecoveryOutcome)

        db.fail_partition(0)
        part = db.recover_partition(0)
        assert isinstance(part, RecoveryOutcome)
        assert part.kind == "partition"

    def test_selective_returns_outcome_with_analysis(self):
        db = seeded_db()
        db.start_backup(BackupConfig(steps=2))
        db.run_backup()
        db.execute(PhysicalWrite(pid(1), "evil"), source="badapp")
        result = db.selective_recover("badapp")
        assert isinstance(result, RecoveryOutcome)
        assert result.kind == "selective"
        assert result.analysis is not None
        assert result.analysis.directly_corrupt

    def test_faults_survived_defaults_zero(self):
        db = seeded_db()
        db.crash()
        assert db.recover().faults_survived == 0
