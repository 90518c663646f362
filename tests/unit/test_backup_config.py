"""Unit tests for BackupConfig and the unified backup/recovery API."""

import warnings

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import ReproError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.recovery.explain import RecoveryOutcome


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
        assert cfg.steps == 8 and cfg.batched and cfg.engine == "engine"

    def test_frozen(self):
        cfg = BackupConfig()
        with pytest.raises(Exception):
            cfg.steps = 3

    def test_validation(self):
        with pytest.raises(ReproError):
            BackupConfig(steps=0)
        with pytest.raises(ReproError):
            BackupConfig(pages_per_tick=0)
        with pytest.raises(ReproError):
            BackupConfig(engine="tape")
        with pytest.raises(ReproError):
            BackupConfig(incremental=True, engine="naive")


    def test_one_sweep_thread_one_log_one_replay_loop(self):
        """No knob selects a sweep pool, a striped log or parallel
        redo: the config has exactly these ten fields, and neither it
        nor ``Database`` accepts the removed ones."""
        import dataclasses

        assert [f.name for f in dataclasses.fields(BackupConfig)] == [
            "steps", "pages_per_tick", "incremental", "dynamic_extend",
            "batched", "engine", "backend", "data_dir",
            "incremental_every", "compact_threshold",
        ]
        for knob in ("workers", "log_streams", "redo_workers"):
            with pytest.raises(TypeError):
                BackupConfig(**{knob: 2})
            with pytest.raises(TypeError):
                Database(pages_per_partition=[4], **{knob: 2})


class TestStartBackupAPI:
    def test_config_object_accepted(self):
        db = seeded_db()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db.start_backup(BackupConfig(steps=2))
            backup = db.run_backup(BackupConfig(pages_per_tick=4))
        assert backup.is_complete

    def test_legacy_kwargs_warn_but_work(self):
        db = seeded_db()
        with pytest.warns(DeprecationWarning):
            db.start_backup(steps=2)
        with pytest.warns(DeprecationWarning):
            backup = db.run_backup(pages_per_tick=4)
        assert backup.is_complete

    def test_legacy_positional_int(self):
        db = seeded_db()
        with pytest.warns(DeprecationWarning):
            db.start_backup(2)
        assert db.backup_in_progress()

    def test_mixing_config_and_legacy_rejected(self):
        db = seeded_db()
        with pytest.raises(ReproError):
            db.start_backup(BackupConfig(), steps=4)

    def test_naive_engine_dispatch(self):
        db = seeded_db()
        db.start_backup(BackupConfig(steps=2, engine="naive"))
        assert db.backup_in_progress()
        backup = db.run_backup(BackupConfig(pages_per_tick=4,
                                            engine="naive"))
        assert backup.is_complete
        assert db.latest_backup() is backup
        assert db.naive.completed[-1] is backup

    def test_linked_engine_is_synchronous(self):
        db = seeded_db()
        with pytest.raises(ReproError):
            db.start_backup(BackupConfig(engine="linked"))
        backup = db.run_backup(BackupConfig(engine="linked"))
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

    def test_redone_alias_and_outcome_shim(self):
        db = seeded_db()
        db.crash()
        outcome = db.recover()
        assert outcome.redone == outcome.replayed
        with pytest.warns(DeprecationWarning):
            assert outcome.outcome is outcome

    def test_faults_survived_defaults_zero(self):
        db = seeded_db()
        db.crash()
        assert db.recover().faults_survived == 0
