"""Coverage of small paths not exercised elsewhere."""

import pytest

from repro.core.config import BackupConfig
from repro.core.progress import PartitionProgress
from repro.db import Database
from repro.ids import PageId
from repro.kvstore import KVStore
from repro.ops.physical import PhysicalWrite
from repro.sim.metrics import Metrics


def pid(slot):
    return PageId(0, slot)


class TestProgressExtras:
    def test_doubt_range(self):
        progress = PartitionProgress(0, 100)
        progress.begin(25)
        progress.advance(50)
        assert progress.doubt_range() == range(25, 50)

    def test_repr(self):
        progress = PartitionProgress(0, 10)
        assert "D=0" in repr(progress)


class TestMetricsExtras:
    def test_step_fractions(self):
        metrics = Metrics()
        metrics.record_decision("done", True, step=1)
        metrics.record_decision("pend", False, step=1)
        metrics.record_decision("done", True, step=2)
        assert metrics.step_fractions() == {1: 0.5, 2: 1.0}

    def test_step_fractions_empty(self):
        assert Metrics().step_fractions() == {}


class TestDatabaseExtras:
    def test_install_some_with_default_rng(self):
        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "v"))
        assert db.install_some(1) == 1

    def test_validate_backup_without_backup_raises(self):
        from repro.errors import NoBackupError

        db = Database(pages_per_partition=[8])
        with pytest.raises(NoBackupError):
            db.validate_backup()

    def test_selective_recover_without_backup_raises(self):
        from repro.errors import NoBackupError

        db = Database(pages_per_partition=[8])
        with pytest.raises(NoBackupError):
            db.selective_recover("ghost")

    def test_media_recover_point_in_time_then_continue(self):
        db = Database(pages_per_partition=[8])
        db.execute(PhysicalWrite(pid(0), "v1"))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        target = db.log.end_lsn
        db.execute(PhysicalWrite(pid(0), "v2"))
        db.media_failure()
        db.media_recover(backup=backup, to_lsn=target, verify=False)
        # The database serves again after a point-in-time restore.
        db.execute(PhysicalWrite(pid(1), "post"))
        assert db.read(pid(1)) == "post"


class TestKVStoreExtras:
    def test_reopen_after_external_recovery(self):
        store = KVStore.create(capacity_pages=64, order=4)
        store.put(1, "one")
        db = store.db
        db.crash()
        db.recover()
        reopened = KVStore.reopen(db, order=4)
        assert reopened.get(1) == "one"

    def test_repr(self):
        store = KVStore.create(capacity_pages=64)
        store.put(1, "x")
        assert "keys=1" in repr(store)

    def test_failed_restore_raises(self):
        from repro.errors import ReproError

        store = KVStore.create(capacity_pages=64)
        store.put(1, "x")
        backup = store.online_backup(BackupConfig(steps=2))
        # Sabotage: wipe the image AND push the scan start past the
        # history so roll-forward cannot regenerate it.
        backup._versions.clear()
        backup._copy_order.clear()
        backup.media_scan_start_lsn = store.db.log.end_lsn + 1
        store.simulate_media_failure()
        with pytest.raises(ReproError):
            store.restore_from_backup(backup)


class TestStandbyExtras:
    def test_lag_and_repr(self):
        from repro.core.standby import StandbyReplica

        db = Database(pages_per_partition=[8])
        standby = StandbyReplica(db.layout, db.log)
        db.execute(PhysicalWrite(pid(0), "v"))
        assert standby.lag() == 1
        assert "lag=1" in repr(standby)
        standby.catch_up()
        assert standby.read_page(pid(0)) == "v"

    def test_seed_requires_complete_backup(self):
        from repro.core.standby import StandbyReplica
        from repro.errors import NoBackupError

        db = Database(pages_per_partition=[8])
        db.start_backup(BackupConfig(steps=2))
        run = db.engine.active
        with pytest.raises(NoBackupError):
            StandbyReplica.seed_from_backup(run.backup, db.log, db.layout)
        db.run_backup()


class TestMediaLogViewExtras:
    def test_scan_to_lsn(self):
        db = Database(pages_per_partition=[8])
        for slot in range(5):
            db.execute(PhysicalWrite(pid(slot), slot))
        from repro.wal.media_log import MediaLogView

        view = MediaLogView(db.log, scan_start_lsn=2)
        assert [r.lsn for r in view.scan(to_lsn=4)] == [2, 3, 4]
