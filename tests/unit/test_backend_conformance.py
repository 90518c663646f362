"""Backend-conformance suite: every backend, one contract.

Each test here is parametrized over every registered storage backend
(:data:`repro.storage.BACKENDS`) and asserts the *protocol* contract of
:mod:`repro.storage.api` — read/write round trips, multi-write atomicity
under torn faults, log durability cuts, archive round trips, and
identical fault-injection schedules.  A new backend conforms when this
file passes for it.
"""

import json
import os
import warnings

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import BackupError, SimulatedCrash
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.sim.faults import FaultKind, FaultPlane, FaultSpec, IOPoint
from repro.storage import BACKENDS, open_backend
from repro.storage.api import BackupStore, LogDevice, PageStore
from repro.storage.archive import load_backup, save_backup
from repro.storage.layout import Layout
from repro.storage.page import PageVersion
from repro.workloads import mixed_logical_workload


def pid(slot, partition=0):
    return PageId(partition, slot)


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    be = open_backend(backend=request.param,
                      data_dir=str(tmp_path / "data"))
    yield be
    be.close()


@pytest.fixture(params=BACKENDS)
def db(request, tmp_path):
    database = Database(pages_per_partition=[16], policy="general",
                        backend=request.param,
                        data_dir=str(tmp_path / "data"))
    yield database
    database.close()


class TestFactory:
    def test_backend_names(self, backend):
        assert backend.name in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackupError):
            open_backend(backend="punchcards")

    def test_name_drives_selection(self, tmp_path):
        be = open_backend("file", str(tmp_path / "d"))
        assert be.name == "file"
        be.close()
        assert open_backend().name == "memory"

    def test_stores_satisfy_protocols(self, backend):
        stable = backend.create_stable(Layout([4]), initial_value=())
        backup = backend.create_backup(1, 0)
        assert isinstance(stable, PageStore)
        assert isinstance(backup, BackupStore)
        device = backend.create_log_device()
        if device is not None:
            assert isinstance(device, LogDevice)

    def test_close_is_idempotent(self, backend):
        backend.create_stable(Layout([4]), initial_value=())
        backend.close()
        backend.close()


class TestPageStoreContract:
    def test_write_read_round_trip(self, backend):
        stable = backend.create_stable(Layout([8]), initial_value=())
        stable.write_page(pid(1), ("v", 1), 5)
        version = stable.read_page(pid(1))
        assert version.value == ("v", 1)
        assert version.page_lsn == 5

    def test_bulk_read_matches_single_reads(self, backend):
        stable = backend.create_stable(Layout([8]), initial_value=())
        for slot in range(8):
            stable.write_page(pid(slot), ("r", slot), slot + 1)
        bulk = dict(stable.read_pages([pid(s) for s in range(8)]))
        for slot in range(8):
            assert bulk[pid(slot)] == stable.read_page(pid(slot))

    def test_multi_write_atomic(self, backend):
        stable = backend.create_stable(Layout([8]), initial_value=())
        stable.write_pages_atomically({
            pid(0): PageVersion("a", 3),
            pid(1): PageVersion("b", 3),
        })
        assert stable.read_page(pid(0)).value == "a"
        assert stable.read_page(pid(1)).value == "b"

    def test_torn_multi_write_repaired(self, backend):
        """A torn install must roll back wholly via the shadow journal."""
        stable = backend.create_stable(Layout([8]), initial_value=())
        stable.write_pages_atomically({
            pid(0): PageVersion("old0", 1),
            pid(1): PageVersion("old1", 1),
        })
        stable.attach_faults(FaultPlane([
            FaultSpec(FaultKind.TORN, point=IOPoint.STABLE_MULTI_WRITE,
                      at_io=1, keep=1),
        ]))
        with pytest.raises(SimulatedCrash):
            stable.write_pages_atomically({
                pid(0): PageVersion("new0", 2),
                pid(1): PageVersion("new1", 2),
            })
        stable.attach_faults(None)
        repaired = stable.repair_torn()
        assert repaired
        for slot in (0, 1):
            assert stable.read_page(pid(slot)).value == f"old{slot}"
            assert stable.read_page(pid(slot)).page_lsn == 1
            assert stable.verify_page(pid(slot))
        assert stable.damaged_pages() == []

    def test_verify_detects_bitrot(self, backend):
        stable = backend.create_stable(Layout([8]), initial_value=())
        stable.write_page(pid(2), ("payload",), 7)
        stable.attach_faults(FaultPlane([
            FaultSpec(FaultKind.BITROT, point=IOPoint.STABLE_WRITE,
                      at_io=1, seed=1),
        ]))
        stable.write_page(pid(3), ("doomed",), 8)
        damaged = stable.damaged_pages()
        assert len(damaged) == 1
        assert not stable.verify_page(damaged[0])


class TestLogDurabilityCut:
    def test_crash_preserves_forced_records(self, db):
        """Every record forced durable survives a crash; recovery works."""
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("r", slot)))
        db.log.force()
        forced = db.log.flushed_lsn
        db.crash()
        assert db.log.flushed_lsn >= forced
        assert db.recover().ok

    def test_work_after_a_recovery_recovers(self, db):
        """LSNs continue densely after a crash, and a second crash
        recovers the work done since the first."""
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("r", slot)))
        db.crash()
        assert db.recover().ok
        end = db.log.end_lsn
        for slot in range(4, 12):
            db.execute(PhysicalWrite(pid(slot), ("s", slot)))
        assert [r.lsn for r in db.log.scan(end + 1)] == list(
            range(end + 1, end + 9)
        )
        expected = db.oracle_state()
        assert len(expected) == 12
        db.crash()
        assert db.recover().ok
        assert all(db.read(p) == v for p, v in expected.items())

    def test_backup_and_media_recovery(self, db):
        source = mixed_logical_workload(db.layout, seed=3, count=60)
        db.start_backup(BackupConfig(steps=4))
        while db.backup_in_progress():
            db.backup_step(4)
            op = next(source, None)
            if op is not None:
                db.execute(op)
            db.install_some(2)
        db.media_failure()
        assert db.media_recover().ok


class TestArchiveRoundTrip:
    def test_save_load_round_trip(self, db, tmp_path):
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("r", slot)))
        db.start_backup(BackupConfig(steps=2))
        backup = db.run_backup()
        path = str(tmp_path / "backup.jsonl")
        assert save_backup(backup, path) > 0
        loaded = load_backup(path)
        assert loaded.pages() == backup.pages()
        assert loaded.completion_lsn == backup.completion_lsn


class TestFaultParity:
    def _count_points(self, backend_name, data_dir):
        db = Database(pages_per_partition=[16], policy="general",
                      backend=backend_name, data_dir=data_dir)
        plane = db.attach_faults(FaultPlane())
        source = mixed_logical_workload(db.layout, seed=5, count=40)
        db.start_backup(BackupConfig(steps=4, batched=True))
        while db.backup_in_progress():
            db.backup_step(4)
            op = next(source, None)
            if op is not None:
                db.execute(op)
            db.install_some(2)
        db.close()
        return dict(plane.count_by_point)

    def test_identical_fault_schedules(self, tmp_path):
        """The same run hits the same fault points the same number of
        times on every backend — the satellite-2 guarantee that seeded
        fault schedules are backend-independent."""
        memory = self._count_points("memory", None)
        file_counts = self._count_points("file", str(tmp_path / "d"))
        assert memory == file_counts


class TestFaultAttachment:
    """``attach_faults`` is the one way to give a store a fault plane;
    ``faults`` is read-only on every store."""

    def test_attach_faults_does_not_warn(self, backend):
        stable = backend.create_stable(Layout([4]), initial_value=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plane = stable.attach_faults(FaultPlane())
        assert stable.faults is plane

    def test_stable_faults_is_read_only(self, backend):
        stable = backend.create_stable(Layout([4]), initial_value=())
        with pytest.raises(AttributeError):
            stable.faults = FaultPlane()
        assert stable.faults is None

    def test_backup_faults_is_read_only(self):
        from repro.storage.backup_db import BackupDatabase

        backup = BackupDatabase(1, 0)
        with pytest.raises(AttributeError):
            backup.faults = FaultPlane()
        plane = backup.attach_faults(FaultPlane())
        assert backup.faults is plane


class TestBackendNames:
    def test_every_listed_backend_opens(self, tmp_path):
        for name in BACKENDS:
            be = open_backend(name, str(tmp_path / name))
            assert be.name == name
            be.close()

    @pytest.mark.parametrize("command", ["faultsweep", "scrub", "bench"])
    def test_cli_rejects_an_unlisted_backend(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([command, "--backend", "punchcards"])
        assert "punchcards" in capsys.readouterr().err
