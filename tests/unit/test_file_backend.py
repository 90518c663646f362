"""Unit tests for the file-backed storage backend.

Covers what the backend-conformance suite cannot: the on-disk artifacts
themselves (page files, the doublewrite journal, the WAL file),
byte-identity of sealed archives across backends, and the format-2
streaming archive verifier.
"""

import json
import os

import pytest

from repro.codec import decode_value
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import BackupError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.storage.archive import (
    FORMAT_VERSION,
    _encode,
    load_backup,
    save_backup,
    scan_archive,
    verify_archive,
)
from repro.storage.file_backend import FileLogDevice, FileStableDatabase
from repro.storage.layout import Layout
from repro.storage.page import PageVersion, page_checksum
from repro.wal.log_manager import LogManager
from repro.wal.serialize import record_from_spec
from repro.workloads import mixed_logical_workload


def pid(slot, partition=0):
    return PageId(partition, slot)


def disk_records(stable):
    """Each page's latest record, read back from its page file.

    ``{slot: body}`` for the pages of partition 0 that have a record,
    with ``None`` for a record whose bytes no longer parse.
    """
    out = {}
    with open(stable._paths[0], "rb") as handle:
        for page, (offset, length) in stable._locs.items():
            raw = os.pread(handle.fileno(), length, offset)
            try:
                out[page.slot] = json.loads(raw)
            except ValueError:
                out[page.slot] = None
    return out


@pytest.fixture
def stable(tmp_path):
    db = FileStableDatabase(Layout([8]), initial_value=(),
                            data_dir=str(tmp_path))
    yield db
    db.close()


class TestFileStableDatabase:
    def test_writes_land_on_disk(self, stable, tmp_path):
        stable.write_page(pid(1), ("v",), 5)
        path = os.path.join(str(tmp_path), "stable", "p0000.pages")
        assert os.path.getsize(path) > 0

    def test_span_reader_round_trip(self, stable):
        """Every install lands as a checksummed record in the page file."""
        for slot in range(8):
            stable.write_page(pid(slot), ("r", slot), slot + 1)
        records = disk_records(stable)
        assert sorted(records) == list(range(8))
        for slot, body in records.items():
            assert decode_value(body["value"]) == ("r", slot)
            assert body["lsn"] == slot + 1
            assert body["crc"] == page_checksum(("r", slot), slot + 1)

    def test_span_reader_sees_consistent_snapshot(self, stable):
        """The page file is append-only: a later install appends a new
        record and leaves the old one readable at its old offset."""
        for slot in range(8):
            stable.write_page(pid(slot), ("old", slot), 1)
        old = stable._locs[pid(3)]
        stable.write_page(pid(3), ("new", 3), 2)
        assert stable._locs[pid(3)] != old
        with open(stable._paths[0], "rb") as handle:
            body = json.loads(os.pread(handle.fileno(), old[1], old[0]))
        assert body["lsn"] == 1
        assert disk_records(stable)[3]["lsn"] == 2

    def test_bitrot_detected_through_file(self, stable):
        import random

        stable.write_page(pid(2), ("payload",), 7)
        rotted = stable._bitrot(random.Random(0))
        assert rotted
        assert disk_records(stable)[2] is None

    def test_restore_from_rewrites_files(self, stable):
        for slot in range(8):
            stable.write_page(pid(slot), ("pre", slot), 1)
        stable.fail_media()
        stable.restore_from(
            {pid(slot): PageVersion(("post", slot), 2) for slot in range(8)},
            initial_value=(),
        )
        records = disk_records(stable)
        assert sorted(records) == list(range(8))
        for slot, body in records.items():
            assert body["lsn"] == 2
            assert decode_value(body["value"]) == ("post", slot)
            assert body["crc"] == page_checksum(("post", slot), 2)


class TestFileLogDevice:
    def _log(self, tmp_path):
        log = LogManager(auto_force=False)
        device = FileLogDevice(str(tmp_path / "wal"))
        log.attach_device(device)
        return log, device

    def test_durability_cut(self, tmp_path):
        """Appends buffer in memory; only sync makes them durable."""
        log, device = self._log(tmp_path)
        for i in range(6):
            log.append(PhysicalWrite(pid(i % 4), ("r", i)))
        assert os.path.getsize(device.path) == 0
        log.force()
        assert device.syncs == 1
        assert os.path.getsize(device.path) > 0

    def test_file_records_parse_back(self, tmp_path):
        log, device = self._log(tmp_path)
        for i in range(6):
            log.append(PhysicalWrite(pid(i % 4), ("r", i)))
        log.force()
        with open(device.path) as fh:
            lsns = [record_from_spec(json.loads(line)).lsn for line in fh]
        assert lsns == [1, 2, 3, 4, 5, 6]

    def test_drop_pending_discards_unforced(self, tmp_path):
        log, device = self._log(tmp_path)
        log.append(PhysicalWrite(pid(0), ("kept",)))
        log.force()
        log.append(PhysicalWrite(pid(1), ("lost",)))
        log.discard_unflushed()
        device.sync()
        with open(device.path) as fh:
            assert sum(1 for _ in fh) == 1

    def test_lsns_lost_in_a_crash_are_reused_in_the_file(self, tmp_path):
        log, device = self._log(tmp_path)
        for i in range(2):
            log.append(PhysicalWrite(pid(i), ("kept", i)))
        log.force()
        log.append(PhysicalWrite(pid(2), ("lost",)))
        log.discard_unflushed()
        log.append(PhysicalWrite(pid(3), ("after",)))
        log.force()
        with open(device.path) as fh:
            records = [record_from_spec(json.loads(line)) for line in fh]
        assert [r.lsn for r in records] == [1, 2, 3]
        assert records[-1].op.value == ("after",)

    def test_database_wal_file_is_its_durable_log(self, tmp_path):
        """Through a database crash the WAL file holds exactly the
        records the log kept: each page flush forced the log first."""
        db = Database(pages_per_partition=[8], backend="file",
                      data_dir=str(tmp_path), auto_force_log=False)
        for i in range(20):
            db.execute(PhysicalWrite(pid(i % 8), ("v", i)))
        db.install_some(3)
        for i in range(5):
            db.execute(PhysicalWrite(pid(i), ("tail", i)))
        db.crash()
        path = os.path.join(str(tmp_path), "wal", "stream0.log")
        with open(path) as fh:
            lsns = [record_from_spec(json.loads(line)).lsn for line in fh]
        assert lsns == [r.lsn for r in db.log.scan()]
        assert lsns == list(range(1, db.log.flushed_lsn + 1))
        assert db.log.flushed_lsn >= 1
        db.close()


class TestSealedBackupByteIdentity:
    def _archive_bytes(self, tmp_path, name, backend):
        data_dir = str(tmp_path / name)
        db = Database(pages_per_partition=[8, 8, 8, 8], policy="general",
                      backend=backend, data_dir=data_dir)
        source = mixed_logical_workload(db.layout, seed=11, count=40)
        db.start_backup(BackupConfig(steps=4, batched=True))
        while db.backup_in_progress():
            db.backup_step(16)
            op = next(source, None)
            if op is not None:
                db.execute(op)
            db.install_some(2)
        backup = db.latest_backup()
        path = str(tmp_path / f"{name}.jsonl")
        save_backup(backup, path)
        db.close()
        with open(path, "rb") as fh:
            return fh.read()

    def test_identical_across_backends(self, tmp_path):
        """The same seeded run seals byte-identical archives on the
        memory and the file backend."""
        memory = self._archive_bytes(tmp_path, "mem", "memory")
        on_file = self._archive_bytes(tmp_path, "f1", "file")
        assert memory == on_file


class TestStreamingArchive:
    def _sealed(self, tmp_path):
        db = Database(pages_per_partition=[8], policy="general")
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("r", slot)))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=2))
        return db.run_backup()

    def test_format_2_is_jsonl(self, tmp_path):
        backup = self._sealed(tmp_path)
        path = str(tmp_path / "a.jsonl")
        save_backup(backup, path)
        with open(path) as fh:
            lines = fh.readlines()
        header = json.loads(lines[0])
        assert header["format"] == FORMAT_VERSION
        assert header["page_count"] == len(lines) - 1
        for line in lines[1:]:
            entry = json.loads(line)
            assert {"partition", "slot", "lsn", "value", "crc"} <= set(entry)

    def test_verify_archive_streams_and_counts_bytes(self, tmp_path):
        backup = self._sealed(tmp_path)
        path = str(tmp_path / "a.jsonl")
        written = save_backup(backup, path)
        audit = verify_archive(path)
        assert audit.ok
        assert audit.pages_scanned == backup.copied_count()
        assert audit.bytes_scanned == written == os.path.getsize(path)

    def test_verify_archive_flags_tampering(self, tmp_path):
        backup = self._sealed(tmp_path)
        path = str(tmp_path / "a.jsonl")
        save_backup(backup, path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace('["r",0]', '["x",0]', 1))
        audit = verify_archive(path)
        assert not audit.ok
        assert len(audit.damaged) == 1

    def test_truncated_archive_rejected(self, tmp_path):
        backup = self._sealed(tmp_path)
        path = str(tmp_path / "a.jsonl")
        save_backup(backup, path)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-2])
        with pytest.raises(BackupError):
            verify_archive(path)

    def test_legacy_format_1_still_loads(self, tmp_path):
        backup = self._sealed(tmp_path)
        envelope = {
            "format": 1,
            "backup_id": backup.backup_id,
            "media_scan_start_lsn": backup.media_scan_start_lsn,
            "completion_lsn": backup.completion_lsn,
            "base_backup_id": None,
            "pages": [
                {
                    "partition": p.partition,
                    "slot": p.slot,
                    "lsn": v.page_lsn,
                    "value": _encode(v.value),
                    "crc": backup.stored_checksum(p),
                }
                for p, v in sorted(backup.pages().items())
            ],
        }
        path = str(tmp_path / "legacy.json")
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        loaded = load_backup(path)
        assert loaded.pages() == backup.pages()
        audit = verify_archive(path)
        assert audit.ok and audit.pages_scanned == backup.copied_count()
