"""Unit tests for the tertiary-storage archive format."""

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import BackupError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.storage.archive import _decode, _encode, load_backup, save_backup


def pid(slot):
    return PageId(0, slot)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            -1,
            "text",
            3.25,
            float("inf"),
            b"\x00\xffbytes",
            (),
            (1, "a", (2, "b")),
            frozenset({1, 2}),
            ("meta", 3, 7, (2, 5)),
        ],
    )
    def test_roundtrip(self, value):
        assert _decode(_encode(value)) == value

    def test_unsupported_type_rejected(self):
        class Weird:
            pass

        with pytest.raises(BackupError):
            _encode(Weird())

    def test_corrupt_data_rejected(self):
        with pytest.raises(BackupError):
            _decode({"t": "nope"})


class TestArchiveRoundtrip:
    def _backed_up_db(self):
        db = Database(pages_per_partition=[16], policy="general")
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("v", slot)))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=2))
        return db, db.run_backup(BackupConfig(pages_per_tick=16))

    def test_save_and_load(self, tmp_path):
        db, backup = self._backed_up_db()
        path = str(tmp_path / "backup.json")
        size = save_backup(backup, path)
        assert size > 0
        loaded = load_backup(path)
        assert loaded.backup_id == backup.backup_id
        assert loaded.media_scan_start_lsn == backup.media_scan_start_lsn
        assert loaded.completion_lsn == backup.completion_lsn
        assert loaded.pages() == backup.pages()

    def test_media_recovery_from_archived_backup(self, tmp_path):
        """The full loop: archive to disk, lose the medium, restore from
        the file + the media log."""
        db, backup = self._backed_up_db()
        path = str(tmp_path / "backup.json")
        save_backup(backup, path)
        db.execute(PhysicalWrite(pid(0), ("post-backup",)))
        db.checkpoint()
        db.media_failure()
        loaded = load_backup(path)
        outcome = db.media_recover(backup=loaded)
        assert outcome.ok, outcome.diffs[:3]
        assert db.stable.read_page(pid(0)).value == ("post-backup",)

    def test_incomplete_backup_not_archivable(self, tmp_path):
        db = Database(pages_per_partition=[16], policy="general")
        db.start_backup(BackupConfig(steps=2))
        run = db.engine.active
        with pytest.raises(BackupError):
            save_backup(run.backup, str(tmp_path / "x.json"))
        db.run_backup()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99}')
        with pytest.raises(BackupError):
            load_backup(str(path))

    def test_base_backup_id_preserved(self, tmp_path):
        db, full = self._backed_up_db()
        db.execute(PhysicalWrite(pid(1), ("changed",)))
        db.start_backup(BackupConfig(steps=2, incremental=True))
        incremental = db.run_backup(BackupConfig(pages_per_tick=16))
        path = str(tmp_path / "incr.json")
        save_backup(incremental, path)
        loaded = load_backup(path)
        assert loaded.base_backup_id == full.backup_id
