"""Recovery pays for redo, not for bookkeeping.

Four costs used to grow with log history or database size on every
recovery, whatever replay had to do:

* torn-tail repair re-verified every record ever appended — now it
  checks only the records above the verified watermark;
* a restore or a bulk lay stored cell by cell — now one validated lay;
* the damage screens walked every cell — now a C-speed ``cells ==
  stamps`` test first;
* classify walked every replayed value for POISON — now only when a
  seed or a raising record could have put POISON there.

The guards pin each cost away; the correctness tests pin that every
check still catches what it caught before.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import PageNotFoundError
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery import pipeline, redo
from repro.storage import BACKENDS
from repro.storage.file_backend import FileLogDevice, FileStableDatabase
from repro.storage.layout import Layout
from repro.storage.page import PageVersion
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager
from repro.wal.serialize import record_checksum
from tests.conftest import fixed_tail_db


def make_log(backend, tmp_path):
    log = LogManager(auto_force=False)
    if backend == "file":
        log.attach_device(FileLogDevice(str(tmp_path / "wal")))
    return log


def fill(log, count, start=0):
    for i in range(start, start + count):
        log.append(PhysicalWrite(PageId(0, i % 64), i))
    log.force()


# ------------------------------------------------------------------ guards


@pytest.mark.parametrize("backend", BACKENDS)
def test_second_repair_verifies_only_new_records(
    backend, tmp_path, monkeypatch
):
    log = make_log(backend, tmp_path)
    fill(log, 100_000)
    calls = []
    verify = log.verify_record

    def counting(record):
        calls.append(record.lsn)
        return verify(record)

    monkeypatch.setattr(log, "verify_record", counting)
    assert log.repair_tail() == 0
    fill(log, 10, start=100_000)
    for record in log.scan(log.end_lsn - 9):
        record.crc = record_checksum(record)  # real envelopes: checked
    calls.clear()
    assert log.repair_tail() == 0
    assert sorted(calls) == list(range(log.end_lsn - 9, log.end_lsn + 1))


def _refuse(*args, **kwargs):
    raise AssertionError("bulk path stored a cell at a time")


def _image(layout, seed):
    rng = random.Random(seed)
    return {
        pid: PageVersion(("restored", seed, pid.slot), rng.randrange(1, 999))
        for pid in layout.all_pages()
    }


def _reference(store, image):
    """The per-page path the bulk lay replaces."""
    for pid, version in image.items():
        store._store_version(pid, version)


def _page_files(store):
    store.sync()
    out = []
    for path in store._paths:
        with open(path, "rb") as handle:
            out.append(handle.read())
    return out


def _stores(backend, tmp_path, layout):
    if backend == "memory":
        return StableDatabase(layout), StableDatabase(layout)
    return (
        FileStableDatabase(layout, data_dir=str(tmp_path / "bulk")),
        FileStableDatabase(layout, data_dir=str(tmp_path / "ref")),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_restore_and_lay_are_one_bulk_install(backend, tmp_path, monkeypatch):
    layout = Layout([4096] * 4)
    bulk, ref = _stores(backend, tmp_path, layout)
    image = _image(layout, 1)
    lay = _image(layout, 2)
    _reference(ref, image)
    _reference(ref, lay)
    if backend == "memory":
        monkeypatch.setattr(StableDatabase, "_store_version", _refuse)
    bulk.fail_media()
    bulk.restore_from(iter(image.items()))
    assert bulk.page_writes == 0
    bulk.lay_pages(lay)
    assert bulk.page_writes == len(lay) == 16_384
    monkeypatch.undo()
    assert bulk.snapshot() == ref.snapshot() == lay
    assert bulk._stamps == ref._stamps
    assert bulk.damaged_pages() == []
    if backend == "file":
        assert _page_files(bulk) == _page_files(ref)
    bulk.close()
    ref.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_partition_restore_is_one_bulk_install(backend, tmp_path, monkeypatch):
    layout = Layout([64, 64])
    bulk, ref = _stores(backend, tmp_path, layout)
    image = {
        pid: version for pid, version in _image(layout, 3).items()
        if pid.partition == 1
    }
    _reference(ref, image)
    if backend == "memory":
        monkeypatch.setattr(StableDatabase, "_store_version", _refuse)
    bulk.fail_partition(1)
    bulk.restore_partition_from(1, image)
    monkeypatch.undo()
    assert bulk.snapshot() == ref.snapshot()
    with pytest.raises(PageNotFoundError):
        bulk.restore_partition_from(0, image)
    bulk.close()
    ref.close()


@pytest.fixture
def no_poison_walk(monkeypatch):
    def refuse(value):
        raise AssertionError("clean recovery walked a value for POISON")

    monkeypatch.setattr(redo, "contains_poison", refuse)
    monkeypatch.setattr(pipeline, "contains_poison", refuse)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCleanRecoveryWalksNoValue:
    def test_crash(self, backend, tmp_path, no_poison_walk):
        db, written = fixed_tail_db(1024, backend, str(tmp_path))
        db.crash()
        outcome = db.recover()
        assert outcome.ok and set(outcome.state) == written
        db.close()

    def test_media(self, backend, tmp_path, no_poison_walk):
        db, written = fixed_tail_db(1024, backend, str(tmp_path))
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok and set(outcome.state) == written
        db.close()

    @pytest.mark.parametrize("read_all", [False, True])
    def test_instant(self, backend, read_all, tmp_path, no_poison_walk):
        """A handful of pages, or every written one, restored on demand
        before the drain restores the rest."""
        db, written = fixed_tail_db(1024, backend, str(tmp_path))
        expected = db.oracle_state()
        db.media_failure()
        db.begin_instant_restore()
        for page in sorted(written)[:None if read_all else 5]:
            assert db.read(page) == expected[page]
        outcome = db.finish_instant_restore()
        assert outcome.ok
        db.close()


# ------------------------------------------------------------- correctness


@pytest.mark.parametrize("backend", BACKENDS)
def test_rot_after_recovery_is_cut(backend, tmp_path):
    db = Database(pages_per_partition=[16], backend=backend,
                  data_dir=str(tmp_path) if backend == "file" else None)
    for i in range(40):
        db.execute(PhysicalWrite(PageId(0, i % 16), ("v", i)))
    db.crash()
    assert db.recover().ok
    end = db.log.end_lsn
    # The newest record verified at that repair; rot it in place.
    assert db.log._bitrot(random.Random(0))
    db.crash()
    outcome = db.recover()
    assert outcome.ok
    assert db.log.end_lsn == end - 1
    assert db.log.damaged_records() == []
    assert db.log.tail_repair_dropped == 1
    db.close()


def test_lost_lsn_reused_after_crash_is_verified():
    log = LogManager(auto_force=False)
    fill(log, 20)
    log.append(PhysicalWrite(PageId(0, 0), "lost"))
    assert log.repair_tail() == 0
    log.discard_unflushed()
    record = log.append(PhysicalWrite(PageId(0, 1), "reused"))
    record.crc = record_checksum(record) ^ 1
    log.force()
    assert log.repair_tail() == 1
    assert log.end_lsn == 20


class FragileWrite(PhysiologicalWrite):
    """Works forward; raises once ``armed`` (during recovery replay)."""

    armed = False

    def compute(self, reads):
        if FragileWrite.armed:
            raise RuntimeError("garbage input")
        return super().compute(reads)


@pytest.mark.parametrize("flavour", ["crash", "media", "instant"])
def test_poison_carried_by_clean_records_is_reported(flavour, monkeypatch):
    db = Database(pages_per_partition=[8])
    a, b = PageId(0, 1), PageId(0, 2)
    db.execute(PhysicalWrite(a, ("v",)))
    db.start_backup(BackupConfig(steps=2))
    db.run_backup(BackupConfig(pages_per_tick=8))
    db.execute(FragileWrite(a, "stamp", (1,)))
    db.execute(CopyOp(a, b))
    # Nested: B's value now embeds what the copy read from A.
    db.execute(PhysiologicalWrite(b, "stamp", (2,)))
    # A itself is healed by a blind write; only B still carries POISON.
    db.execute(PhysicalWrite(a, ("healed",)))
    monkeypatch.setattr(FragileWrite, "armed", True)
    if flavour == "crash":
        db.crash()
        outcome = db.recover(verify=False)
    elif flavour == "media":
        db.media_failure()
        outcome = db.media_recover(verify=False)
    else:
        db.media_failure()
        db.begin_instant_restore(verify=False)
        # Restored on demand: the install rules still format B.
        assert db.read(b) == db.initial_value
        outcome = db.finish_instant_restore()
    assert outcome.poisoned == [b]
    assert redo.contains_poison(outcome.state[b].value)
    assert outcome.state[b].value[2] is redo.POISON
    assert db.stable.read_page(b).value == db.initial_value
    assert db.stable.read_page(a).value == ("healed",)


@pytest.mark.parametrize("backend", BACKENDS)
def test_screens_pass_equal_cells_and_catch_rot(backend, tmp_path):
    db = Database(pages_per_partition=[16], backend=backend,
                  data_dir=str(tmp_path / "data"))
    for i in range(16):
        db.execute(PhysicalWrite(PageId(0, i), ("v", i)))
    db.checkpoint()
    db.start_backup(BackupConfig(steps=2))
    backup = db.run_backup(BackupConfig(pages_per_tick=16))
    equal, rotted = PageId(0, 3), PageId(0, 9)
    stable = db.stable
    old = stable._pages[equal]
    stable._pages[equal] = PageVersion(old.value, old.page_lsn)
    assert stable._pages[equal] is not stable._stamps[equal]
    assert stable.damaged_pages() == []
    stable._rot_cell(rotted)
    assert stable.damaged_pages() == [rotted]
    old = backup._versions[equal]
    backup._versions[equal] = PageVersion(old.value, old.page_lsn)
    assert backup.damaged_pages() == []
    backup._rot_cell(rotted)
    assert backup.damaged_pages() == [rotted]
    db.close()
