"""Install rules hold for every recovery flavour (the shared pipeline).

Every flavour installs through ``install_recovered_page``: an
out-of-layout replay target is dropped loudly (one ``RESTORE_DROP``
event, ``Metrics.pages_dropped_out_of_layout``), and a page whose
replayed value carries POISON is formatted to the initial value in S
while still being reported on the outcome.
"""

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.obs import Tracer, events as ev
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery.redo import POISON
from repro.storage.stable_db import StableDatabase
from tests.conftest import TAIL_RECORDS, fixed_tail_db


class FragileWrite(PhysiologicalWrite):
    """A transform that works during normal execution and raises once
    ``armed`` — i.e. during the recovery replay under test."""

    armed = False

    def compute(self, reads):
        if FragileWrite.armed:
            raise RuntimeError("garbage input")
        return super().compute(reads)


def backed_up_db():
    db = Database(pages_per_partition=[8, 8], tracer=Tracer())
    for partition in range(2):
        for slot in range(8):
            db.execute(PhysicalWrite(PageId(partition, slot), ("v", slot)))
    db.checkpoint()
    db.start_backup(BackupConfig(steps=2))
    db.run_backup(BackupConfig(pages_per_tick=16))
    return db


def _recover_crash(db):
    db.crash()
    return db.recover()


def _recover_chain(db):
    db.media_failure()
    return db.media_recover_chain()


def _recover_selective(db, verify=True):
    db.media_failure()
    return db.selective_recover("nobody", verify=verify)


def _recover_partition(db):
    db.fail_partition(0)
    return db.recover_partition(0, verify=False)


class TestOutOfLayoutTargets:
    @pytest.mark.parametrize(
        "recover",
        [_recover_crash, _recover_chain, _recover_selective],
        ids=["crash", "media-chain", "selective"],
    )
    def test_dropped_page_is_traced_and_counted(self, recover):
        db = backed_up_db()
        outside = PageId(7, 0)
        # Logged behind the cache manager's back: the layout never held
        # this page, but replay materializes it.
        db.log.append(PhysicalWrite(outside, "stray"))
        outcome = recover(db)
        assert outcome.ok
        assert outside in outcome.state
        drops = db.tracer.find(ev.RESTORE_DROP)
        assert [e.get("page") for e in drops] == [str(outside)]
        assert drops[0].get("kind") == outcome.kind
        assert db.metrics.pages_dropped_out_of_layout == 1


class TestPoisonedPagesAreFormatted:
    @pytest.mark.parametrize(
        "recover",
        [
            # Unverified: the corruption-free reference state would
            # apply the same (now raising) op.
            lambda db: _recover_selective(db, verify=False),
            _recover_partition,
        ],
        ids=["selective", "partition"],
    )
    def test_initial_value_in_stable_and_page_reported(
        self, recover, monkeypatch
    ):
        db = backed_up_db()
        victim = PageId(0, 3)
        db.execute(FragileWrite(victim, "stamp", ("post-backup",)))
        monkeypatch.setattr(FragileWrite, "armed", True)
        outcome = recover(db)
        assert outcome.poisoned == [victim]
        assert outcome.state[victim].value is POISON
        assert db.stable.read_page(victim).value == db.initial_value


def _no_scan(self):
    raise AssertionError("recovery walked the whole store")


@pytest.mark.parametrize("backend", ["memory", "file"])
class TestRecoveryCostIsWhatReplayWrote:
    """The base is looked up, never copied: a 16 384-page store with a
    2 000-record tail over 200 pages is classified and installed in 200
    steps, and ``outcome.state`` is those 200 pages."""

    def test_crash_recovery_touches_only_written_pages(
        self, backend, tmp_path, monkeypatch, stable_calls
    ):
        db, written = fixed_tail_db(16384, backend, str(tmp_path))
        db.crash()
        monkeypatch.setattr(StableDatabase, "iter_pages", _no_scan)
        outcome = db.recover(verify=False)
        assert outcome.ok and outcome.replayed == TAIL_RECORDS
        assert set(outcome.state) == written
        assert stable_calls == ["install_version"] * len(outcome.state)
        monkeypatch.undo()
        db.crash()
        assert db.recover().ok  # verified: S already is the oracle state
        db.close()

    def test_media_recovery_installs_only_written_pages(
        self, backend, tmp_path, stable_calls
    ):
        db, written = fixed_tail_db(16384, backend, str(tmp_path))
        db.media_failure()
        outcome = db.media_recover(verify=False)
        assert outcome.ok and outcome.replayed == TAIL_RECORDS
        assert set(outcome.state) == written
        assert stable_calls == (
            ["restore_from"] + ["install_version"] * len(outcome.state)
        )
        db.crash()
        assert db.recover().ok
        db.close()
