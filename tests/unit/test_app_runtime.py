"""Unit tests for the resumable application runtime."""

import pytest

from repro.appfs.runtime import (
    AppEmit,
    AppFeed,
    AppStep,
    RecoverableApplication,
    register_logic,
)
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import ReproError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite


def pid(slot):
    return PageId(0, slot)


APP = pid(30)


def summing_logic(user_state, pending_input):
    """Accumulate inputs (length for non-numeric); output the total."""
    if isinstance(pending_input, (str, bytes, tuple)):
        pending_input = len(pending_input)
    total = (user_state or 0) + (pending_input or 0)
    return total, total


register_logic("summer", summing_logic)


@pytest.fixture
def db():
    return Database(pages_per_partition=[32], policy="tree")


@pytest.fixture
def app(db):
    return RecoverableApplication.launch(db, APP, "summer", initial_state=0)


class TestLifecycle:
    def test_launch_requires_registered_logic(self, db):
        with pytest.raises(ReproError):
            RecoverableApplication.launch(db, APP, "unregistered")

    def test_initial_state(self, app):
        assert app.step_number == 0
        assert app.user_state == 0

    def test_feed_advance_emit_cycle(self, db, app):
        db.execute(PhysicalWrite(pid(1), 7))
        app.feed(pid(1))
        app.advance()
        assert app.step_number == 1
        assert app.user_state == 7
        app.emit(pid(2))
        assert db.read(pid(2)) == 7

    def test_steps_accumulate(self, db, app):
        for slot, value in ((1, 5), (2, 10), (3, 1)):
            db.execute(PhysicalWrite(pid(slot), value))
            app.feed(pid(slot))
            app.advance()
        assert app.step_number == 3
        assert app.user_state == 16

    def test_identifier_only_logging(self, db, app):
        db.execute(PhysicalWrite(pid(1), "x" * 500))
        before = db.log.bytes_logged()
        app.feed(pid(1))
        app.advance()
        app.emit(pid(2))
        # Three records, none carrying the 500-byte value.
        assert db.log.bytes_logged() - before < 200


class TestRecovery:
    def test_crash_resume_continues_exactly(self, db, app):
        db.execute(PhysicalWrite(pid(1), 5))
        app.feed(pid(1))
        app.advance()
        db.crash()
        assert db.recover().ok
        resumed = RecoverableApplication.resume(db, APP)
        assert resumed.step_number == 1
        assert resumed.user_state == 5
        # And it keeps computing from where it stopped.
        db.execute(PhysicalWrite(pid(2), 3))
        resumed.feed(pid(2))
        resumed.advance()
        assert resumed.user_state == 8

    def test_media_failure_resume(self, db, app):
        db.execute(PhysicalWrite(pid(1), 9))
        app.feed(pid(1))
        app.advance()
        db.start_backup(BackupConfig(steps=2))
        db.run_backup()
        db.execute(PhysicalWrite(pid(2), 2))
        app.feed(pid(2))
        app.advance()
        app.emit(pid(3))
        db.media_failure()
        assert db.media_recover().ok
        resumed = RecoverableApplication.resume(db, APP)
        assert resumed.step_number == 2
        assert resumed.user_state == 11
        assert db.read(pid(3)) == 11

    def test_resume_unlaunched_rejected(self, db):
        with pytest.raises(ReproError):
            RecoverableApplication.resume(db, pid(5))

    def test_backup_order_matters_for_iwof(self, db):
        """The app page (slot 30, near the partition end) is backed up
        late: feeds during a backup incur no Iw/oF (§6.2)."""
        import random

        app = RecoverableApplication.launch(db, APP, "summer", 0)
        rng = random.Random(1)
        data = [pid(s) for s in range(1, 10)]
        for page in data:
            db.execute(PhysicalWrite(page, 1))
        db.start_backup(BackupConfig(steps=4))
        while db.backup_in_progress():
            db.backup_step(2)
            source = rng.choice(data)
            app.feed(source)
            app.advance()
            db.execute(PhysicalWrite(source, rng.randrange(10)))
            db.install_some(2, rng)
        assert db.metrics.iwof_during_backup == 0
        db.media_failure()
        assert db.media_recover().ok


class TestOperationShapes:
    def test_feed_successor_pair(self):
        op = AppFeed(pid(1), APP)
        assert op.successor_pairs() == ((APP, pid(1)),)

    def test_emit_successor_pair(self):
        op = AppEmit(APP, pid(2))
        assert op.successor_pairs() == ((pid(2), APP),)

    def test_step_is_page_oriented(self):
        op = AppStep(APP, "summer")
        assert op.readset == op.writeset == {APP}

    def test_double_registration_same_fn_ok(self):
        register_logic("summer", summing_logic)  # idempotent

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ReproError):
            register_logic("summer", lambda s, i: (s, i))
