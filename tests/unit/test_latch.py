"""Unit tests for the backup latch."""

import threading
import time

import pytest

from repro.core.latch import BackupLatch
from repro.errors import LatchError


@pytest.fixture
def latch():
    return BackupLatch(partition=0)


class TestSharedMode:
    def test_multiple_shared_holders(self, latch):
        latch.acquire_shared()
        latch.acquire_shared()
        assert latch.held_shared
        latch.release_shared()
        latch.release_shared()
        assert not latch.held_shared

    def test_release_without_hold(self, latch):
        with pytest.raises(LatchError):
            latch.release_shared()

    def test_shared_blocked_by_exclusive(self, latch):
        latch.acquire_exclusive()
        with pytest.raises(LatchError):
            latch.acquire_shared()


class TestExclusiveMode:
    def test_exclusive_blocked_by_shared(self, latch):
        latch.acquire_shared()
        with pytest.raises(LatchError):
            latch.acquire_exclusive()

    def test_exclusive_blocked_by_exclusive(self, latch):
        latch.acquire_exclusive()
        with pytest.raises(LatchError):
            latch.acquire_exclusive()

    def test_release_without_hold(self, latch):
        with pytest.raises(LatchError):
            latch.release_exclusive()


class TestContextManagers:
    def test_shared_scope(self, latch):
        with latch.shared():
            assert latch.held_shared
        assert not latch.held_shared

    def test_exclusive_scope(self, latch):
        with latch.exclusive():
            assert latch.held_exclusive
        assert not latch.held_exclusive

    def test_released_on_exception(self, latch):
        with pytest.raises(RuntimeError):
            with latch.exclusive():
                raise RuntimeError("boom")
        assert not latch.held_exclusive

    def test_acquisition_counters(self, latch):
        with latch.shared():
            pass
        with latch.exclusive():
            pass
        assert latch.shared_acquisitions == 1
        assert latch.exclusive_acquisitions == 1


class TestCrossThread:
    """Real-thread semantics: same-thread conflicts raise (the protocol
    bug they catch is a deadlock-in-waiting), cross-thread conflicts
    block until the holder releases."""

    def test_exclusive_blocks_other_thread_shared(self, latch):
        order = []
        latch.acquire_exclusive()

        def reader():
            latch.acquire_shared()  # must block until release below
            order.append("acquired")
            latch.release_shared()

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=0.05)
        assert thread.is_alive(), "reader got the latch under exclusive"
        order.append("releasing")
        latch.release_exclusive()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert order == ["releasing", "acquired"]

    def test_shared_blocks_other_thread_exclusive(self, latch):
        latch.acquire_shared()
        acquired = threading.Event()

        def writer():
            latch.acquire_exclusive()
            acquired.set()
            latch.release_exclusive()

        thread = threading.Thread(target=writer)
        thread.start()
        assert not acquired.wait(timeout=0.05)
        latch.release_shared()
        thread.join(timeout=5)
        assert acquired.is_set()

    def test_stress_invariants(self, latch):
        """Hammer the latch from real threads; mutual exclusion and the
        shared counter must hold at every instant."""
        state = {"readers": 0, "writers": 0}
        violations = []
        check_lock = threading.Lock()
        rounds = 60

        def note(delta_readers, delta_writers):
            with check_lock:
                state["readers"] += delta_readers
                state["writers"] += delta_writers
                if state["writers"] > 1:
                    violations.append("two writers")
                if state["writers"] and state["readers"]:
                    violations.append("writer alongside readers")

        def reader():
            for index in range(rounds):
                with latch.shared():
                    note(+1, 0)
                    if index % 8 == 0:  # widen the hold so overlaps show
                        time.sleep(0.0005)
                    note(-1, 0)

        def writer():
            for index in range(rounds):
                with latch.exclusive():
                    note(0, +1)
                    if index % 8 == 0:
                        time.sleep(0.0005)
                    note(0, -1)

        threads = ([threading.Thread(target=reader) for _ in range(3)]
                   + [threading.Thread(target=writer) for _ in range(2)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert violations == []
        assert not latch.held_shared and not latch.held_exclusive
        assert latch.shared_acquisitions == 3 * rounds
        assert latch.exclusive_acquisitions == 2 * rounds



def wait_until(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


def exclusive_waiting(latch):
    return getattr(latch, "_exclusive_waiting", 0)


class TestWriterPreference:
    """A waiting exclusive request (a D/P move) blocks new shared holders,
    so overlapping flushes cannot starve the backup.  Helper threads are
    daemons and the main thread drops its hold on every exit, so a
    failing check cannot leave a thread blocked on the latch."""

    def test_new_shared_waits_behind_a_waiting_exclusive(self, latch):
        order = []
        b_release = threading.Event()

        def b():
            latch.acquire_exclusive()
            order.append("B acquired")
            b_release.wait(timeout=5)
            order.append("B released")
            latch.release_exclusive()

        def c():
            latch.acquire_shared()
            order.append("C acquired")
            latch.release_shared()

        thread_b = threading.Thread(target=b, daemon=True)
        thread_c = threading.Thread(target=c, daemon=True)
        latch.acquire_shared()  # thread A (this thread) holds shared
        holding = True
        try:
            thread_b.start()
            wait_until(lambda: exclusive_waiting(latch) == 1, timeout=1,
                       what="B's exclusive request to be registered")
            thread_c.start()
            thread_c.join(timeout=0.05)
            assert order == [], "C overtook the waiting exclusive"
            latch.release_shared()  # A leaves: B is next, not C
            holding = False
            wait_until(lambda: order == ["B acquired"], what="B")
            assert thread_c.is_alive()
        finally:
            if holding:
                latch.release_shared()
            b_release.set()
            for thread in (thread_b, thread_c):
                if thread.ident is not None:  # started
                    thread.join(timeout=5)
        assert not thread_b.is_alive() and not thread_c.is_alive()
        assert order == ["B acquired", "B released", "C acquired"]

    def test_shared_holder_reenters_past_a_waiting_exclusive(self, latch):
        acquired = threading.Event()

        def writer():
            latch.acquire_exclusive()
            acquired.set()
            latch.release_exclusive()

        thread = threading.Thread(target=writer, daemon=True)
        latch.acquire_shared()
        try:
            thread.start()
            wait_until(lambda: exclusive_waiting(latch) == 1, timeout=1,
                       what="the writer's request to be registered")
            # Must not wait on the writer that is waiting on this hold.
            latch.acquire_shared()
            assert latch.shared_acquisitions == 2
            latch.release_shared()
            assert not acquired.is_set()
        finally:
            latch.release_shared()
            thread.join(timeout=5)
        assert acquired.is_set()
        assert exclusive_waiting(latch) == 0
