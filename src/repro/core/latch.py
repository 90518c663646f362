"""The per-partition backup latch (section 3.4, "Synchronization").

The backup process takes the latch **exclusive** to move D and P; the
cache manager takes it **shared** around a flush so the progress values it
read cannot change mid-flush.  Share mode lets a multi-threaded cache
manager flush concurrently.

The latch is genuinely thread-safe: it is a share/exclusive lock built on
:class:`threading.Condition`, so one backup thread beside the service can
take it exclusive to move D/P while the service thread's flushes take it
shared.  Cross-thread conflicts **block** until
the latch frees, like any real latch.  Same-thread conflicts — acquiring
exclusive while this thread already holds it shared, re-entering
exclusive, releasing without a hold — can never be satisfied by waiting
and still raise :class:`~repro.errors.LatchError` immediately: within one
thread the latch remains a protocol verifier, and the engine/cache-manager
code paths are written so the discipline is exercised on every progress
change and every flush.  Hold counts are tracked so tests can assert the
discipline.

Exclusive requests are preferred: once one is waiting, a new shared
acquire waits behind it, so a steady stream of overlapping flushes cannot
starve a D/P move.  A thread that already holds the latch shared may
still re-enter shared (it would otherwise wait on a request that waits on
it).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional

from repro.errors import LatchError
from repro.obs.events import LATCH_ACQUIRE
from repro.obs.tracer import NULL_TRACER


class BackupLatch:
    def __init__(self, partition: int):
        self.partition = partition
        self._cond = threading.Condition(threading.Lock())
        # Thread ident -> number of shared holds by that thread.
        self._shared_by: Dict[int, int] = {}
        self._exclusive_owner: Optional[int] = None
        # Threads blocked in acquire_exclusive (new shared holds wait).
        self._exclusive_waiting = 0
        # Acquisition counters for tests.
        self.shared_acquisitions = 0
        self.exclusive_acquisitions = 0
        # Tracer (repro.obs): acquisitions emit latch_acquire events.
        self.tracer = NULL_TRACER

    # --------------------------------------------------------------- shared

    def acquire_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._exclusive_owner == me:
                raise LatchError(
                    f"partition {self.partition}: shared acquire while "
                    "held exclusive (backup is moving D/P)"
                )
            while self._exclusive_owner is not None or (
                self._exclusive_waiting and me not in self._shared_by
            ):
                self._cond.wait()
            self._shared_by[me] = self._shared_by.get(me, 0) + 1
            self.shared_acquisitions += 1
        if self.tracer.enabled:
            self.tracer.emit(
                LATCH_ACQUIRE, partition=self.partition, mode="shared"
            )

    def release_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            count = self._shared_by.get(me, 0)
            if count <= 0:
                raise LatchError(
                    f"partition {self.partition}: shared release without hold"
                )
            if count == 1:
                del self._shared_by[me]
                if not self._shared_by:
                    self._cond.notify_all()
            else:
                self._shared_by[me] = count - 1

    @contextmanager
    def shared(self):
        self.acquire_shared()
        try:
            yield self
        finally:
            self.release_shared()

    # ------------------------------------------------------------ exclusive

    def acquire_exclusive(self) -> None:
        me = threading.get_ident()
        with self._cond:
            while True:
                if self._exclusive_owner == me:
                    raise LatchError(
                        f"partition {self.partition}: exclusive acquire "
                        "while held exclusive"
                    )
                mine = self._shared_by.get(me, 0)
                if mine:
                    raise LatchError(
                        f"partition {self.partition}: exclusive acquire "
                        f"while {mine} shared holder(s) are flushing"
                    )
                if self._exclusive_owner is None and not self._shared_by:
                    break
                self._exclusive_waiting += 1
                try:
                    self._cond.wait()
                finally:
                    self._exclusive_waiting -= 1
            self._exclusive_owner = me
            self.exclusive_acquisitions += 1
        if self.tracer.enabled:
            self.tracer.emit(
                LATCH_ACQUIRE, partition=self.partition, mode="exclusive"
            )

    def release_exclusive(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._exclusive_owner != me:
                raise LatchError(
                    f"partition {self.partition}: exclusive release "
                    "without hold"
                )
            self._exclusive_owner = None
            self._cond.notify_all()

    @contextmanager
    def exclusive(self):
        self.acquire_exclusive()
        try:
            yield self
        finally:
            self.release_exclusive()

    # --------------------------------------------------------------- status

    @property
    def held_shared(self) -> bool:
        return bool(self._shared_by)

    @property
    def held_exclusive(self) -> bool:
        return self._exclusive_owner is not None

    def __repr__(self):
        holds = sum(self._shared_by.values())
        mode = (
            "X"
            if self._exclusive_owner is not None
            else f"S[{holds}]"
            if holds
            else "free"
        )
        return f"BackupLatch(partition={self.partition}, {mode})"
