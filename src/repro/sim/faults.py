"""Storage/WAL fault injection: the fault plane.

The paper's recoverability argument must hold not just between ticks of
a simulated run but *inside* every I/O operation: a torn multi-page
install, a transient device error mid-sweep, or a crash halfway through
a log force are exactly where flush-order dependencies break.  This
module provides the machinery to perturb those boundaries
systematically:

* :class:`FaultPlane` — a shared injection point every simulated device
  (:class:`~repro.storage.stable_db.StableDatabase`,
  :class:`~repro.storage.backup_db.BackupDatabase`,
  :class:`~repro.wal.log_manager.LogManager`) consults at each I/O
  boundary.  The plane counts I/O events deterministically and fires
  armed :class:`FaultSpec`\\ s when their trigger count is reached.
* :class:`FaultSpec` — one armed fault: *transient* (a bounded number of
  :class:`~repro.errors.TransientIOError`\\ s the caller must retry
  through), *torn* (only a prefix of a multi-part write lands), *crash*
  (:class:`~repro.errors.SimulatedCrash` raised mid-I/O), or *bitrot*
  (silent corruption: the device's corruptor callback flips stored
  content without refreshing its integrity envelope, so the damage is
  only visible to a later checksummed read).
* :func:`with_retries` — the bounded retry-with-backoff helper callers
  use to survive transient faults.  Backoff is simulated (recorded in
  :class:`~repro.sim.metrics.Metrics`, never slept) so runs stay fast
  and deterministic.

Torn-write semantics differ by device, mirroring reality:

* A torn write to the *backup* database raises
  :class:`~repro.errors.TornWriteError` carrying how many pages landed;
  the backup process re-issues the remainder of the span and then
  verifies the whole span against its CRC32 integrity envelopes
  (``BackupDatabase.verify_pages``) — the sweep survives without a
  crash, and a span that re-read damaged content is detected rather
  than silently archived.
* A torn multi-page install into the *stable* database is only
  discoverable after a failure, so it surfaces as
  :class:`~repro.errors.SimulatedCrash`; the prefix stays on disk and
  the shadow (doublewrite) journal kept by ``StableDatabase`` rolls it
  back during recovery, restoring the multi-page atomicity the paper
  assumes.

Bitrot is different from every other kind: it never raises at the
injection site.  The plane invokes the device's ``corrupt`` callback
with a deterministic per-spec RNG; the device mutates one stored page
(or log record) in place, leaving the stale checksum behind.  Detection
is the *store's* job, at read/verify time — which is exactly the gap
the integrity envelopes close.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ReproError, SimulatedCrash, TransientIOError
from repro.obs.events import FAULT_INJECTED
from repro.obs.tracer import NULL_TRACER

T = TypeVar("T")


class IOPoint:
    """Names of the instrumented I/O boundaries.

    Each point is keyed to a method of the storage-backend protocols
    (:mod:`repro.storage.api`): ``stable.*`` to :class:`PageStore`,
    ``backup.*`` to :class:`BackupStore`, ``log.*`` to the log manager's
    append/force surface.  The fault check is performed *inside the
    shared protocol implementation*, before any backend-specific device
    hook runs — so a given seed injects the identical fault schedule
    whether the backend is the in-memory simulation or real files, and
    no backend duplicates (or forgets) a check.
    """

    STABLE_READ = "stable.read_page"
    STABLE_BULK_READ = "stable.read_pages"
    STABLE_WRITE = "stable.write_page"
    STABLE_MULTI_WRITE = "stable.write_multi"
    BACKUP_RECORD = "backup.record_page"
    BACKUP_BULK_RECORD = "backup.record_pages"
    LOG_APPEND = "log.append"
    LOG_FORCE = "log.force"
    ANY = "*"

    ALL = (
        STABLE_READ,
        STABLE_BULK_READ,
        STABLE_WRITE,
        STABLE_MULTI_WRITE,
        BACKUP_RECORD,
        BACKUP_BULK_RECORD,
        LOG_APPEND,
        LOG_FORCE,
    )


class FaultKind:
    TORN = "torn"
    TRANSIENT = "transient"
    CRASH = "crash"
    BITROT = "bitrot"

    ALL = (TORN, TRANSIENT, CRASH, BITROT)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault.

    ``at_io`` is 1-based: the fault fires the first time the matching
    counter (the per-point counter for a specific ``point``, the global
    counter for :data:`IOPoint.ANY`) reaches ``at_io``.  ``times`` is the
    number of consecutive failures a transient fault injects; ``keep``
    is how many parts of a multi-part write land before a torn fault
    truncates it.  ``seed`` feeds the per-spec RNG handed to the
    device's corruptor when a bitrot fault fires (ignored otherwise).
    """

    kind: str
    point: str = IOPoint.ANY
    at_io: int = 1
    times: int = 1
    keep: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FaultKind.ALL:
            raise ReproError(f"unknown fault kind {self.kind!r}")
        if self.point != IOPoint.ANY and self.point not in IOPoint.ALL:
            raise ReproError(f"unknown I/O point {self.point!r}")
        if self.at_io < 1:
            raise ReproError("at_io is 1-based and must be >= 1")
        if self.times < 1:
            raise ReproError("times must be >= 1")
        if self.keep < 0:
            raise ReproError("keep must be >= 0")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with (simulated) exponential backoff."""

    max_attempts: int = 4
    backoff_base: float = 0.001
    multiplier: float = 2.0

    def backoff_for(self, attempt: int) -> float:
        """Simulated delay before retry ``attempt`` (1-based)."""
        return self.backoff_base * self.multiplier ** (attempt - 1)


DEFAULT_RETRY = RetryPolicy()


def with_retries(
    fn: Callable[[], T],
    policy: RetryPolicy = DEFAULT_RETRY,
    metrics=None,
) -> T:
    """Call ``fn``, absorbing up to ``max_attempts - 1`` transient faults.

    Each retry records one ``io_retries`` tick and its simulated backoff
    in ``metrics`` (when given).  A transient error on the final attempt
    propagates — the caller's fault, not the helper's.
    """
    attempt = 1
    while True:
        try:
            return fn()
        except TransientIOError:
            if attempt >= policy.max_attempts:
                raise
            if metrics is not None:
                metrics.io_retries += 1
                metrics.simulated_backoff_s += policy.backoff_for(attempt)
            attempt += 1


class _ArmedFault:
    """Mutable firing state for one spec."""

    __slots__ = ("spec", "fired", "remaining")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.fired = False
        self.remaining = spec.times


class FaultPlane:
    """Deterministic fault injection consulted at every I/O boundary.

    Devices call :meth:`check` *before* performing (the mutating part
    of) an I/O; the plane counts the event and either returns ``None``
    (proceed), returns an ``int`` prefix length (torn write: land that
    many parts, then fail per the device's torn semantics), or raises
    :class:`TransientIOError` / :class:`SimulatedCrash` directly.

    With no specs armed the plane is a pure counter — harnesses use a
    bare plane to measure a run's I/O budget before sweeping
    crash-at-every-I/O-point over it.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), metrics=None):
        self._armed: List[_ArmedFault] = [_ArmedFault(s) for s in specs]
        self.metrics = metrics
        # Tracer (repro.obs): every injection emits a fault_injected
        # event naming the fault kind and the I/O point it fired at.
        self.tracer = NULL_TRACER
        self.enabled = True
        self.io_count = 0
        self.count_by_point: Dict[str, int] = {}
        self.injected_by_kind: Dict[str, int] = {}
        self.injected_total = 0
        # A backup thread beside the service hits the plane concurrently
        # with the service thread; the counters and armed-fault state are
        # read-modify-write, so checks serialize on one lock.  Totals
        # stay deterministic across schedules — only the interleaving of
        # which I/O index lands on which thread varies.
        self._lock = threading.Lock()

    # -------------------------------------------------------------- arming

    def arm(self, spec: FaultSpec) -> None:
        self._armed.append(_ArmedFault(spec))

    def arm_all(self, specs: Sequence[FaultSpec]) -> None:
        for spec in specs:
            self.arm(spec)

    @property
    def pending_specs(self) -> List[FaultSpec]:
        """Specs that have not fired yet."""
        return [a.spec for a in self._armed if not a.fired]

    # ---------------------------------------------------------- suspension

    def suspend(self) -> None:
        """Stop injecting *and counting* (e.g. while recovery runs)."""
        self.enabled = False

    def resume(self) -> None:
        self.enabled = True

    def suspended(self):
        """Context manager: suspend for the duration of a block."""
        return _Suspension(self)

    # ------------------------------------------------------------ checking

    def check(
        self,
        point: str,
        parts: int = 1,
        corrupt: Optional[Callable] = None,
    ) -> Optional[int]:
        """Count one I/O event at ``point`` and fire any due fault.

        ``parts`` is the number of parts (pages) of a multi-part write;
        torn faults only fire when ``parts >= 2`` (a single-part write
        is atomic by the disk-write-atomicity assumption) and stay armed
        otherwise.  ``corrupt`` is the device's bitrot corruptor: called
        with a deterministic RNG when a due bitrot fault fires, it must
        silently damage one stored item and return ``True`` (or
        ``False`` to leave the fault armed — e.g. nothing stored yet).
        Devices that cannot be corrupted pass ``None`` and bitrot specs
        simply stay armed at their points.  Returns the torn prefix
        length, or ``None``.
        """
        if not self.enabled:
            return None
        with self._lock:
            return self._check_locked(point, parts, corrupt)

    def _check_locked(
        self,
        point: str,
        parts: int,
        corrupt: Optional[Callable],
    ) -> Optional[int]:
        self.io_count += 1
        count = self.count_by_point.get(point, 0) + 1
        self.count_by_point[point] = count
        torn_keep: Optional[int] = None
        for armed in self._armed:
            spec = armed.spec
            if spec.point == IOPoint.ANY:
                due = self.io_count >= spec.at_io
            else:
                due = spec.point == point and count >= spec.at_io
            if not due:
                continue
            if spec.kind == FaultKind.TRANSIENT:
                if armed.remaining <= 0:
                    continue
                armed.remaining -= 1
                armed.fired = True
                self._record(FaultKind.TRANSIENT, point)
                raise TransientIOError(point, self.io_count)
            if armed.fired:
                continue
            if spec.kind == FaultKind.BITROT:
                if corrupt is None:
                    continue
                rng = random.Random(f"{spec.seed}:{point}:{spec.at_io}")
                if corrupt(rng):
                    armed.fired = True
                    self._record(FaultKind.BITROT, point)
                continue
            if spec.kind == FaultKind.CRASH:
                armed.fired = True
                self._record(FaultKind.CRASH, point)
                raise SimulatedCrash(point, self.io_count)
            # Torn: needs a multi-part write to be meaningful.
            if parts >= 2:
                armed.fired = True
                self._record(FaultKind.TORN, point)
                keep = min(spec.keep, parts - 1)
                if torn_keep is None or keep < torn_keep:
                    torn_keep = keep
        return torn_keep

    def _record(self, kind: str, point: str) -> None:
        self.injected_total += 1
        self.injected_by_kind[kind] = self.injected_by_kind.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.faults_injected[kind] = (
                self.metrics.faults_injected.get(kind, 0) + 1
            )
        if self.tracer.enabled:
            self.tracer.emit(
                FAULT_INJECTED, kind=kind, point=point, io=self.io_count
            )

    def snapshot(self) -> Dict[str, int]:
        out: Dict[str, int] = {"io_count": self.io_count,
                               "injected_total": self.injected_total}
        for kind, n in sorted(self.injected_by_kind.items()):
            out[f"injected_{kind}"] = n
        return out

    def __repr__(self):
        return (
            f"FaultPlane(io={self.io_count}, armed={len(self._armed)}, "
            f"injected={self.injected_total}, enabled={self.enabled})"
        )


class _Suspension:
    def __init__(self, plane: FaultPlane):
        self._plane = plane
        self._was_enabled = True

    def __enter__(self):
        self._was_enabled = self._plane.enabled
        self._plane.enabled = False
        return self._plane

    def __exit__(self, *exc):
        self._plane.enabled = self._was_enabled
        return False


def seeded_fault_specs(
    rng,
    io_budget: int,
    count: int = 3,
    kinds: Sequence[str] = (FaultKind.TRANSIENT, FaultKind.TORN),
    points: Sequence[str] = IOPoint.ALL,
    max_transient_times: int = 2,
    point_budgets: Optional[Dict[str, int]] = None,
) -> List[FaultSpec]:
    """A deterministic random fault schedule for seeded robustness runs.

    Draws ``count`` faults uniformly over the first ``io_budget`` I/O
    events.  A point-specific spec fires against that point's *own*
    counter, so pass ``point_budgets`` (a baseline plane's
    ``count_by_point``) to keep every draw within reach; points the
    baseline never hit are skipped.  Crash faults are excluded by
    default — a seeded schedule is meant to be *survivable in place*
    (transients retried, torn spans resumed); crash sweeps use explicit
    ``FaultKind.CRASH`` specs.
    """
    if point_budgets is not None:
        points = [p for p in points if point_budgets.get(p, 0) > 0]
        if not points:
            return []
    specs: List[FaultSpec] = []
    for _ in range(count):
        kind = kinds[rng.randrange(len(kinds))]
        point = points[rng.randrange(len(points))]
        budget = io_budget
        if point_budgets is not None:
            budget = min(budget, point_budgets[point])
        at_io = rng.randint(1, max(1, budget))
        times = rng.randint(1, max_transient_times)
        specs.append(FaultSpec(kind=kind, point=point, at_io=at_io,
                               times=times))
    return specs
