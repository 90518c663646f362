"""The fault sweep: recoverability under storage-level fault injection.

``python -m repro faultsweep`` runs a deterministic scenario matrix over
the fault plane (:mod:`repro.sim.faults`) and reports, per scenario, how
many runs recovered to the oracle state.  The matrix covers every fault
class at every instrumented I/O boundary:

* **transient** — seeded transient ``IOError``\\ s at reads, writes, log
  appends and forces; the bounded retry machinery must absorb them and
  the run must still media-recover;
* **torn backup span** — a bulk backup sweep span lands only partially;
  the backup process must detect the tear, resume the remainder, and the
  finished backup must still support media recovery;
* **torn install** — a multi-page write-graph install lands only
  partially and the system halts; the doublewrite journal must roll the
  prefix back and crash recovery must reach the oracle state;
* **crash sweep** — the exhaustive mode: the same run is repeated with a
  crash injected at the 1st, (1+stride)th, … I/O operation, and crash
  recovery must succeed after *every* one;
* **seeded mix** — a random (but seed-deterministic) schedule of
  transient and torn faults across all points;
* **bit rot** — seeded silent bit flips landed in the stable database,
  the backup image, or the log tail; the integrity envelopes must detect
  the damage and recovery must heal it (older generation, log-driven
  rebuild) or quarantine it — never restore silently-wrong state.  The
  ``bitrot-logtail-after-recovery`` runs rot a log record *after* a
  recovery already verified it, which the next repair must still cut.

Every scenario is run for the serial (page-at-a-time) and batched
(bulk-span) copy engines over one partition, and again for the batched
engine over a four-partition layout (the ``-4part`` scenarios), where
the round-robin planner deals each copy batch across partitions and a
span can tear in any of them.  All randomness derives from the single
``seed`` argument, so every sweep is exactly reproducible.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import CorruptPageError, SimulatedCrash
from repro.sim.faults import FaultKind, FaultPlane, FaultSpec, IOPoint
from repro.sim.failure import FailureInjector, crash_sweep_plans
from repro.workloads import mixed_logical_workload


@dataclass(frozen=True)
class FailureCase:
    """One unrecovered run, with everything needed to replay it.

    The sweep records these as it goes; ``capture_failure_trace`` /
    ``dump_failure_traces`` re-run a case with a recording
    :class:`~repro.obs.Tracer` attached so the event stream of the
    failure (fault injections, recovery phases, redo decisions) can be
    inspected offline.
    """

    scenario: str
    label: str
    specs: Tuple[FaultSpec, ...]
    seed: int
    batched: bool
    partitions: int = 1
    backend: str = "memory"


@dataclass
class ScenarioResult:
    """One scenario row of the sweep report."""

    name: str
    total: int = 0
    recovered: int = 0
    faults_injected: int = 0
    io_retries: int = 0
    detail: str = ""
    failures: List[FailureCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.recovered == self.total

    def tally(self, ok: bool, *case, **fields) -> None:
        """Count one run; an unrecovered one is recorded for replay
        (``case`` and ``fields`` are :meth:`record_failure`'s)."""
        self.total += 1
        if ok:
            self.recovered += 1
        else:
            self.record_failure(*case, **fields)

    def record_failure(
        self, label: str, specs, seed: int, batched: bool,
        partitions: int = 1, backend: str = "memory",
    ) -> None:
        self.detail += f" {label}:FAILED"
        self.failures.append(FailureCase(
            scenario=self.name, label=label, specs=tuple(specs),
            seed=seed, batched=batched, partitions=partitions,
            backend=backend,
        ))


@dataclass
class SweepReport:
    seed: int
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(r.total for r in self.results)

    @property
    def recovered(self) -> int:
        return sum(r.recovered for r in self.results)

    @property
    def all_recovered(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[FailureCase]:
        return [case for r in self.results for case in r.failures]


# --------------------------------------------------------------- scenario core


def _mode_name(batched: bool, partitions: int = 1) -> str:
    if partitions > 1:
        return f"{partitions}part"
    return "batched" if batched else "serial"


def _on(backend: str) -> str:
    """The scenario-name suffix of a non-default backend."""
    return "" if backend == "memory" else f"-{backend}"


def _fresh_db(
    pages: int = 48, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None, tracer=None,
) -> Database:
    """A fresh database for one sweep run: ``pages`` spread evenly over
    ``partitions``.  With ``backend="file"`` every run gets its own
    fresh directory (a subdirectory of ``data_dir`` when given) so a
    crashed run's files stay inspectable and runs never collide.
    """
    run_dir = None
    if backend == "file":
        run_dir = tempfile.mkdtemp(prefix="sweep-", dir=data_dir)
    per_part = max(1, pages // partitions)
    return Database(pages_per_partition=[per_part] * partitions,
                    policy="general", backend=backend, data_dir=run_dir,
                    tracer=tracer)


def _drive(
    db: Database,
    seed: int,
    batched: bool,
    op_count: int = 120,
) -> Tuple[bool, object]:
    """Run workload + backup to completion under whatever faults are armed.

    Returns ``(ok, outcome)``: a mid-run :class:`SimulatedCrash` turns
    the run into a crash-recovery check, a clean finish into a media
    failure + media recovery check.  Either way ``ok`` means the
    recovered state matched the oracle.
    """
    rng = random.Random(seed)
    source = mixed_logical_workload(db.layout, seed=seed, count=op_count)
    # The tick budget scales with the partition count so every layout
    # advances each partition by the same 4 pages per tick: the
    # round-robin planner deals a tick across partitions, and a flat
    # budget would degenerate multi-partition sweeps to one-page spans
    # (which, among other things, can never tear).
    tick = 4 * db.layout.num_partitions
    try:
        db.start_backup(BackupConfig(steps=4, batched=batched))
        exhausted = False
        while db.backup_in_progress() or not exhausted:
            if db.backup_in_progress():
                db.backup_step(tick)
            exhausted = True
            for _ in range(2):
                op = next(source, None)
                if op is None:
                    break
                db.execute(op)
                exhausted = False
            db.install_some(2, rng)
    except SimulatedCrash:
        db.crash()
        outcome = db.recover()
        return outcome.ok, outcome
    db.media_failure()
    outcome = db.media_recover()
    return outcome.ok, outcome


def _run_one(
    specs: List[FaultSpec], seed: int, batched: bool, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None, tracer=None,
) -> Tuple[bool, Database]:
    db = _fresh_db(partitions=partitions, backend=backend,
                   data_dir=data_dir, tracer=tracer)
    db.attach_faults(FaultPlane(specs))
    ok, _ = _drive(db, seed, batched)
    # Release file descriptors (file backend); in-memory state —
    # metrics, fault counters — stays readable for the caller.
    db.close()
    return ok, db


def _measure_io_budget(
    seed: int, batched: bool, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None,
) -> Tuple[int, dict]:
    """One fault-free run with a bare plane, counting every I/O event.

    Returns the global I/O count and the per-point counters (the
    ``point_budgets`` seeded schedules draw from).
    """
    db = _fresh_db(partitions=partitions, backend=backend,
                   data_dir=data_dir)
    plane = db.attach_faults(FaultPlane())
    ok, _ = _drive(db, seed, batched)
    db.close()
    if not ok:
        raise AssertionError("fault-free baseline run failed to recover")
    return plane.io_count, dict(plane.count_by_point)


# ------------------------------------------------------------------- scenarios


def _transient_scenario(
    seed: int, batched: bool, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Transient faults at every instrumented point, one run per point."""
    name = f"transient-{_mode_name(batched, partitions)}{_on(backend)}"
    result = ScenarioResult(name)
    for point in IOPoint.ALL:
        specs = [FaultSpec(FaultKind.TRANSIENT, point=point, at_io=2,
                           times=2)]
        ok, db = _run_one(specs, seed, batched, partitions,
                          backend=backend, data_dir=data_dir)
        plane = db.faults
        # A point the run never reaches (fault never fired) still counts
        # as recovered — the run is fault-free by construction then.
        result.tally(ok, point, specs, seed, batched, partitions,
                     backend=backend)
        result.faults_injected += plane.injected_total
        result.io_retries += db.metrics.io_retries
    return result


def _torn_span_scenario(
    seed: int, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Torn bulk backup spans: detected, resumed, and still recoverable."""
    name = "torn-backup-span"
    if partitions > 1:
        name += f"-{partitions}part"
    name += _on(backend)
    result = ScenarioResult(name)
    resumed = 0
    for at_io in (1, 2, 3):
        specs = [FaultSpec(FaultKind.TORN, point=IOPoint.BACKUP_BULK_RECORD,
                           at_io=at_io, keep=1)]
        ok, db = _run_one(specs, seed, batched=True, partitions=partitions,
                          backend=backend, data_dir=data_dir)
        result.tally(ok, f"at_io={at_io}", specs, seed, True, partitions,
                     backend=backend)
        result.faults_injected += db.faults.injected_total
        result.io_retries += db.metrics.io_retries
        resumed += db.metrics.torn_spans_resumed
    result.detail += f" resumed={resumed}"
    return result


def _torn_install_scenario(
    seed: int, batched: bool, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Torn multi-page installs: doublewrite rollback + crash recovery."""
    name = f"torn-install-{_mode_name(batched, partitions)}{_on(backend)}"
    result = ScenarioResult(name)
    repaired = 0
    for at_io in (1, 2, 4):
        specs = [FaultSpec(FaultKind.TORN, point=IOPoint.STABLE_MULTI_WRITE,
                           at_io=at_io, keep=1)]
        ok, db = _run_one(specs, seed, batched, partitions,
                          backend=backend, data_dir=data_dir)
        result.tally(ok, f"at_io={at_io}", specs, seed, batched, partitions,
                     backend=backend)
        result.faults_injected += db.faults.injected_total
        repaired += db.metrics.torn_writes_repaired
    result.detail += f" repaired={repaired}"
    return result


def _crash_sweep_scenario(
    seed: int, batched: bool, stride: int, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Crash at every Nth I/O point of the deterministic baseline run."""
    name = f"crash-sweep-{_mode_name(batched, partitions)}{_on(backend)}"
    budget, _ = _measure_io_budget(seed, batched, partitions,
                                   backend=backend, data_dir=data_dir)
    result = ScenarioResult(name, detail=f" io_budget={budget}")
    for plan in crash_sweep_plans(budget, stride=stride):
        specs = [plan.to_spec()]
        ok, db = _run_one(specs, seed, batched, partitions,
                          backend=backend, data_dir=data_dir)
        result.tally(ok, f"at_io={plan.at_io}", specs, seed, batched,
                     partitions, backend=backend)
        result.faults_injected += db.faults.injected_total
    return result


def _seeded_mix_scenario(
    seed: int, batched: bool, rounds: int, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Seeded random transient/torn schedules across all points."""
    name = f"seeded-mix-{_mode_name(batched, partitions)}{_on(backend)}"
    budget, per_point = _measure_io_budget(seed, batched, partitions,
                                           backend=backend,
                                           data_dir=data_dir)
    result = ScenarioResult(name)
    for round_index in range(rounds):
        db = _fresh_db(partitions=partitions, backend=backend,
                       data_dir=data_dir)
        injector = FailureInjector.seeded(
            db, seed * 1000 + round_index, budget, count=4,
            point_budgets=per_point,
        )
        ok, _ = _drive(db, seed, batched)
        db.close()
        result.tally(ok, f"round={round_index}",
                     [plan.to_spec() for plan in injector.io_plans],
                     seed, batched, partitions, backend=backend)
        result.faults_injected += injector.faults_injected
        result.io_retries += db.metrics.io_retries
    return result


def _run_bitrot_one(
    spec: FaultSpec, seed: int, batched: bool, finish: str, tracer=None,
    partitions: int = 1, backend: str = "memory",
    data_dir: Optional[str] = None,
):
    """One bitrot run: drive the workload, then force a recovery check.

    ``finish`` picks the recovery path that exercises the rotted store:
    ``"crash"`` (stable pages / log tail must be healed or quarantined
    by crash recovery's escalation ladder) or ``"media"`` (a rotted
    backup must be caught by media recovery's integrity gate).  Damage
    detected *mid-run* — a checksummed read tripping over the rot —
    downgrades to a crash + recover check on the spot.
    """
    db = _fresh_db(partitions=partitions, backend=backend,
                   data_dir=data_dir, tracer=tracer)
    db.attach_faults(FaultPlane([spec]))
    rng = random.Random(seed)
    source = mixed_logical_workload(db.layout, seed=seed, count=120)
    tick = 4 * db.layout.num_partitions  # see _drive
    try:
        db.start_backup(BackupConfig(steps=4, batched=batched))
        exhausted = False
        while db.backup_in_progress() or not exhausted:
            if db.backup_in_progress():
                db.backup_step(tick)
            exhausted = True
            for _ in range(2):
                op = next(source, None)
                if op is None:
                    break
                db.execute(op)
                exhausted = False
            db.install_some(2, rng)
    except (SimulatedCrash, CorruptPageError):
        db.crash()
        outcome = db.recover()
        db.close()
        return outcome, db
    if finish == "media":
        db.media_failure()
        outcome = db.media_recover()
        db.close()
        return outcome, db
    db.crash()
    outcome = db.recover()
    db.close()
    return outcome, db


def _bitrot_at_ios(budget: int, samples: int) -> List[int]:
    """Evenly spread ``samples`` 1-indexed I/O ordinals over ``budget``."""
    if budget <= 0:
        return []
    return sorted({max(1, (budget * i) // samples)
                   for i in range(1, samples + 1)})


def _bitrot_scenarios(
    seed: int, batched: bool, samples: int = 3, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None,
) -> List[ScenarioResult]:
    """Seeded bit flips per store; every run must heal or quarantine.

    Three scenarios per engine mode, one per rot site: ``bitrot-stable``
    (a stable page image rots during an install), ``bitrot-backup`` (a
    copied backup page rots while the backup is recorded), and
    ``bitrot-logtail`` (a log record's envelope rots at append time).
    ``recovered`` counts runs whose recovery outcome is *honest*: the
    state matches the oracle everywhere outside an explicitly reported
    quarantine set.  A silently-wrong restore counts as a failure.
    """
    mode = _mode_name(batched, partitions) + _on(backend)
    _, per_point = _measure_io_budget(seed, batched, partitions,
                                      backend=backend, data_dir=data_dir)
    targets = (
        ("stable", IOPoint.STABLE_MULTI_WRITE, "crash"),
        ("backup",
         IOPoint.BACKUP_BULK_RECORD if batched else IOPoint.BACKUP_RECORD,
         "media"),
        ("logtail", IOPoint.LOG_APPEND, "crash"),
    )
    results = []
    for target, point, finish in targets:
        budget = per_point.get(point, 0)
        name = f"bitrot-{target}-{mode}"
        result = ScenarioResult(name, detail=f" point_budget={budget}")
        quarantined = 0
        for at_io in _bitrot_at_ios(budget, samples):
            spec = FaultSpec(FaultKind.BITROT, point=point, at_io=at_io,
                             seed=seed)
            outcome, db = _run_bitrot_one(spec, seed, batched, finish,
                                          partitions=partitions,
                                          backend=backend,
                                          data_dir=data_dir)
            result.tally(outcome.ok, f"at_io={at_io}", [spec], seed,
                         batched, partitions, backend=backend)
            result.faults_injected += db.faults.injected_total
            result.io_retries += db.metrics.io_retries
            quarantined += len(getattr(outcome, "quarantined", []))
        result.detail += f" quarantined={quarantined}"
        results.append(result)
    return results


def _logtail_after_recovery_scenario(
    seed: int, backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Tail rot after a recovery: crash, recover, rot, crash, recover.

    Torn-tail repair checks only the records above its verified
    watermark, so a record rotted in place after the last repair — the
    newest one, at the next log append — must pull the watermark back.
    A run counts as recovered only if the second recovery reaches the
    oracle state *and* leaves no record failing its envelope.
    """
    result = ScenarioResult("bitrot-logtail-after-recovery" + _on(backend))
    spec = FaultSpec(FaultKind.BITROT, point=IOPoint.LOG_APPEND, at_io=1,
                     seed=seed)
    for extra in (1, 4, 16):
        ok, db = _run_logtail_after_recovery_one(
            spec, seed, extra, backend=backend, data_dir=data_dir,
        )
        result.tally(ok, f"extra={extra}", [spec], seed, True,
                     backend=backend)
        result.faults_injected += db.faults.injected_total
    return result


def _run_logtail_after_recovery_one(
    spec: FaultSpec, seed: int, extra: int,
    backend: str = "memory", data_dir: Optional[str] = None, tracer=None,
) -> Tuple[bool, Database]:
    """One run: drive, crash, recover, arm ``spec`` (rot at the next
    append), ``extra`` more operations, crash, recover."""
    db = _fresh_db(backend=backend, data_dir=data_dir, tracer=tracer)
    ok, _ = _drive(db, seed, batched=True)
    db.crash()
    ok = db.recover().ok and ok
    db.attach_faults(FaultPlane([spec]))
    for op in mixed_logical_workload(db.layout, seed=seed + extra,
                                     count=extra):
        db.execute(op)
    db.install_some(extra, random.Random(seed))
    db.crash()
    ok = db.recover().ok and not db.log.damaged_records() and ok
    db.close()
    return ok, db


def _rot_backup_page(backup, page_id) -> None:
    """Targeted bit rot in a backup image, envelope left stale."""
    from repro.storage.page import PageVersion, rot_value

    old = backup._versions[page_id]
    backup._versions[page_id] = PageVersion(
        rot_value(old.value), old.page_lsn
    )


def _run_instant_one(
    seed: int, batched: bool, rot: str = "none", traffic: bool = True,
    partitions: int = 1, backend: str = "memory",
    data_dir: Optional[str] = None, read_all: bool = True,
    crash: bool = False, tracer=None,
) -> Tuple[bool, Database]:
    """One instant-restore run: mid-restore reads must be exactly right.

    Drives the workload + backup like :func:`_drive`, fails the media,
    begins an instant restore, then reads every page on demand in a
    shuffled order and pins each value against the oracle state at the
    failure point (quarantined pages must read the initial value;
    anything else is a silent corruption).  ``traffic=True``
    additionally writes through unrestored pages mid-restore and checks
    the writes win over the drain.  ``rot`` picks the integrity path:
    ``"fallback"`` rots the newest of two generations (restore must fall
    back to the intact one), ``"quarantine"`` rots the only generation
    (honest degrade).  ``read_all=False`` reads only a few pages
    (traffic writes are flushed in part by one ``install_some``), so the
    drain restores almost every page in bulk.  ``crash=True`` crashes
    instead of finishing the restore: ``recover()`` must complete it,
    traffic included, and release the restore's log pin.  Afterwards
    (and a checkpoint) the stable store must hold every page's recovered
    or written value.
    """
    from repro.ops.physical import PhysicalWrite

    db = _fresh_db(partitions=partitions, backend=backend,
                   data_dir=data_dir, tracer=tracer)
    rng = random.Random(seed)
    source = mixed_logical_workload(db.layout, seed=seed, count=120)
    tick = 4 * db.layout.num_partitions  # see _drive
    db.start_backup(BackupConfig(steps=4, batched=batched))
    exhausted = False
    while db.backup_in_progress() or not exhausted:
        if db.backup_in_progress():
            db.backup_step(tick)
        exhausted = True
        for _ in range(2):
            op = next(source, None)
            if op is None:
                break
            db.execute(op)
            exhausted = False
        db.install_some(2, rng)
    if rot == "fallback":
        # Second generation over more updates; rot the newest so the
        # integrity gate must restore the older intact image instead.
        for _ in range(12):
            op = next(source, None)
            if op is None:
                break
            db.execute(op)
        db.start_backup(BackupConfig(steps=4, batched=batched))
        newest = db.run_backup(BackupConfig(pages_per_tick=tick))
        _rot_backup_page(newest, newest.copy_order()[0])
    elif rot == "quarantine":
        backup = db.latest_backup()
        _rot_backup_page(backup, backup.copy_order()[0])
    expected = db.oracle.state()
    initial = db.initial_value
    db.media_failure()
    db.begin_instant_restore()
    pages = list(db.layout.all_pages())
    order = list(pages)
    random.Random(seed + 1).shuffle(order)
    observed = {pid: db.read(pid)
                for pid in (order if read_all else order[:6])}
    written = {}
    if traffic:
        for i, pid in enumerate(order[::9]):
            written[pid] = ("mid-restore", seed, i)
            db.execute(PhysicalWrite(pid, written[pid]))
        if not read_all:
            db.install_some(2, rng)
    if crash:
        # The log is forced on every append, so the crash loses nothing.
        db.crash()
        outcome = db.recover()
        ok = outcome.ok and db.retention.active_restore is None
    else:
        outcome = db.finish_instant_restore()
        ok = outcome.ok
    quarantined = set(outcome.quarantined)

    def recovered(pid):
        return initial if pid in quarantined else expected.get(pid, initial)

    for pid, value in observed.items():
        if value != recovered(pid):
            ok = False
    # Flush everything, then the store itself must hold every page's
    # recovered or written value: a drain that clobbered a page traffic
    # had already restored, rewritten and flushed shows up here.
    db.checkpoint()
    stored = db.stable.snapshot()
    for pid in pages:
        if stored[pid].value != written.get(pid, recovered(pid)):
            ok = False
    db.close()
    return ok, db


#: Instant-restore cases: label -> (rot, mid-restore traffic, crash
#: instead of finish).  The lazy-drain family carries traffic in every
#: case.
_INSTANT_CASES = {
    "mid-restore-traffic": ("none", True, False),
    "bitrot-fallback": ("fallback", False, False),
    "bitrot-quarantine": ("quarantine", False, False),
    "crash-mid-restore": ("none", True, True),
}


def _instant_scenarios(
    seed: int, batched: bool, partitions: int = 1,
    backend: str = "memory", data_dir: Optional[str] = None,
    read_all: bool = True,
) -> ScenarioResult:
    """Mid-restore correctness: plain, bitrot-fallback, quarantine, and a
    crash mid-restore.

    ``read_all=False`` is ``instant-restore-lazy-drain``: a few reads
    and mid-restore traffic in every case, so the drain's bulk path
    restores almost every page under each integrity path.
    """
    mode = _mode_name(batched, partitions) if read_all else "lazy-drain"
    result = ScenarioResult(f"instant-restore-{mode}{_on(backend)}")
    for label, (rot, traffic, crash) in _INSTANT_CASES.items():
        ok, db = _run_instant_one(seed, batched, rot=rot,
                                  traffic=traffic or not read_all,
                                  partitions=partitions, backend=backend,
                                  data_dir=data_dir, read_all=read_all,
                                  crash=crash)
        result.tally(ok, label, [], seed, batched, partitions,
                     backend=backend)
        result.detail = (
            f" on_demand={db.metrics.pages_restored_on_demand}"
            f" background={db.metrics.pages_restored_background}"
        )
    return result


# ---------------------------------------------------------- archive scenarios


def _archive_db(
    seed: int, pages: int = 48,
    backend: str = "memory", data_dir: Optional[str] = None, tracer=None,
):
    """A database carrying a three-generation archive chain.

    Builds a base full plus two incremental generations with workload
    interleaved through every sweep (the chain is fuzzy the same way
    production chains are).  Returns ``(db, archive, source, rng)`` so a
    scenario can keep driving the same workload stream afterwards.
    """
    db = _fresh_db(pages=pages, backend=backend, data_dir=data_dir,
                   tracer=tracer)
    rng = random.Random(seed)
    source = mixed_logical_workload(db.layout, seed=seed, count=10**9)

    def burst(count):
        for _ in range(count):
            db.execute(next(source))
        db.install_some(2, rng)

    def tick():
        burst(2)

    burst(30)
    archive = db.attach_archive(BackupConfig(steps=4, batched=True))
    archive.run_full(tick=tick)
    burst(20)
    archive.run_incremental(tick=tick)
    burst(20)
    archive.run_incremental(tick=tick)
    return db, archive, source, rng


def _archive_bitrot_scenario(
    seed: int, backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Bitrot in the chain's *middle* generation: heal, then restore.

    Rots pages of the middle incremental (the case where both healing
    ladder rungs are reachable: a newer generation may shadow the page,
    else it must be rebuilt from the base plus the log).  After
    ``heal_chain`` the full chain restore must be honest — oracle-exact
    outside an explicitly quarantined set.
    """
    result = ScenarioResult("archive-chain-bitrot-middle" + _on(backend))
    healed = quarantined = 0
    for case in range(3):
        ok, report = _run_archive_bitrot_one(seed, case, backend=backend,
                                             data_dir=data_dir)
        result.tally(ok, f"case={case}", [], seed, True, backend=backend)
        healed += len(report.healed)
        quarantined += len(report.quarantined)
    result.detail += f" healed={healed} quarantined={quarantined}"
    return result


def _run_archive_bitrot_one(
    seed: int, case: int, backend: str = "memory",
    data_dir: Optional[str] = None, tracer=None,
):
    """One run: rot the middle generation, heal, restore the chain.
    Returns ``(ok, heal report)``."""
    db, archive, _, _ = _archive_db(seed + case, backend=backend,
                                    data_dir=data_dir, tracer=tracer)
    middle = archive.chain()[1]
    order = middle.copy_order()
    for i in range(min(2, len(order))):
        middle._rot_cell(order[(case * 7 + i * 3) % len(order)])
    report = archive.heal_chain()
    db.media_failure()
    outcome = db.media_recover_chain(archive.chain())
    db.close()
    return outcome.ok, report


def _archive_compaction_crash_scenario(
    seed: int, backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Crash mid-compaction: the old chain must survive, the retry must
    finish.

    Arms a crash at the Nth bulk-record I/O of the merged build.  After
    the crash the manifest must still name exactly the old generations,
    the intent journal must be gone, crash recovery must succeed, the
    old chain must still restore, and a retried compaction must collapse
    the chain to one generation that also restores.
    """
    result = ScenarioResult("archive-compaction-crash" + _on(backend))
    # 160 pages -> the merged overlay spans 3 bulk-record batches, so
    # the crash lands at the start, middle, and end of the build.
    for at_io in (1, 2, 3):
        spec = FaultSpec(FaultKind.CRASH,
                         point=IOPoint.BACKUP_BULK_RECORD, at_io=at_io)
        ok, db = _run_archive_compaction_crash_one(
            spec, seed, backend=backend, data_dir=data_dir
        )
        result.tally(ok, f"at_io={at_io}", [spec], seed, True,
                     backend=backend)
        result.faults_injected += db.faults.injected_total
    return result


def _run_archive_compaction_crash_one(
    spec: FaultSpec, seed: int, backend: str = "memory",
    data_dir: Optional[str] = None, tracer=None,
) -> Tuple[bool, Database]:
    """One run: compact under ``spec``'s crash, recover, restore, retry."""
    from repro.archive.manager import ArchiveManager

    db, archive, _, _ = _archive_db(seed, pages=160, backend=backend,
                                    data_dir=data_dir, tracer=tracer)
    before_ids = list(archive.manifest.generation_ids())
    db.attach_faults(FaultPlane([spec]))
    crashed = False
    try:
        archive.compact()
    except SimulatedCrash:
        crashed = True
    db.crash()
    crash_ok = db.recover().ok
    # Simulated process restart: a fresh manager over the same
    # manifest store must come up on the old, untouched chain.
    reborn = ArchiveManager(db, manifest_store=archive.store)
    old_chain_intact = (
        crashed
        and archive.store.load_journal() is None
        and list(reborn.manifest.generation_ids()) == before_ids
    )
    db.media_failure()
    restore_ok = db.media_recover_chain(reborn.chain()).ok
    reborn.compact()
    retry_ok = len(reborn.chain()) == 1
    db.media_failure()
    retry_ok = retry_ok and db.media_recover_chain(reborn.chain()).ok
    db.close()
    return crash_ok and old_chain_intact and restore_ok and retry_ok, db


def _archive_pitr_scenario(
    seed: int, backend: str = "memory", data_dir: Optional[str] = None,
) -> ScenarioResult:
    """Point-in-time restore to a pre-corruption cut.

    Records the middle generation's seal point, replays the retained log
    to that cut for the expected state, then lets an "intruder" write
    garbage and the workload continue past the cut.  After total media
    failure, ``restore_to_lsn(cut)`` must reproduce the pre-corruption
    state exactly — no garbage, no post-cut effects.
    """
    result = ScenarioResult("archive-pitr-precorruption" + _on(backend))
    for case in range(2):
        ok, mismatches = _run_archive_pitr_one(seed, case, backend=backend,
                                               data_dir=data_dir)
        result.tally(ok, f"case={case} mismatches={mismatches}", [],
                     seed, True, backend=backend)
    return result


def _run_archive_pitr_one(
    seed: int, case: int, backend: str = "memory",
    data_dir: Optional[str] = None, tracer=None,
) -> Tuple[bool, int]:
    """One run: corrupt past the cut, restore to it.  Returns ``(ok,
    pages differing from the pre-corruption state)``."""
    from repro.ids import PageId
    from repro.ops.physical import PhysicalWrite
    from repro.recovery.redo import RedoReplayer

    db, archive, source, rng = _archive_db(seed + case, backend=backend,
                                           data_dir=data_dir, tracer=tracer)
    cut = archive.chain()[1].completion_lsn
    expected = {}
    RedoReplayer(initial_value=db.initial_value).replay(
        db.log.scan(1, cut), expected
    )
    garbage = ("!!garbage!!", seed, case)
    db.execute(PhysicalWrite(PageId(0, 0), garbage), source="intruder")
    for _ in range(15):
        db.execute(next(source))
    db.install_some(4, rng)
    db.media_failure()
    outcome = db.restore_to_lsn(cut)
    state = db.stable.snapshot()
    mismatches = sum(
        1 for pid, version in state.items()
        if version.value != (expected[pid].value if pid in expected
                             else db.initial_value)
    )
    ok = (outcome.ok and mismatches == 0
          and state[PageId(0, 0)].value != garbage)
    db.close()
    return ok, mismatches


# ------------------------------------------------------------------ the sweep


def run_faultsweep(
    seed: int = 0,
    stride: int = 1,
    quick: bool = False,
    log: Optional[Callable[[str], None]] = None,
    backend: str = "memory",
    data_dir: Optional[str] = None,
) -> SweepReport:
    """Run the full scenario matrix; deterministic in ``seed``.

    ``stride`` thins the exhaustive crash sweep (crash after every
    ``stride``-th I/O instead of every single one); ``quick`` picks a
    stride that keeps the whole sweep around a hundred runs.

    The matrix runs three engine modes: serial (page-at-a-time copies)
    and batched (bulk spans) over one partition, and batched over a
    four-partition layout.

    ``backend="file"`` runs the sweep against the file-backed storage
    backend (:mod:`repro.storage.file_backend`): every run gets a fresh
    directory under ``data_dir`` (system tmp when ``None``).  Because
    fault checks live at the protocol boundary, the injected schedules
    are identical to the memory backend's; the file matrix is a smaller
    pinned smoke — the two batched modes over every fault
    class — since each run now pays real file I/O and fsyncs.
    """
    report = SweepReport(seed=seed)

    def emit(result: ScenarioResult) -> None:
        report.results.append(result)
        if log is not None:
            status = "ok " if result.ok else "FAIL"
            log(f"[{status}] {result.name}: {result.recovered}/"
                f"{result.total} recovered{result.detail}")

    if backend == "file":
        budget, _ = _measure_io_budget(seed, batched=True, backend=backend,
                                       data_dir=data_dir)
        stride = max(stride, budget // 12 or 1)
        for batched, partitions in ((True, 1), (True, 4)):
            emit(_transient_scenario(seed, batched, partitions,
                                     backend=backend, data_dir=data_dir))
            emit(_torn_install_scenario(seed, batched, partitions,
                                        backend=backend, data_dir=data_dir))
            emit(_crash_sweep_scenario(seed, batched, stride, partitions,
                                       backend=backend, data_dir=data_dir))
            emit(_seeded_mix_scenario(seed, batched, rounds=2,
                                      partitions=partitions, backend=backend,
                                      data_dir=data_dir))
            for result in _bitrot_scenarios(seed, batched, samples=2,
                                            partitions=partitions,
                                            backend=backend,
                                            data_dir=data_dir):
                emit(result)
            emit(_instant_scenarios(seed, batched, partitions,
                                    backend=backend, data_dir=data_dir))
        emit(_instant_scenarios(seed, True, backend=backend,
                                data_dir=data_dir, read_all=False))
        emit(_logtail_after_recovery_scenario(
            seed, backend=backend, data_dir=data_dir))
        emit(_torn_span_scenario(seed, backend=backend, data_dir=data_dir))
        emit(_archive_bitrot_scenario(seed, backend=backend,
                                      data_dir=data_dir))
        emit(_archive_compaction_crash_scenario(seed, backend=backend,
                                                data_dir=data_dir))
        emit(_archive_pitr_scenario(seed, backend=backend,
                                    data_dir=data_dir))
        return report

    if quick:
        budget, _ = _measure_io_budget(seed, batched=True)
        stride = max(stride, budget // 24 or 1)

    for batched, partitions in ((False, 1), (True, 1), (True, 4)):
        emit(_transient_scenario(seed, batched, partitions))
        emit(_torn_install_scenario(seed, batched, partitions))
        emit(_crash_sweep_scenario(seed, batched, stride, partitions))
        emit(_seeded_mix_scenario(seed, batched,
                                  rounds=2 if quick else 4,
                                  partitions=partitions))
        for result in _bitrot_scenarios(seed, batched,
                                        samples=2 if quick else 3,
                                        partitions=partitions):
            emit(result)
        emit(_instant_scenarios(seed, batched, partitions))
    emit(_instant_scenarios(seed, True, read_all=False))
    emit(_torn_span_scenario(seed))
    emit(_torn_span_scenario(seed, partitions=4))
    # Tail rot after a recovery: the watermark-bounded torn-tail repair
    # must still cut a record rotted since it last verified it.
    emit(_logtail_after_recovery_scenario(seed))
    # Archive tier: chain healing, compaction crash atomicity, and
    # point-in-time restore to a pre-corruption cut (docs/ARCHIVE.md).
    emit(_archive_bitrot_scenario(seed))
    emit(_archive_compaction_crash_scenario(seed))
    emit(_archive_pitr_scenario(seed))
    return report


# ------------------------------------------------------------- trace capture


def capture_failure_trace(case: FailureCase):
    """Replay one :class:`FailureCase` with a recording tracer attached.

    Returns the list of :class:`~repro.obs.TraceEvent` for the re-run,
    starting with a ``trace_header`` event naming the case.  The sweep is
    deterministic in its seed, so the replay reproduces the failure
    exactly — including which fault fired and which recovery phase saw
    the damage.
    """
    from repro.obs import events as ev
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    tracer.emit(
        ev.TRACE_HEADER,
        scenario=case.scenario,
        label=case.label,
        seed=case.seed,
        batched=case.batched,
        partitions=case.partitions,
        backend=case.backend,
        specs=[
            dict(kind=s.kind, point=s.point, at_io=s.at_io,
                 times=s.times, keep=s.keep, seed=s.seed)
            for s in case.specs
        ],
    )
    try:
        _replay(case, tracer)
    except Exception as exc:  # a failing case may die outright
        tracer.emit(ev.TRACE_HEADER, error=f"{type(exc).__name__}: {exc}")
    return tracer.events


def _label_value(label: str, key: str) -> int:
    """The integer ``key=value`` token of a run label."""
    return int(dict(token.split("=", 1) for token in label.split())[key])


def _replay(case: FailureCase, tracer) -> None:
    """Re-run ``case`` through its scenario's run body with ``tracer``.

    Dispatches on the scenario name: each scenario family has one run
    body, and the case's fields (plus the ``key=value`` run label) are
    exactly that body's arguments.
    """
    name = case.scenario
    if name.startswith("instant-restore-"):
        read_all = "lazy-drain" not in name
        rot, traffic, crash = _INSTANT_CASES[case.label]
        _run_instant_one(
            case.seed, case.batched, rot=rot,
            traffic=traffic or not read_all, partitions=case.partitions,
            backend=case.backend, read_all=read_all, crash=crash,
            tracer=tracer,
        )
    elif name.startswith("bitrot-logtail-after-recovery"):
        _run_logtail_after_recovery_one(
            case.specs[0], case.seed, _label_value(case.label, "extra"),
            backend=case.backend, tracer=tracer,
        )
    elif name.startswith("archive-chain-bitrot-middle"):
        _run_archive_bitrot_one(case.seed, _label_value(case.label, "case"),
                                backend=case.backend, tracer=tracer)
    elif name.startswith("archive-compaction-crash"):
        _run_archive_compaction_crash_one(
            case.specs[0], case.seed, backend=case.backend, tracer=tracer
        )
    elif name.startswith("archive-pitr-precorruption"):
        _run_archive_pitr_one(case.seed, _label_value(case.label, "case"),
                              backend=case.backend, tracer=tracer)
    elif "bitrot-" in name:
        spec = case.specs[0]
        finish = ("media" if spec.point in (
            IOPoint.BACKUP_RECORD, IOPoint.BACKUP_BULK_RECORD
        ) else "crash")
        _run_bitrot_one(spec, case.seed, case.batched, finish,
                        tracer=tracer, partitions=case.partitions,
                        backend=case.backend)
    else:
        # transient, torn-*, crash-sweep, seeded-mix: one armed plane
        # over the standard drive.
        _run_one(list(case.specs), case.seed, case.batched,
                 partitions=case.partitions,
                 backend=case.backend,
                 tracer=tracer)


def dump_failure_traces(
    report: SweepReport,
    path: str,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Re-run every unrecovered case of ``report`` and dump its trace.

    All traces are appended to one JSONL file at ``path``; each line is
    tagged with a ``case`` index so ``python -m repro trace`` can tell
    the streams apart.  Returns the number of cases dumped.
    """
    from repro.obs.tracer import write_jsonl

    dumped = 0
    for case in report.failures:
        events = capture_failure_trace(case)
        write_jsonl(
            events, path, mode="w" if dumped == 0 else "a",
            extra={"case": dumped},
        )
        if log is not None:
            log(f"trace[{dumped}]: {case.scenario} {case.label} "
                f"({len(events)} events)")
        dumped += 1
    return dumped
