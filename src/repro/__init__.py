"""repro — reproduction of Lomet, "High Speed On-line Backup When Using
Logical Log Operations" (SIGMOD 2000).

Public API highlights:

* :class:`~repro.db.Database` — the full system: stable store, WAL, cache
  manager with write-graph flush ordering, online backup engine, crash
  and media recovery.  Backups are configured with
  :class:`~repro.core.config.BackupConfig`; every recovery entry point
  returns a :class:`~repro.recovery.explain.RecoveryOutcome`.
* Operation constructors in :mod:`repro.ops` — physical, physiological,
  general logical, tree (``MovRec``/``RmvRec``), and identity writes.
* Fault injection in :mod:`repro.sim.faults` — a
  :class:`~repro.sim.faults.FaultPlane` of :class:`FaultSpec`\\ s
  injecting torn writes, transient I/O errors, crashes, and silent bit
  rot at every I/O boundary; tick-level schedules via
  :class:`~repro.sim.failure.CrashPlan` /
  :class:`~repro.sim.failure.IOFaultPlan`.
* Flush policies in :mod:`repro.core.policy` — general (section 3.5),
  tree (section 4.2), page-oriented (the conventional baseline).
* :mod:`repro.core.analysis` — the closed-form extra-logging model of
  section 5 (the curves of Figure 5).
* Observability in :mod:`repro.obs` — attach a :class:`~repro.obs.Tracer`
  (``Database(tracer=...)`` or ``db.attach_tracer``) to record structured
  events (flush decisions, Iw/oF writes, backup steps, fault injections,
  redo decisions, recovery phases) and per-phase timing histograms; the
  default :data:`~repro.obs.NULL_TRACER` keeps hot paths at no-op cost.
* The archive tier (see ``docs/ARCHIVE.md``) —
  :class:`~repro.archive.manager.ArchiveManager`
  (``db.attach_archive(...)``) keeps backups as generations of an
  incremental chain under a checksummed, atomically-replaced manifest:
  scheduled incremental sweeps, journal-then-swap compaction, a
  page-level healing ladder for bitrot-damaged generations, and
  point-in-time restore via ``db.restore_to_lsn``.  Retiring a
  generation that retained backups still chain through raises
  :class:`~repro.errors.ChainPinnedError`.
* Corruption robustness (see ``docs/ROBUSTNESS.md``) — every page image
  and log record carries a checksum envelope; damage surfaces as
  :class:`~repro.errors.CorruptPageError` /
  :class:`~repro.errors.CorruptLogRecordError`, recovery heals or
  quarantines it (``RecoveryOutcome.quarantined``), and
  ``python -m repro scrub`` audits every store offline.

``from repro import *`` exposes exactly ``__all__`` (checked by a
doctest in the test suite):

>>> import repro
>>> namespace = {}
>>> exec("from repro import *", namespace)
>>> sorted(k for k in namespace if k != "__builtins__") == sorted(
...     repro.__all__)
True
"""

from repro.archive import ArchiveManager, ChainHealReport
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import (
    ChainPinnedError,
    CorruptLogRecordError,
    CorruptPageError,
    FaultInjectionError,
    ManifestError,
    ReproError,
    SimulatedCrash,
    TornWriteError,
    TransientIOError,
    UnrecoverableError,
)
from repro.ids import LSN, PageId
from repro.kvstore import KVStore
from repro.ops import (
    CopyOp,
    GeneralLogicalOp,
    IdentityWrite,
    MovRec,
    PhysicalWrite,
    PhysiologicalWrite,
    RmvRec,
    WriteNew,
)
from repro.obs import NULL_TRACER, NullTracer, TraceEvent, Tracer
from repro.recovery.explain import RecoveryOutcome
from repro.sim.failure import CrashPlan, FailureInjector, IOFaultPlan
from repro.sim.faults import (
    FaultKind,
    FaultPlane,
    FaultSpec,
    IOPoint,
    RetryPolicy,
)
from repro.txn import Transaction, TransactionManager

__version__ = "2.0.0"

__all__ = [
    # The system
    "Database",
    "BackupConfig",
    "RecoveryOutcome",
    "PageId",
    "LSN",
    # Operations
    "PhysicalWrite",
    "PhysiologicalWrite",
    "GeneralLogicalOp",
    "CopyOp",
    "WriteNew",
    "MovRec",
    "RmvRec",
    "IdentityWrite",
    # Layers on top
    "KVStore",
    "Transaction",
    "TransactionManager",
    # Fault injection
    "FaultPlane",
    "FaultSpec",
    "FaultKind",
    "IOPoint",
    "RetryPolicy",
    "CrashPlan",
    "IOFaultPlan",
    "FailureInjector",
    # Archive tier
    "ArchiveManager",
    "ChainHealReport",
    # Observability
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    # Errors
    "ReproError",
    "UnrecoverableError",
    "FaultInjectionError",
    "TransientIOError",
    "TornWriteError",
    "SimulatedCrash",
    "CorruptPageError",
    "CorruptLogRecordError",
    "ChainPinnedError",
    "ManifestError",
    "__version__",
]
