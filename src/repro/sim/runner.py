"""Interleaved execution: workload + cache flushing + backup, tick by tick.

``InterleavedRun`` is the deterministic scheduler behind the experiments:
each tick executes a few workload operations, installs a few write-graph
nodes (the cache manager's background flushing), and copies a few backup
pages.  All randomness comes from one seeded generator, so every run is
reproducible.

The relative rates (``ops_per_tick`` / ``installs_per_tick`` /
``backup.pages_per_tick``) control how much update activity a backup
overlaps — the knob that, in a real system, is the ratio of update
throughput to backup bandwidth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.db import Database
from repro.core.config import BackupConfig
from repro.errors import SimulatedCrash
from repro.ops.base import Operation
from repro.sim.failure import FailureInjector
from repro.storage.backup_db import BackupDatabase


@dataclass
class RunResult:
    ticks: int = 0
    ops_executed: int = 0
    backups_completed: int = 0
    backup: Optional[BackupDatabase] = None
    crashed: bool = False
    media_failed: bool = False
    extra_logging_fraction: float = 0.0


class InterleavedRun:
    def __init__(
        self,
        db: "Database",
        op_source: Iterator[Operation],
        seed: int = 0,
        ops_per_tick: int = 2,
        installs_per_tick: int = 2,
        start_backup_at_tick: Optional[int] = 0,
        backup: BackupConfig = BackupConfig(pages_per_tick=4),
        injector: Optional[FailureInjector] = None,
        on_tick: Optional[Callable[[int], None]] = None,
    ):
        self.db = db
        self.op_source = op_source
        self.rng = random.Random(seed)
        self.ops_per_tick = ops_per_tick
        self.installs_per_tick = installs_per_tick
        self.start_backup_at_tick = start_backup_at_tick
        self.backup = backup
        self.injector = injector
        self.on_tick = on_tick

    def run(self, max_ticks: int = 10_000) -> RunResult:
        """Tick until the backup completes (or the source/ticks run out)."""
        result = RunResult()
        backup_started = False
        for tick in range(max_ticks):
            result.ticks = tick + 1
            if self.injector is not None:
                plan = self.injector.check(tick)
                if plan is not None:
                    result.crashed = plan.kind == "crash"
                    result.media_failed = plan.kind == "media"
                    break
            try:
                if (
                    not backup_started
                    and self.start_backup_at_tick is not None
                    and tick >= self.start_backup_at_tick
                ):
                    self.db.start_backup(self.backup)
                    backup_started = True

                exhausted = False
                for _ in range(self.ops_per_tick):
                    op = next(self.op_source, None)
                    if op is None:
                        exhausted = True
                        break
                    self.db.execute(op)
                    result.ops_executed += 1

                self.db.install_some(self.installs_per_tick, self.rng)

                if self.db.backup_in_progress():
                    self.db.backup_step(self.backup.pages_per_tick)
            except SimulatedCrash:
                # An armed fault plane killed the system mid-I/O; the
                # database is crashed, recovery is the caller's move.
                self.db.crash()
                result.crashed = True
                break
            if self.on_tick is not None:
                self.on_tick(tick)

            if backup_started and not self.db.backup_in_progress():
                result.backup = self.db.latest_backup()
                result.backups_completed = self.db.metrics.backups_completed
                break
            if exhausted and not self.db.backup_in_progress():
                break
        result.extra_logging_fraction = self.db.metrics.extra_logging_fraction
        return result
