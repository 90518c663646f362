"""Checkpoint records and the recovery scan-start protocol.

The facade's ``stable_truncation_point`` is a convenience; a real system
derives the crash-recovery scan start from the last **checkpoint
record**: a logged snapshot of the dirty-page table (page → recLSN).
This module supplies that realism:

* :class:`CheckpointOp` — a no-op "operation" whose log record carries
  the dirty-page table and the minimum recLSN;
* :class:`CheckpointManager` — takes fuzzy checkpoints (no flushing
  required — the table is copied under no latch, exactly like the
  "fuzzy checkpoint" the paper's fuzzy dump is named after), and
  computes the crash scan start as
  ``min(checkpoint.min_rec_lsn, first LSN after the checkpoint)``.

Checkpoints interact with backup the same way flushes do not: they are
pure log records and never touch S or B.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional

from repro.ids import LSN, PageId
from repro.ops.base import (
    OBJECT_ID_BYTES,
    RECORD_HEADER_BYTES,
    Operation,
    OperationKind,
)
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, RecordFlag
from repro.wal.truncation import RecLSNTracker


class CheckpointOp(Operation):
    """A logged dirty-page-table snapshot; reads and writes nothing."""

    kind = OperationKind.PHYSICAL  # blind, value-carrying; never redone

    def __init__(self, dirty_table: Mapping[PageId, LSN]):
        self.dirty_table: Dict[PageId, LSN] = dict(dirty_table)

    @property
    def readset(self) -> FrozenSet[PageId]:
        return frozenset()

    @property
    def writeset(self) -> FrozenSet[PageId]:
        return frozenset()

    def compute(self, reads):
        return {}

    @property
    def min_rec_lsn(self) -> Optional[LSN]:
        if not self.dirty_table:
            return None
        return min(self.dirty_table.values())

    def log_record_size(self) -> int:
        return RECORD_HEADER_BYTES + (OBJECT_ID_BYTES + 8) * len(
            self.dirty_table
        )

    def __repr__(self):
        return f"Checkpoint(dirty={len(self.dirty_table)})"


class CheckpointManager:
    """Takes checkpoints and answers the crash scan-start question.

    ``tracker`` may be a :class:`RecLSNTracker` or a zero-argument
    callable returning the current one — the cache manager replaces its
    tracker on crash, so long-lived owners pass a provider.
    """

    def __init__(self, log: LogManager, tracker):
        self._log = log
        self._tracker_source = tracker
        self.last_checkpoint: Optional[LogRecord] = None

    @property
    def _tracker(self) -> RecLSNTracker:
        source = self._tracker_source
        return source() if callable(source) else source

    def take_checkpoint(self) -> LogRecord:
        """Log a fuzzy checkpoint of the current dirty-page table."""
        table = {
            page: self._tracker.rec_lsn(page)
            for page in self._tracker.dirty_pages()
        }
        from repro.sim.faults import with_retries

        record = with_retries(
            lambda: self._log.append(CheckpointOp(table),
                                     RecordFlag.CM_INJECTED)
        )
        with_retries(self._log.force)
        self.last_checkpoint = record
        return record

    def crash_scan_start(self) -> LSN:
        """Where a post-crash redo scan must begin.

        With no checkpoint, scan from LSN 1.  With one, scan from the
        oldest recLSN it recorded, or just after the checkpoint itself
        when nothing was dirty.
        """
        checkpoint = self.last_checkpoint
        if checkpoint is None:
            return 1
        op: CheckpointOp = checkpoint.op  # type: ignore[assignment]
        minimum = op.min_rec_lsn
        if minimum is None:
            return checkpoint.lsn + 1
        return min(minimum, checkpoint.lsn + 1)

    @staticmethod
    def find_last_checkpoint(log: LogManager) -> Optional[LogRecord]:
        """Scan backwards for the most recent checkpoint record.

        What real recovery does when the 'master record' pointing at the
        last checkpoint is itself part of the log stream.
        """
        last = None
        for record in log.durable_scan():
            if isinstance(record.op, CheckpointOp):
                last = record
        return last
