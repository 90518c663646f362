"""Log records.

A record wraps one :class:`~repro.ops.base.Operation` with its LSN and
bookkeeping flags.  Because this is a simulation the operation object is
stored directly; ``size_bytes`` reports what the record *would* occupy on
a real log, using the operation's cost model — the quantity the paper's
logging-economy arguments are about.
"""

from __future__ import annotations

import enum

from repro.ids import LSN
from repro.ops.base import Operation, OperationKind


class RecordFlag(enum.Flag):
    NONE = 0
    # Injected by the cache manager (identity writes), not by a transaction.
    CM_INJECTED = enum.auto()
    # Identity write issued specifically to keep an in-progress backup
    # recoverable (the Iw/oF extra logging the paper quantifies).
    IWOF = enum.auto()


class LogRecord:
    """One log record; slotted, one is built per executed operation."""

    __slots__ = ("lsn", "op", "flags", "source", "crc")

    def __init__(
        self,
        lsn: LSN,
        op: Operation,
        flags: RecordFlag = RecordFlag.NONE,
        source: str = "",
        crc=None,
    ):
        self.lsn = lsn
        self.op = op
        self.flags = flags
        # Who logged this operation (transaction / application name); used
        # by selective redo (§6.3) to identify a corrupting source.
        self.source = source
        # CRC32 integrity envelope stamped by LogManager.append (see
        # repro.wal.serialize.record_checksum); None for records built
        # outside the manager (tests, ad-hoc construction).
        self.crc = crc

    @property
    def is_cm_injected(self) -> bool:
        return bool(self.flags & RecordFlag.CM_INJECTED)

    @property
    def is_iwof(self) -> bool:
        return bool(self.flags & RecordFlag.IWOF)

    @property
    def size_bytes(self) -> int:
        return self.op.log_record_size()

    @property
    def kind(self) -> OperationKind:
        return self.op.kind

    def __repr__(self):
        tag = "*" if self.is_iwof else ""
        return f"<LSN {self.lsn}{tag}: {self.op!r}>"
