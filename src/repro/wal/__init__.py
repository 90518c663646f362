"""Write-ahead log: records, the log manager, truncation, media-log view.

The log is the single sequential record stream of a conventional recovery
system; the *media recovery log* (section 1) is not a separate stream but a
suffix view of the same log starting at the scan-start LSN captured when a
backup begins.
"""

from repro.wal.records import LogRecord, RecordFlag
from repro.wal.log_manager import LogManager, LogStats
from repro.wal.truncation import RecLSNTracker
from repro.wal.media_log import MediaLogView
from repro.wal.checkpoint import CheckpointManager, CheckpointOp
from repro.wal.serialize import load_log, save_log

__all__ = [
    "LogRecord",
    "RecordFlag",
    "LogManager",
    "LogStats",
    "RecLSNTracker",
    "MediaLogView",
    "CheckpointManager",
    "CheckpointOp",
    "load_log",
    "save_log",
]
