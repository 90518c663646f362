"""The media recovery log: a suffix view over the shared log stream.

"Maintaining the media recovery log is conventional and is not impacted by
the choice of log operations" (section 1) — so the media log is simply the
record stream from the backup's scan-start LSN onward.  What *is* new with
logical operations is the content: Iw/oF identity-write records appear in
this view and are what make the backup recoverable.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ids import LSN
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord


class MediaLogView:
    """Read-only view of ``log`` starting at ``scan_start_lsn``."""

    def __init__(self, log: LogManager, scan_start_lsn: LSN):
        self._log = log
        self.scan_start_lsn = scan_start_lsn

    def scan(self, to_lsn: Optional[LSN] = None) -> Iterator[LogRecord]:
        return self._log.scan(self.scan_start_lsn, to_lsn)

    def record_count(self) -> int:
        return self._log.count(self.scan_start_lsn)

    def iwof_count(self) -> int:
        return self._log.iwof_count(self.scan_start_lsn)

    def bytes_total(self) -> int:
        return self._log.bytes_logged(self.scan_start_lsn)

    def iwof_bytes(self) -> int:
        return self._log.bytes_logged(
            self.scan_start_lsn, predicate=lambda r: r.is_iwof
        )
