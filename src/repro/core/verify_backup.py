"""Offline backup validation: is this image + this log recoverable?

Before trusting a backup for disaster recovery, an operator wants a
verdict *without* doing a restore.  ``validate_backup`` audits a
completed backup against the media log:

1. **log coverage** — every record from the backup's scan-start LSN must
   still be on the (possibly truncated) log;
2. **order soundness** — no read-write installation edge is violated by
   the image (the Figure 1 condition), via
   :func:`~repro.recovery.explain.find_order_violations`;
3. **page accounting** — for full backups, every layout page is present;
   for incrementals, pages absent from the image must be either covered
   by the base chain or untouched since it;
4. (optionally) a **trial restore** into a scratch store, verified
   against a caller-supplied expected state.

The verdict lists every finding; an empty finding list means the backup
is safe to rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence

from repro.errors import LogTruncatedError
from repro.ids import PageId
from repro.recovery.explain import find_order_violations
from repro.storage.backup_db import BackupDatabase
from repro.storage.layout import Layout
from repro.wal.log_manager import LogManager


@dataclass(frozen=True)
class Finding:
    severity: str  # "fatal" | "warning"
    code: str
    detail: str


@dataclass
class ValidationReport:
    backup_id: int
    findings: List[Finding] = field(default_factory=list)
    pages_checked: int = 0
    records_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not any(f.severity == "fatal" for f in self.findings)

    def fatal(self, code: str, detail: str) -> None:
        self.findings.append(Finding("fatal", code, detail))

    def warn(self, code: str, detail: str) -> None:
        self.findings.append(Finding("warning", code, detail))

    def summary(self) -> str:
        status = "OK" if self.ok else "UNSAFE"
        return (
            f"backup {self.backup_id}: {status} "
            f"({len(self.findings)} finding(s), "
            f"{self.pages_checked} pages, "
            f"{self.records_scanned} log records)"
        )


def validate_backup(
    backup: BackupDatabase,
    log: LogManager,
    layout: Layout,
    base_chain: Sequence[BackupDatabase] = (),
    initial_value: Any = None,
) -> ValidationReport:
    """Audit ``backup`` against ``log``; see the module docstring."""
    report = ValidationReport(backup_id=backup.backup_id)

    if not backup.is_complete:
        report.fatal(
            "incomplete",
            f"backup status is {backup.status.value}; only completed "
            "backups are restorable",
        )
        return report

    # 1. Log coverage: the media log suffix must still exist.
    if backup.media_scan_start_lsn < log.first_retained_lsn:
        report.fatal(
            "log-truncated",
            f"media log scan start {backup.media_scan_start_lsn} "
            f"precedes the retained log ({log.first_retained_lsn})",
        )
        return report
    try:
        records = list(log.scan(backup.media_scan_start_lsn))
    except LogTruncatedError as exc:  # pragma: no cover - guarded above
        report.fatal("log-truncated", str(exc))
        return report
    report.records_scanned = len(records)

    # 1b. Integrity audit: every page image must match its envelope —
    # a corrupt page restores garbage no matter how sound the order is.
    for pid in backup.damaged_pages():
        report.fatal(
            "corrupt-page",
            f"page {pid!r} fails its integrity check (checksum "
            "mismatch); restoring it would silently propagate damage",
        )

    # 2. Order soundness (the Figure 1 condition).
    image = backup.pages()
    report.pages_checked = len(image)
    for violation in find_order_violations(image, records, initial_value):
        report.fatal(
            "order-violation",
            f"operation LSN {violation.reader_lsn}'s replay input "
            f"({violation.page!r}) was overwritten by LSN "
            f"{violation.writer_lsn} inside the image; lost targets: "
            f"{violation.lost_targets}",
        )

    # 3. Page accounting.
    is_incremental = getattr(backup, "base_backup_id", None) is not None
    covered = set(image)
    for link in base_chain:
        covered |= set(link.pages())
    missing = [pid for pid in layout.all_pages() if pid not in covered]
    if missing:
        if is_incremental and not base_chain:
            report.warn(
                "needs-base",
                f"incremental backup: {len(missing)} pages not in the "
                "image; supply the base chain to complete the audit",
            )
        elif is_incremental:
            report.fatal(
                "chain-gap",
                f"{len(missing)} pages absent from the whole chain, "
                f"first: {missing[0]!r}",
            )
        else:
            report.fatal(
                "missing-pages",
                f"full backup missing {len(missing)} pages, "
                f"first: {missing[0]!r}",
            )

    # 4. Backup-order discipline (warning only: it is how the engine
    # guarantees the † property's timing argument).
    order = backup.copy_order()
    per_partition: dict = {}
    for pid in order:
        last = per_partition.get(pid.partition)
        if last is not None and pid.slot < last:
            report.warn(
                "unordered-copy",
                f"partition {pid.partition} copied out of backup order "
                f"at {pid!r}",
            )
            break
        per_partition[pid.partition] = pid.slot
    return report
