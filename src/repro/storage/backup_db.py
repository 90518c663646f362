"""The backup database B.

A :class:`BackupDatabase` is the output of one backup run: a fuzzy copy of
the stable database taken page-by-page while updates continued, plus the
bookkeeping media recovery needs:

* ``media_scan_start_lsn`` — the media-recovery log scan start point,
  fixed when the backup begins (section 1.2: "the media recovery log scan
  start point can be the crash recovery log scan start point at the time
  backup begins");
* per-page versions recorded in copy order, so tests can verify that the
  backup respected the declared backup order.

The backup is immutable once sealed (``complete()``); media recovery only
ever reads completed backups.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import BackupError, CorruptPageError, TornWriteError
from repro.ids import LSN, PageId
from repro.storage.page import PageVersion, rot_value


class BackupStatus(enum.Enum):
    IN_PROGRESS = "in_progress"
    COMPLETE = "complete"
    ABORTED = "aborted"


class BackupDatabase:
    """One backup image of the database, fuzzy w.r.t. transaction boundaries.

    Like the stable database, every recorded page carries a **lazy**
    integrity envelope: the stamp is a reference to the exact
    :class:`~repro.storage.page.PageVersion` recorded at copy time, so
    verifying an undamaged page is an identity check and costs no CRC
    arithmetic.  Simulated rot replaces the recorded version object
    without touching the stamp; the identity miss then forces a CRC
    comparison (always computed from the *stamp*, never laundered from
    the rotted cell) and the page reads as damaged.  :meth:`read_page`
    and :meth:`verify_pages` check this, and media recovery consults
    :meth:`damaged_pages` before trusting the image — a rotted backup
    page triggers fallback to an older generation instead of silently
    restoring garbage.
    """

    def __init__(
        self,
        backup_id: int,
        media_scan_start_lsn: LSN,
        base_backup_id: Optional[int] = None,
    ):
        self.backup_id = backup_id
        self.media_scan_start_lsn = media_scan_start_lsn
        # For incremental backups: the full backup this image extends.
        self.base_backup_id = base_backup_id
        self._versions: Dict[PageId, PageVersion] = {}
        self._stamps: Dict[PageId, PageVersion] = {}
        self._copy_order: List[PageId] = []
        self._status = BackupStatus.IN_PROGRESS
        self.completion_lsn: Optional[LSN] = None
        # Optional FaultPlane (see repro.sim.faults), wired by the engine.
        self._faults = None
        # True in device-backed subclasses (gates the per-record hooks).
        self._has_device = getattr(self, "_has_device", False)

    # ------------------------------------------------------ protocol plumbing

    @property
    def faults(self):
        """The attached fault plane (``None`` = no injection)."""
        return self._faults

    def attach_faults(self, plane):
        """Attach a fault plane at the BackupStore protocol boundary."""
        self._faults = plane
        return plane

    def close(self) -> None:
        """Release device resources (no-op for the in-memory backend)."""

    # -- device hooks: no-ops here, overridden by file-backed subclasses.

    def _device_record(self, entries) -> None:
        """Persist freshly recorded ``(page_id, version)`` pairs."""

    def _device_complete(self) -> None:
        """Persist the seal (completion metadata) and release the fd."""

    # ------------------------------------------------------------- integrity

    def verify_page(self, page_id: PageId) -> bool:
        """Does a recorded page still match its integrity envelope?"""
        version = self._versions.get(page_id)
        if version is None:
            return True
        stamp = self._stamps[page_id]
        return version is stamp or version.checksum() == stamp.checksum()

    def verify_pages(self, page_ids: Iterable[PageId]) -> None:
        """Raise :class:`CorruptPageError` if any given page is damaged."""
        for pid in page_ids:
            if not self.verify_page(pid):
                raise CorruptPageError(
                    pid, store="backup",
                    detail=f"backup {self.backup_id}",
                )

    def damaged_pages(self) -> List[PageId]:
        """Every recorded page failing its integrity check (C-speed
        ``versions == stamps`` screen first, as for the stable store)."""
        versions, stamps = self._versions, self._stamps
        if versions == stamps:
            return []
        return sorted(
            pid
            for pid, version in versions.items()
            if version is not stamps[pid]
            and version.checksum() != stamps[pid].checksum()
        )

    def stored_checksum(self, page_id: PageId) -> int:
        """The envelope recorded at copy time, *not* recomputed.

        Archiving must carry the original envelope along so damage that
        crept in after the copy still fails verification downstream.
        The CRC is materialized here from the *stamp* — the version
        object recorded at copy time — never from the current cell, so
        post-copy rot cannot launder itself into the archive envelope.
        """
        stamp = self._stamps.get(page_id)
        if stamp is None:  # pre-envelope image (e.g. hand-built in tests)
            return self._versions[page_id].checksum()
        return stamp.checksum()

    def _bitrot(self, rng) -> bool:
        """Silently rot one recorded page (fault-plane corruptor).

        The envelope is left stale — detection happens at the next
        verified read.  Returns ``False`` when nothing has been recorded
        yet (the fault stays armed).
        """
        if not self._copy_order:
            return False
        self._rot_cell(self._copy_order[rng.randrange(len(self._copy_order))])
        return True

    def _rot_cell(self, pid: PageId) -> None:
        """Corrupt one recorded page in place, leaving the stamp stale.

        Device-backed subclasses extend this to also flip bytes in the
        on-disk record, so the same injection damages both surfaces.
        """
        old = self._versions[pid]
        self._versions[pid] = PageVersion(rot_value(old.value), old.page_lsn)

    # --------------------------------------------------------------- writing

    def record_page(self, page_id: PageId, version: PageVersion) -> None:
        """Record the copy of one page from S into this backup."""
        if self._status is not BackupStatus.IN_PROGRESS:
            raise BackupError(
                f"backup {self.backup_id} is {self._status.value}; "
                "cannot record pages"
            )
        if page_id in self._versions:
            raise BackupError(
                f"page {page_id!r} copied twice into backup {self.backup_id}"
            )
        if self._faults is not None:
            from repro.sim.faults import IOPoint

            self._faults.check(IOPoint.BACKUP_RECORD, corrupt=self._bitrot)
        self._versions[page_id] = version
        self._stamps[page_id] = version
        self._copy_order.append(page_id)
        if self._has_device:
            self._device_record([(page_id, version)])

    def record_pages(self, entries) -> None:
        """Bulk variant of :meth:`record_page` for the batched sweep.

        ``entries`` is an iterable of ``(page_id, version)`` pairs; the
        status is checked once for the whole batch, the double-copy check
        still applies per page.  A torn fault lands only a prefix of the
        span and raises :class:`TornWriteError` carrying how many pages
        landed; the sweep re-issues the remainder (see
        ``BackupRun._record_span``).
        """
        if self._status is not BackupStatus.IN_PROGRESS:
            raise BackupError(
                f"backup {self.backup_id} is {self._status.value}; "
                "cannot record pages"
            )
        entries = list(entries)
        torn_keep = None
        if self._faults is not None:
            from repro.sim.faults import IOPoint

            torn_keep = self._faults.check(
                IOPoint.BACKUP_BULK_RECORD, parts=len(entries),
                corrupt=self._bitrot,
            )
        versions = self._versions
        stamps = self._stamps
        order = self._copy_order
        landing = entries if torn_keep is None else entries[:torn_keep]
        for page_id, version in landing:
            if page_id in versions:
                raise BackupError(
                    f"page {page_id!r} copied twice into backup "
                    f"{self.backup_id}"
                )
            versions[page_id] = version
            stamps[page_id] = version
            order.append(page_id)
        if self._has_device and landing:
            # A torn span still persists its landed prefix before the
            # tear is reported, matching the in-memory state.
            self._device_record(landing)
        if torn_keep is not None:
            raise TornWriteError(
                "backup.record_pages", landed=torn_keep, total=len(entries)
            )

    # ---------------------------------------------------- post-seal repair

    def heal_page(self, page_id: PageId, version: PageVersion) -> None:
        """Replace a damaged recorded page with a reconstructed version.

        The archive healer's install point (docs/ARCHIVE.md): the page
        must already be recorded (healing never widens a copy set), and
        the envelope is re-stamped so the healed cell verifies clean.
        The in-memory image is the recovery read surface; file-backed
        images keep their original on-disk record — its stale envelope
        still fails verification if the file is read fresh, so damage is
        never laundered into the durable artifact.
        """
        if self._status is not BackupStatus.COMPLETE:
            raise BackupError(
                f"backup {self.backup_id} is {self._status.value}; only "
                "sealed images can be healed"
            )
        if page_id not in self._versions:
            raise BackupError(
                f"page {page_id!r} was never recorded in backup "
                f"{self.backup_id}; healing cannot widen the copy set"
            )
        self._versions[page_id] = version
        self._stamps[page_id] = version

    def drop_page(self, page_id: PageId) -> None:
        """Remove a damaged recorded page from a sealed image.

        Used when a newer chain generation shadows the page: the overlay
        never reads the dropped cell, and restores fall back to an
        earlier copy plus the base-scan-start replay (cost-only, never
        wrong — the same argument as skip-damaged-link-pages).
        """
        if self._status is not BackupStatus.COMPLETE:
            raise BackupError(
                f"backup {self.backup_id} is {self._status.value}; only "
                "sealed images can drop pages"
            )
        if page_id not in self._versions:
            raise BackupError(
                f"page {page_id!r} was never recorded in backup "
                f"{self.backup_id}"
            )
        del self._versions[page_id]
        del self._stamps[page_id]
        self._copy_order.remove(page_id)

    def complete(self, completion_lsn: LSN) -> None:
        if self._status is not BackupStatus.IN_PROGRESS:
            raise BackupError(f"backup {self.backup_id} already sealed")
        self._status = BackupStatus.COMPLETE
        self.completion_lsn = completion_lsn
        if self._has_device:
            self._device_complete()

    def abort(self) -> None:
        if self._status is BackupStatus.IN_PROGRESS:
            self._status = BackupStatus.ABORTED
            self.close()

    # --------------------------------------------------------------- reading

    @property
    def status(self) -> BackupStatus:
        return self._status

    @property
    def is_complete(self) -> bool:
        return self._status is BackupStatus.COMPLETE

    def read_page(self, page_id: PageId) -> Optional[PageVersion]:
        version = self._versions.get(page_id)
        if version is not None:
            stamp = self._stamps[page_id]
            if version is not stamp and version.checksum() != stamp.checksum():
                raise CorruptPageError(
                    page_id, store="backup", detail=f"backup {self.backup_id}"
                )
        return version

    def pages(self) -> Dict[PageId, PageVersion]:
        return dict(self._versions)

    def iter_pages(self) -> Iterable[Tuple[PageId, PageVersion]]:
        """Stream ``(page_id, version)`` pairs without materializing a dict.

        Media recovery restores from this at O(page) peak memory (the
        in-memory image is shared, not copied; file-backed subclasses
        read the same surface).  Like :meth:`pages`, versions are the raw
        recorded cells — callers that need damage screening consult
        :meth:`damaged_pages` first, exactly as the generation-selection
        gate does.
        """
        return iter(list(self._versions.items()))

    def copy_order(self) -> List[PageId]:
        return list(self._copy_order)

    def copied_count(self) -> int:
        return len(self._copy_order)

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._versions

    def __repr__(self):
        return (
            f"BackupDatabase(id={self.backup_id}, status={self._status.value},"
            f" pages={len(self._versions)},"
            f" scan_start={self.media_scan_start_lsn})"
        )
