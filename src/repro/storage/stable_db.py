"""The stable database S.

``StableDatabase`` is the simulated disk-resident database the cache
manager flushes to and the backup process copies from.  It provides:

* atomic single-page writes (disk write atomicity, assumed by the paper);
* atomic multi-page writes, used when a write-graph node's ``vars`` set
  contains several pages that must be installed together;
* simulated *media failure* (``fail_media``): after a failure every access
  raises :class:`~repro.errors.MediaFailureError` until the database is
  re-formatted from a backup (``restore_from``);
* an optional :class:`~repro.sim.faults.FaultPlane` (``faults``)
  consulted at every I/O boundary, able to inject transient errors,
  crashes mid-I/O, and torn multi-page writes.  Multi-page atomicity
  under torn writes is furnished the way real systems furnish it: a
  shadow (doublewrite) journal records the overwritten versions before a
  multi-page install and ``repair_torn`` rolls back any incomplete
  install at recovery time.

Write counts are tracked so benchmarks can report I/O volume.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import (
    CorruptPageError,
    MediaFailureError,
    PageNotFoundError,
    SimulatedCrash,
)
from repro.ids import LSN, NULL_LSN, PageId
from repro.storage.layout import Layout
from repro.storage.page import PageVersion, rot_value


class StableDatabase:
    """Simulated stable medium holding one page cell per layout slot.

    Every page carries a **lazy** CRC32 integrity envelope.  The store
    stamps each write by retaining a reference to the exact
    :class:`~repro.storage.page.PageVersion` object installed; because
    versions are immutable, a cell whose current version *is* the stamp
    is provably undamaged with no CRC arithmetic at all.  Simulated
    corruption (:data:`~repro.sim.faults.FaultKind.BITROT`) replaces the
    cell's version object wholesale without refreshing the stamp — the
    identity check then misses and the CRC comparison (computed from the
    *stamp*, never from the possibly-rotted cell) raises
    :class:`~repro.errors.CorruptPageError`, exactly how real bit rot
    presents to a checksummed store.  The actual CRC is materialized
    only when an envelope leaves the process (archive serialization) or
    when an identity miss demands a content check.
    """

    def __init__(self, layout: Layout, initial_value: Any = None):
        self.layout = layout
        # One cell per layout page, holding its current version.
        self._pages: Dict[PageId, PageVersion] = {}
        # Integrity stamps, one per page cell: the version object that
        # was legitimately installed there (see class docstring).
        self._stamps: Dict[PageId, PageVersion] = {}
        self._format(layout.all_pages(), initial_value)
        self._failed = False
        self._failed_partitions: set = set()
        self.page_writes = 0
        self.multi_page_flushes = 0
        # Fault plane (None = no injection) and the shadow journal: the
        # pre-images of an in-flight multi-page install, conceptually on
        # stable storage, so it survives a crash and lets recovery undo a
        # torn prefix.  Only maintained while a fault plane is attached —
        # without one, multi-page writes are natively atomic.
        self._faults = None
        self._shadow: List[Tuple[PageId, PageVersion]] = []
        # True in device-backed subclasses: gates the per-page device
        # hooks so the memory backend's hot loops stay branch-cheap.
        self._has_device = getattr(self, "_has_device", False)

    # ------------------------------------------------------ protocol plumbing

    @property
    def faults(self):
        """The attached fault plane (``None`` = no injection)."""
        return self._faults

    def attach_faults(self, plane):
        """Attach a fault plane at the PageStore protocol boundary."""
        self._faults = plane
        return plane

    def sync(self) -> None:
        """Flush device buffers (no-op for the in-memory backend)."""

    def close(self) -> None:
        """Release device resources (no-op for the in-memory backend)."""

    # -- device hooks: no-ops here, overridden by file-backed subclasses.
    # They are called only when ``_has_device`` is set, so the in-memory
    # hot paths pay one attribute test, not a method call per page.

    def _device_read(self, page_id: PageId) -> None:
        """Pay the device cost of reading one page."""

    def _device_journal(
        self, entries: List[Tuple[PageId, PageVersion]]
    ) -> None:
        """Persist the shadow (doublewrite) journal before an install."""

    def _device_clear_journal(self) -> None:
        """Discard the shadow journal after a completed install."""

    def _device_lay(self, versions: Mapping[PageId, PageVersion]) -> None:
        """Persist the cells :meth:`_lay` just installed."""

    # ------------------------------------------------------------- integrity

    def _format(self, page_ids, initial_value: Any) -> None:
        """Reset cells to the formatted state (initial value, ``NULL_LSN``).

        Every formatted cell and stamp shares one version object:
        versions are immutable and rot replaces a cell's version
        wholesale, so the ``version is stamp`` test is unaffected.
        """
        formatted = dict.fromkeys(
            page_ids, PageVersion(initial_value, NULL_LSN)
        )
        self._pages.update(formatted)
        self._stamps.update(formatted)

    def _store_version(self, page_id: PageId, version: PageVersion) -> None:
        """Install a version into its cell, refreshing the stamp."""
        self._pages[page_id] = version
        self._stamps[page_id] = version

    def _lay(self, versions: Mapping[PageId, PageVersion], within) -> None:
        """The one bulk install: every page must be in the set-like
        ``within`` (checked before any cell changes); cells, stamps and
        device records end as per-page :meth:`_store_version` calls
        would leave them."""
        if not versions.keys() <= within:
            raise PageNotFoundError(
                next(pid for pid in versions if pid not in within)
            )
        self._pages.update(versions)
        self._stamps.update(versions)
        if self._has_device:
            self._device_lay(versions)

    def _verify(self, page_id: PageId, version: PageVersion) -> PageVersion:
        stamp = self._stamps[page_id]
        if version is not stamp and version.checksum() != stamp.checksum():
            raise CorruptPageError(page_id, store="stable")
        return version

    def verify_page(self, page_id: PageId) -> bool:
        """Does this page's content still match its integrity envelope?"""
        version = self._version(page_id)
        stamp = self._stamps[page_id]
        return version is stamp or version.checksum() == stamp.checksum()

    def damaged_pages(self) -> List[PageId]:
        """Every page failing its integrity check (raw scan, no media
        gate — scrubbing and recovery must see damage on failed media).
        The C-speed ``cells == stamps`` screen short-circuits on identity,
        and an equal value and LSN imply an equal CRC: only a store with
        some cell unequal to its stamp pays the per-cell walk."""
        cells, stamps = self._pages, self._stamps
        if cells == stamps:
            return []
        return sorted(
            pid
            for pid, version in cells.items()
            if version is not stamps[pid]
            and version.checksum() != stamps[pid].checksum()
        )

    def pages_ahead_of(self, lsn: LSN) -> List[PageId]:
        """Pages stamped *after* ``lsn`` (raw scan).

        Under WAL no stable page can be ahead of the durable log end;
        after a corrupt log tail is truncated, any such page provably
        contains effects of discarded records and must be healed from a
        backup or quarantined.
        """
        return sorted(
            pid
            for pid, version in self._pages.items()
            if version.page_lsn > lsn
        )

    def _bitrot(self, rng) -> bool:
        """Silently rot one page (fault-plane corruptor callback).

        Prefers a page that has been written (a rotted never-touched
        page is indistinguishable from a formatting quirk and exercises
        nothing).  The envelope is deliberately left stale — that is the
        corruption.  Returns ``True`` if damage landed.
        """
        written = [
            pid
            for pid, version in self._pages.items()
            if version.page_lsn > NULL_LSN
        ]
        candidates = written or sorted(self._pages)
        if not candidates:
            return False
        self._rot_cell(candidates[rng.randrange(len(candidates))])
        return True

    def _rot_cell(self, pid: PageId) -> None:
        """Corrupt one page cell in place, leaving the stamp stale.

        Device-backed subclasses extend this to also flip bytes in the
        on-disk record, so the same injection damages both surfaces.
        """
        old = self._pages[pid]
        self._pages[pid] = PageVersion(rot_value(old.value), old.page_lsn)

    # ------------------------------------------------------------------ reads

    def read_page(self, page_id: PageId) -> PageVersion:
        self._check_media(page_id.partition)
        if self._faults is not None:
            from repro.sim.faults import IOPoint

            self._faults.check(IOPoint.STABLE_READ, corrupt=self._bitrot)
        if self._has_device:
            self._device_read(page_id)
        return self._verify(page_id, self._version(page_id))

    def _begin_bulk_read(self) -> None:
        """Protocol-boundary checks shared by every bulk-read entry point.

        One media gate and one ``stable.read_pages`` fault-plane check
        per call, regardless of backend.
        """
        if self._failed:
            raise MediaFailureError("stable database media has failed")
        if self._faults is not None:
            from repro.sim.faults import IOPoint

            self._faults.check(IOPoint.STABLE_BULK_READ, corrupt=self._bitrot)

    def read_pages(self, page_ids) -> "list":
        """Bulk read used by the batched backup sweep.

        Returns ``(page_id, version)`` pairs in the order given, with one
        media check per distinct partition instead of one per page.
        """
        self._begin_bulk_read()
        failed_partitions = self._failed_partitions
        pages = self._pages
        stamps = self._stamps
        has_device = self._has_device
        checked: set = set()
        out = []
        for pid in page_ids:
            partition = pid.partition
            if partition not in checked:
                if partition in failed_partitions:
                    raise MediaFailureError(
                        f"partition {partition} has suffered a media failure"
                    )
                checked.add(partition)
            try:
                version = pages[pid]
            except KeyError:
                raise PageNotFoundError(pid) from None
            if has_device:
                self._device_read(pid)
            stamp = stamps[pid]
            if version is not stamp and version.checksum() != stamp.checksum():
                raise CorruptPageError(pid, store="stable")
            out.append((pid, version))
        return out

    def page_lsn(self, page_id: PageId) -> LSN:
        return self.read_page(page_id).page_lsn

    def iter_pages(self) -> Iterator[Tuple[PageId, PageVersion]]:
        self._check_media()
        yield from self._pages.items()  # layout order: keys never change

    def cell(self, page_id: PageId) -> Optional[PageVersion]:
        """One cell exactly as :meth:`iter_pages` yields it, ``None``
        outside the layout: recovery's base lookup (no fault plane, no
        device cost, no envelope check — recovery screens for damage
        with :meth:`damaged_pages` first)."""
        if self._failed:
            raise MediaFailureError("stable database media has failed")
        return self._pages.get(page_id)

    def snapshot(self) -> Dict[PageId, PageVersion]:
        """A consistent point-in-time copy of the whole store (test aid)."""
        self._check_media()
        return dict(self._pages)

    # ----------------------------------------------------------------- writes

    def write_page(self, page_id: PageId, value: Any, lsn: LSN) -> None:
        """Atomically overwrite one page (disk write atomicity)."""
        self._check_media(page_id.partition)
        if self._faults is not None:
            from repro.sim.faults import IOPoint

            self._faults.check(IOPoint.STABLE_WRITE, corrupt=self._bitrot)
        version = self._version(page_id).with_update(value, lsn)
        self._store_version(page_id, version)
        self.page_writes += 1

    def write_pages_atomically(
        self, versions: Mapping[PageId, PageVersion]
    ) -> None:
        """Install several pages as one atomic action.

        Used when a write-graph node requires vars(n) with |vars(n)| > 1 to
        be flushed together.  All pages are validated before any is
        modified, so the action is all-or-nothing even on errors.  With a
        fault plane attached, atomicity is furnished by the shadow
        journal: pre-images are journalled first, and a torn write (only
        a prefix of the cells lands, then :class:`SimulatedCrash`) is
        rolled back by :meth:`repair_torn` during recovery.
        """
        self._check_media()
        for pid in versions:
            self._check_media(pid.partition)
            self._version(pid)  # validates the id
        cells = list(versions.items())
        torn_keep: Optional[int] = None
        if self._faults is not None:
            from repro.sim.faults import IOPoint

            # The check may raise (transient / crash) before anything is
            # mutated, so callers can retry cleanly.
            torn_keep = self._faults.check(
                IOPoint.STABLE_MULTI_WRITE, parts=len(cells),
                corrupt=self._bitrot,
            )
            if len(cells) > 1:
                self._shadow = [
                    (pid, self._pages[pid]) for pid in versions
                ]
                if self._has_device:
                    self._device_journal(self._shadow)
        if torn_keep is not None:
            for pid, ver in cells[:torn_keep]:
                self._store_version(pid, ver)
                self.page_writes += 1
            raise SimulatedCrash(
                "stable.write_multi", self._faults.io_count, torn=True
            )
        for pid, ver in cells:
            self._store_version(pid, ver)
            self.page_writes += 1
        if self._shadow:
            self._shadow = []
            if self._has_device:
                self._device_clear_journal()
        if len(cells) > 1:
            self.multi_page_flushes += 1

    def install_version(self, page_id: PageId, version: PageVersion) -> None:
        """Atomically overwrite one page with a prepared version."""
        self.write_pages_atomically({page_id: version})

    def lay_pages(self, versions: Mapping[PageId, PageVersion]) -> None:
        """Lay restored content onto many cells in one call.

        The bulk half of an instant-restore drain: each cell is installed
        and counted exactly as :meth:`install_version` would (stamp
        refreshed, one ``page_writes`` per cell, one device record per
        cell on device-backed stores), but with no shadow journal — the
        cells are independent restored pages, not one multi-page action —
        and no fault-plane check: like :meth:`restore_from` this is
        recovery I/O, which callers run with faults suspended.
        """
        self._check_media()
        self._lay(versions, self._pages.keys())
        self.page_writes += len(versions)

    # ------------------------------------------------------ torn-write repair

    def repair_torn(self) -> int:
        """Roll back an incomplete multi-page install from the shadow.

        Called at the start of crash recovery (the doublewrite-buffer
        scan every real system performs): if a multi-page write was in
        flight when the system halted, the journalled pre-images are
        restored, re-establishing all-or-nothing semantics.  Returns the
        number of pages reverted.
        """
        if not self._shadow:
            return 0
        reverted = 0
        for pid, version in self._shadow:
            self._store_version(pid, version)
            reverted += 1
        self._shadow = []
        if self._has_device:
            self._device_clear_journal()
        if self._faults is not None and self._faults.metrics is not None:
            self._faults.metrics.torn_writes_repaired += reverted
        return reverted

    # ---------------------------------------------------------- media failure

    @property
    def failed(self) -> bool:
        return self._failed

    def fail_media(self) -> None:
        """Simulate loss of the stable medium: content becomes inaccessible."""
        self._failed = True

    def fail_partition(self, partition: int) -> None:
        """Partial media failure (§6.3): one partition becomes unreadable."""
        self.layout.partition_size(partition)  # validates the id
        self._failed_partitions.add(partition)

    @property
    def failed_partitions(self) -> frozenset:
        return frozenset(self._failed_partitions)

    def restore_partition_from(
        self,
        partition: int,
        versions: Mapping[PageId, PageVersion],
        initial_value: Any = None,
    ) -> None:
        """Re-format one partition from backup content; other partitions
        are untouched."""
        self._failed_partitions.discard(partition)
        pages = self.layout.pages_in_partition(partition)
        self._format(pages, initial_value)
        self._lay(versions, frozenset(pages))

    def restore_from(
        self, versions, initial_value: Any = None
    ) -> None:
        """Re-format the store from backup content (off-line restore, §1).

        ``versions`` is a mapping of ``PageId`` to ``PageVersion``, or
        any iterable of ``(page_id, version)`` pairs (e.g.
        ``BackupDatabase.iter_pages()``); it is laid as one dict, checked
        against the layout before any cell changes.  Pages absent from
        ``versions`` (never copied because never written) are formatted
        to the initial value.
        """
        versions = dict(versions)
        self._failed = False
        self._failed_partitions.clear()
        self._shadow = []
        # Every cell, keyed in layout order; fromkeys reuses a dict's hashes.
        self._format(self._pages, initial_value)
        self._lay(versions, self._pages.keys())

    # --------------------------------------------------------------- plumbing

    def _version(self, page_id: PageId) -> PageVersion:
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None

    def _check_media(self, partition: Optional[int] = None) -> None:
        if self._failed:
            raise MediaFailureError("stable database media has failed")
        if partition is not None and partition in self._failed_partitions:
            raise MediaFailureError(
                f"partition {partition} has suffered a media failure"
            )

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)
