"""Formal storage-backend API: the protocols every backend conforms to.

The cache manager, backup engines, WAL, fault plane, and recovery paths
touch storage through exactly three surfaces:

* :class:`PageStore` — the stable database device: read/write/multi-write
  pages, media-failure bookkeeping, integrity verification, restore.
* :class:`BackupStore` — the backup device: record/bulk-record copied
  spans, seal/abort, verified reads for media recovery.
* :class:`LogDevice` — the durability surface behind the WAL manager:
  append serialized record bytes, ``sync()`` to make the pending suffix
  durable.

These protocols are *structural* (:class:`typing.Protocol`): the
in-memory classes already conform and are not required to inherit from
anything here.  A :class:`StorageBackend` bundles one factory per
surface so the whole stack is switched with one knob —
``Database(backend="memory"|"file")`` — and :func:`open_backend` is the
single place that knob is resolved.

Fault injection is keyed to this boundary: the
:class:`~repro.sim.faults.FaultPlane` check for each
:class:`~repro.sim.faults.IOPoint` lives in the protocol method itself
(``read_page`` checks ``stable.read_page``, ``record_pages`` checks
``backup.record_pages``, ...), so torn/transient/crash/bitrot faults
inject identically for every backend with no duplicated checks.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import BackupError
from repro.ids import LSN, PageId
from repro.storage.backup_db import BackupDatabase
from repro.storage.layout import Layout
from repro.storage.page import PageVersion
from repro.storage.stable_db import StableDatabase

__all__ = [
    "PageStore",
    "BackupStore",
    "LogDevice",
    "StorageBackend",
    "MemoryBackend",
    "open_backend",
    "BACKENDS",
]


@runtime_checkable
class PageStore(Protocol):
    """The stable-database surface used by cache, engines, and recovery."""

    layout: Layout

    # -- I/O (fault points stable.read_page / read_pages / write_page /
    #    write_multi fire inside these methods) --------------------------
    def read_page(self, page_id: PageId) -> PageVersion: ...

    def read_pages(
        self, page_ids: Sequence[PageId]
    ) -> List[Tuple[PageId, PageVersion]]: ...

    def write_page(self, page_id: PageId, value: Any, page_lsn: LSN) -> None: ...

    def write_pages_atomically(
        self, versions: Dict[PageId, PageVersion]
    ) -> None: ...

    def install_version(self, page_id: PageId, version: PageVersion) -> None: ...

    def lay_pages(self, versions: Dict[PageId, PageVersion]) -> None: ...

    # -- torn-write repair (doublewrite shadow journal) -----------------
    def repair_torn(self, metrics: Any = None) -> List[PageId]: ...

    # -- integrity ------------------------------------------------------
    def verify_page(self, page_id: PageId) -> bool: ...

    def damaged_pages(self) -> List[PageId]: ...

    # -- media-failure bookkeeping --------------------------------------
    def fail_media(self) -> None: ...

    def fail_partition(self, partition: int) -> None: ...

    def restore_from(
        self,
        versions: Iterable[Tuple[PageId, PageVersion]],
        initial_value: Any = None,
    ) -> None: ...

    def restore_partition_from(
        self,
        partition: int,
        versions: Dict[PageId, PageVersion],
        initial_value: Any = None,
    ) -> None: ...

    # -- protocol plumbing ----------------------------------------------
    def attach_faults(self, plane: Any) -> Any: ...

    def sync(self) -> None: ...

    def close(self) -> None: ...


@runtime_checkable
class BackupStore(Protocol):
    """The backup-database surface used by the sweep engines and recovery."""

    backup_id: int
    media_scan_start_lsn: LSN

    def record_page(self, page_id: PageId, version: PageVersion) -> None: ...

    def record_pages(
        self, entries: Sequence[Tuple[PageId, PageVersion]]
    ) -> None: ...

    def complete(self, completion_lsn: LSN) -> None: ...

    def abort(self) -> None: ...

    def read_page(self, page_id: PageId) -> PageVersion: ...

    def pages(self) -> Dict[PageId, PageVersion]: ...

    def iter_pages(self) -> Iterable[Tuple[PageId, PageVersion]]: ...

    def verify_pages(self, page_ids: Iterable[PageId]) -> None: ...

    def damaged_pages(self) -> List[PageId]: ...

    def attach_faults(self, plane: Any) -> Any: ...

    def close(self) -> None: ...


@runtime_checkable
class LogDevice(Protocol):
    """The durability surface behind ``LogManager``.

    The WAL manager keeps the authoritative in-memory record images (the
    log buffer); a device receives each record at append time, buffers
    it, and makes the buffered suffix durable on :meth:`sync` — the
    ``write_log`` + ``sync()`` shape of the log.cc managers in
    SNIPPETS.md.  ``sync()`` is called once per force, so one real
    ``fsync`` covers every append since the previous force.
    """

    def append(self, record: Any) -> None: ...

    def sync(self) -> None: ...

    def drop_pending(self) -> None: ...

    def close(self) -> None: ...


class StorageBackend:
    """Factory bundle for one storage backend.

    ``create_*`` build the three protocol surfaces; :meth:`close`
    releases every resource the backend handed out.  Subclasses override
    the factories; the base class provides the bookkeeping that lets
    ``close()`` find what was created.
    """

    name = "abstract"

    def __init__(self) -> None:
        self._created: List[Any] = []

    def _track(self, obj: Any) -> Any:
        self._created.append(obj)
        return obj

    def create_stable(
        self, layout: Layout, initial_value: Any = None
    ) -> PageStore:
        raise NotImplementedError

    def create_backup(
        self,
        backup_id: int,
        media_scan_start_lsn: LSN,
        base_backup_id: Optional[int] = None,
    ) -> BackupStore:
        raise NotImplementedError

    def create_log_device(self) -> Optional[LogDevice]:
        """Return a :class:`LogDevice`, or ``None`` for buffer-only WALs."""
        raise NotImplementedError

    def close(self) -> None:
        """Close every store/device this backend created (idempotent)."""
        while self._created:
            obj = self._created.pop()
            closer = getattr(obj, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class MemoryBackend(StorageBackend):
    """The original in-memory backend: python dicts, zero device cost.

    Byte-identical behavior to the pre-API classes — it *is* the same
    classes, constructed through the factory instead of ad hoc.
    """

    name = "memory"

    def create_stable(
        self, layout: Layout, initial_value: Any = None
    ) -> StableDatabase:
        return self._track(StableDatabase(layout, initial_value))

    def create_backup(
        self,
        backup_id: int,
        media_scan_start_lsn: LSN,
        base_backup_id: Optional[int] = None,
    ) -> BackupDatabase:
        return self._track(
            BackupDatabase(
                backup_id,
                media_scan_start_lsn,
                base_backup_id=base_backup_id,
            )
        )

    def create_log_device(self) -> Optional[LogDevice]:
        # The in-memory WAL buffer is already the whole device.
        return None


#: The backend names: the one list ``Database(backend=...)`` and the
#: ``--backend`` CLI flags accept.  ``file`` is resolved lazily to keep this
#: module import-light.
BACKENDS = ("memory", "file")


def open_backend(
    backend: Optional[str] = None, data_dir: Optional[str] = None
) -> StorageBackend:
    """Resolve a backend name (default ``"memory"``) to a
    :class:`StorageBackend`.  ``backend="file"`` with no ``data_dir``
    creates a private temporary directory.

    >>> open_backend().name
    'memory'
    >>> open_backend("memory").name
    'memory'
    """
    backend = backend or "memory"
    if backend == "memory":
        return MemoryBackend()
    if backend == "file":
        from repro.storage.file_backend import FileBackend

        return FileBackend(data_dir)
    raise BackupError(
        f"unknown storage backend {backend!r}; expected one of {BACKENDS}"
    )
