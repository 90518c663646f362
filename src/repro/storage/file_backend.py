"""File-backed storage backend: real fds, real offsets, real ``fsync``.

Conforms to the :mod:`repro.storage.api` protocols by subclassing the
in-memory stores and overriding only their *device hooks* — every
media/fault/integrity check stays in the base-class protocol methods, so
fault injection behaves identically for both backends (one shared
fault-point set, no duplicated checks).

On-disk layout under one ``data_dir``::

    stable/p0000.pages      log-structured page file, one per partition:
    stable/p0001.pages      each install appends [u32 length][JSON body]
    ...                     with {"slot","lsn","crc","value"}; the store
                            keeps a {page: (offset, length)} index of
                            each page's latest record.
    stable/shadow.journal   doublewrite journal: pre-images of an
                            in-flight multi-page install, fsynced before
                            the install touches any cell.
    wal/stream0.log         append-only log file (record specs as
                            JSONL); appends buffer in memory,
                            ``sync()`` writes the pending suffix and
                            ``os.fsync``s — the write_log/latch shape
                            of log.cc in SNIPPETS.md.
    backups/b0001.jsonl     one append-only file per backup run: JSONL
                            page records in copy order, sealed by a
                            footer line at ``complete()``.

Crash-safety invariants are documented in docs/STORAGE.md.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.codec import CodecError, encode_value
from repro.ids import LSN, PageId
from repro.storage.api import StorageBackend
from repro.storage.backup_db import BackupDatabase
from repro.storage.layout import Layout
from repro.storage.page import PageVersion
from repro.storage.stable_db import StableDatabase

__all__ = [
    "FileBackend",
    "FileStableDatabase",
    "FileBackupDatabase",
    "FileLogDevice",
]

_LEN = struct.Struct(">I")


def _encode_body(slot: int, version: PageVersion) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "slot": slot,
        "lsn": version.page_lsn,
        "crc": version.checksum(),
    }
    try:
        body["value"] = encode_value(version.value)
    except CodecError:
        # Non-codec values (e.g. the POISON quarantine sentinel) get an
        # opaque repr record: the device cost is still paid, but reads
        # resolve from the in-memory cell.
        body["opaque"] = repr(version.value)
    return body


def _pack_record(body: Dict[str, Any]) -> bytes:
    data = json.dumps(body, separators=(",", ":")).encode()
    return _LEN.pack(len(data)) + data


class FileStableDatabase(StableDatabase):
    """The stable database on real files: one page file per partition.

    The in-memory cells remain authoritative for values and integrity
    stamps (preserving the lazy identity-envelope semantics and support
    for non-codec values); every install additionally appends a
    checksummed record to the partition's page file, and every read pays
    a real ``pread`` of that record.  ``_bitrot`` damages both surfaces.
    """

    def __init__(
        self, layout: Layout, initial_value: Any = None, data_dir: str = "."
    ):
        self._dir = os.path.join(data_dir, "stable")
        os.makedirs(self._dir, exist_ok=True)
        self._has_device = True
        self._paths = [
            os.path.join(self._dir, f"p{partition:04d}.pages")
            for partition in range(layout.num_partitions)
        ]
        self._files = [open(path, "w+b", buffering=0) for path in self._paths]
        self._sizes = [0] * layout.num_partitions
        # page -> (offset, length) of its latest record's JSON body.
        self._locs: Dict[PageId, Tuple[int, int]] = {}
        self._shadow_path = os.path.join(self._dir, "shadow.journal")
        self._shadow_file = open(self._shadow_path, "w+b", buffering=0)
        self.bytes_read = 0
        self.bytes_written = 0
        self.journal_writes = 0
        super().__init__(layout, initial_value)

    # --------------------------------------------------------- device hooks

    def _store_version(self, page_id: PageId, version: PageVersion) -> None:
        super()._store_version(page_id, version)
        self._device_lay({page_id: version})

    def _device_lay(self, versions) -> None:
        # One record per cell, one write() per partition for the whole
        # lay: a single install, a drain's lay, or a restore.
        pending: Dict[int, List[bytes]] = {}
        for page_id, version in versions.items():
            blob = _pack_record(_encode_body(page_id.slot, version))
            partition = page_id.partition
            offset = self._sizes[partition]
            self._sizes[partition] = offset + len(blob)
            self._locs[page_id] = (offset + _LEN.size, len(blob) - _LEN.size)
            pending.setdefault(partition, []).append(blob)
        for partition, blobs in pending.items():
            data = b"".join(blobs)
            self._files[partition].write(data)
            self.bytes_written += len(data)

    def _device_read(self, page_id: PageId) -> None:
        loc = self._locs.get(page_id)
        if loc is None:  # never written: no device record to fetch
            return
        offset, length = loc
        data = os.pread(self._files[page_id.partition].fileno(), length, offset)
        self.bytes_read += len(data)

    def _device_journal(self, entries) -> None:
        chunks = []
        for pid, version in entries:
            body = _encode_body(pid.slot, version)
            body["partition"] = pid.partition
            chunks.append(_pack_record(body))
        handle = self._shadow_file
        handle.seek(0)
        handle.truncate()
        payload = b"".join(chunks)
        handle.write(payload)
        # The journal must be durable *before* the install touches any
        # cell — the doublewrite ordering invariant.
        os.fsync(handle.fileno())
        self.bytes_written += len(payload)
        self.journal_writes += 1

    def _device_clear_journal(self) -> None:
        handle = self._shadow_file
        if handle.closed:
            return
        handle.seek(0)
        handle.truncate()

    def _rot_cell(self, pid: PageId) -> None:
        super()._rot_cell(pid)
        loc = self._locs.get(pid)
        if loc is None:
            return
        offset, length = loc
        fd = self._files[pid.partition].fileno()
        raw = os.pread(fd, length, offset)
        if raw:  # flip the first byte of the on-disk record too
            os.pwrite(fd, bytes([raw[0] ^ 0xFF]) + raw[1:], offset)

    # ------------------------------------------------------ restore / media

    def _reset_partition_file(self, partition: int) -> None:
        handle = self._files[partition]
        handle.seek(0)
        handle.truncate()
        self._sizes[partition] = 0
        for pid in list(self._locs):
            if pid.partition == partition:
                del self._locs[pid]

    def restore_partition_from(
        self, partition, versions, initial_value=None
    ) -> None:
        self._reset_partition_file(partition)
        super().restore_partition_from(partition, versions, initial_value)

    def restore_from(self, versions, initial_value=None) -> None:
        for partition in range(len(self._files)):
            self._reset_partition_file(partition)
        self._device_clear_journal()
        super().restore_from(versions, initial_value)

    # --------------------------------------------------------------- lifecycle

    def sync(self) -> None:
        """``fsync`` every page file (checkpoint-style durability point)."""
        for handle in self._files:
            if not handle.closed:
                os.fsync(handle.fileno())

    def close(self) -> None:
        for handle in self._files:
            if not handle.closed:
                handle.close()
        if not self._shadow_file.closed:
            self._shadow_file.close()


class FileBackupDatabase(BackupDatabase):
    """A backup image that lands on a real append-only file.

    Records are appended in copy order as JSONL (the same page-record
    schema as the format-2 archive); ``complete()`` writes a footer
    line, ``fsync``s, and releases the fd.  The in-memory image remains
    the read surface for media recovery, exactly like the base class.
    """

    def __init__(
        self,
        backup_id: int,
        media_scan_start_lsn: LSN,
        path: str,
        base_backup_id: Optional[int] = None,
    ):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self.path = path
        self._file = open(path, "w+b", buffering=0)
        self._has_device = True
        self.bytes_written = 0
        super().__init__(
            backup_id, media_scan_start_lsn, base_backup_id=base_backup_id
        )
        header = {
            "backup_id": backup_id,
            "media_scan_start_lsn": media_scan_start_lsn,
            "base_backup_id": base_backup_id,
        }
        self._write_line(header)

    def _write_line(self, obj: Dict[str, Any]) -> None:
        data = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        self._file.write(data)
        self.bytes_written += len(data)

    def _device_record(self, entries) -> None:
        if self._file.closed:
            return
        for pid, version in entries:
            body = _encode_body(pid.slot, version)
            body["partition"] = pid.partition
            self._write_line(body)

    def _device_complete(self) -> None:
        if self._file.closed:
            return
        self._write_line(
            {"complete": True, "completion_lsn": self.completion_lsn}
        )
        os.fsync(self._file.fileno())
        self._file.close()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class FileLogDevice:
    """Append-only log file with explicit ``os.fsync``.

    The write_log/latch shape of the log.cc managers in SNIPPETS.md:
    :meth:`append` serializes the record spec and buffers it under the
    latch; :meth:`sync` writes the pending suffix and ``fsync``s it —
    one real durability event per force.  The latch keeps a sync from
    racing an append made by another thread.  The WAL manager's
    in-memory buffer stays the read/recovery surface; the file is the
    durable history (loadable with :func:`repro.wal.serialize.load_log`
    semantics via JSONL specs).
    """

    def __init__(self, wal_dir: str, truncate: bool = True):
        os.makedirs(wal_dir, exist_ok=True)
        self.path = os.path.join(wal_dir, "stream0.log")
        self._file = open(self.path, "w+b" if truncate else "a+b",
                          buffering=0)
        self._pending: List[bytes] = []
        self._latch = threading.Lock()
        self.records_appended = 0
        self.bytes_written = 0
        self.syncs = 0

    def append(self, record) -> None:
        from repro.wal.serialize import record_to_spec

        spec = record_to_spec(record)
        line = json.dumps(spec, separators=(",", ":")).encode() + b"\n"
        with self._latch:
            self._pending.append(line)
        self.records_appended += 1

    def sync(self) -> None:
        with self._latch:
            if not self._pending or self._file.closed:
                return
            data = b"".join(self._pending)
            self._pending.clear()
            self._file.write(data)
            os.fsync(self._file.fileno())
            self.bytes_written += len(data)
        self.syncs += 1

    def drop_pending(self) -> None:
        """Crash simulation: the unsynced buffer dies with the process."""
        with self._latch:
            self._pending.clear()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class FileBackend(StorageBackend):
    """Factory for the file-backed stores under one ``data_dir``.

    With no ``data_dir`` a private temporary directory is created (and
    left on disk for post-mortem inspection — CI uploads it on failure).
    One backend instance backs one database: page files are formatted
    fresh at ``create_stable``.
    """

    name = "file"

    def __init__(self, data_dir: Optional[str] = None):
        super().__init__()
        if data_dir is None:
            data_dir = tempfile.mkdtemp(prefix="repro-data-")
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)

    def create_stable(
        self, layout: Layout, initial_value: Any = None
    ) -> FileStableDatabase:
        return self._track(
            FileStableDatabase(layout, initial_value, data_dir=self.data_dir)
        )

    def create_backup(
        self,
        backup_id: int,
        media_scan_start_lsn: LSN,
        base_backup_id: Optional[int] = None,
    ) -> FileBackupDatabase:
        path = os.path.join(self.data_dir, "backups", f"b{backup_id:04d}.jsonl")
        return self._track(
            FileBackupDatabase(
                backup_id,
                media_scan_start_lsn,
                path,
                base_backup_id=base_backup_id,
            )
        )

    def create_log_device(self) -> FileLogDevice:
        return self._track(FileLogDevice(os.path.join(self.data_dir, "wal")))
