"""Simulated stable storage: pages, the stable database S, and backups B.

The paper's protocol depends on exactly two storage properties, both of
which this package models faithfully:

* **page-write atomicity** — a page write to S either happens entirely or
  not at all (``StableDatabase.write_page``), and a multi-page atomic flush
  is available for write-graph nodes whose ``vars`` contain several pages
  (``StableDatabase.write_pages_atomically``);
* **a physical backup order** — every page has a position ``#X`` in the
  backup order, derived from its physical address by :class:`Layout`.

The storage *surface* those models implement is formalized in
:mod:`repro.storage.api` as the :class:`PageStore` / :class:`BackupStore`
/ :class:`LogDevice` protocols, with two conforming backends: the
in-memory simulation (the default) and the file-backed backend of
:mod:`repro.storage.file_backend` (real fds, doublewrite journal,
fsynced log files).  :func:`open_backend` constructs one by name (one
of :data:`BACKENDS`).
"""

from repro.storage.page import PageVersion
from repro.storage.layout import Layout
from repro.storage.stable_db import StableDatabase
from repro.storage.backup_db import BackupDatabase, BackupStatus
from repro.storage.api import (
    BACKENDS,
    BackupStore,
    LogDevice,
    MemoryBackend,
    PageStore,
    StorageBackend,
    open_backend,
)

__all__ = [
    "PageVersion",
    "Layout",
    "StableDatabase",
    "BackupDatabase",
    "BackupStatus",
    "BACKENDS",
    "PageStore",
    "BackupStore",
    "LogDevice",
    "StorageBackend",
    "MemoryBackend",
    "open_backend",
]
