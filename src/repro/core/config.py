"""``BackupConfig``: one value object for all backup knobs.

``Database.start_backup`` / ``run_backup`` historically grew a scatter
of positional/keyword arguments (``steps``, ``incremental``,
``dynamic_extend``, ``batched``, ``pages_per_tick``) spread across two
calls.  ``BackupConfig`` gathers them into a single frozen dataclass so
a backup's shape can be named once, passed around, and compared; the
legacy keyword signatures remain as deprecated aliases.

>>> from repro.core.config import BackupConfig
>>> BackupConfig(steps=4, batched=False)  # doctest: +NORMALIZE_WHITESPACE
BackupConfig(steps=4, pages_per_tick=8, incremental=False,
             dynamic_extend=True, batched=False, engine='engine',
             backend='memory', data_dir=None, incremental_every=None,
             compact_threshold=None)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError

#: Engine choices: the paper's loosely-coupled engine, the conventional
#: (broken-under-logical-ops) fuzzy dump, and the linked-flush strawman.
ENGINES = ("engine", "naive", "linked")

#: Storage backends (see repro.storage.api.open_backend).
BACKENDS = ("memory", "file")


@dataclass(frozen=True)
class BackupConfig:
    """How a backup is taken.

    ``steps``          — coarse sweep steps per partition (D/P protocol);
    ``pages_per_tick`` — copy batch size for ``run_backup``;
    ``incremental``    — copy only pages updated since the last backup;
    ``dynamic_extend`` — extend an incremental copy set on the fly when a
                         pending page outside it is flushed;
    ``batched``        — bulk per-partition spans vs page-at-a-time
                         round-robin copying;
    ``engine``         — ``"engine"`` (section 3), ``"naive"`` (§1.2
                         fuzzy dump) or ``"linked"`` (§1.3 strawman);
    ``backend``        — storage backend: ``"memory"`` (python dicts) or
                         ``"file"`` (real fds, offsets and ``fsync``;
                         see :mod:`repro.storage.file_backend`).  A
                         harness knob — it shapes the *database* the
                         harnesses construct, not the backup algorithm
                         itself — resolved by
                         :func:`repro.storage.api.open_backend`;
    ``data_dir``       — directory for the file backend's page/log/backup
                         files (default: a fresh temporary directory);
    ``incremental_every`` — archive-tier scheduling knob
                         (``Database.attach_archive``): take the next
                         incremental generation once this many LSNs
                         accumulated since the last generation sealed
                         (``None`` = no automatic incrementals);
    ``compact_threshold`` — archive-tier scheduling knob: compact the
                         chain once it carries this many incremental
                         links (``None`` = never compact automatically).
    """

    steps: int = 8
    pages_per_tick: int = 8
    incremental: bool = False
    dynamic_extend: bool = True
    batched: bool = True
    engine: str = "engine"
    backend: str = "memory"
    data_dir: Optional[str] = None
    incremental_every: Optional[int] = None
    compact_threshold: Optional[int] = None

    def __post_init__(self):
        if self.steps < 1:
            raise ReproError("BackupConfig.steps must be >= 1")
        if self.pages_per_tick < 1:
            raise ReproError("BackupConfig.pages_per_tick must be >= 1")
        if self.engine not in ENGINES:
            raise ReproError(
                f"unknown backup engine {self.engine!r}; choose from "
                f"{list(ENGINES)}"
            )
        if self.incremental and self.engine != "engine":
            raise ReproError(
                "incremental backups require the section-3 engine"
            )
        if self.backend not in BACKENDS:
            raise ReproError(
                f"unknown storage backend {self.backend!r}; choose from "
                f"{list(BACKENDS)}"
            )
        if self.data_dir is not None and self.backend != "file":
            raise ReproError(
                "BackupConfig.data_dir is only meaningful with "
                "backend='file'"
            )
        if self.incremental_every is not None and self.incremental_every < 1:
            raise ReproError(
                "BackupConfig.incremental_every must be >= 1 (or None)"
            )
        if self.compact_threshold is not None and self.compact_threshold < 1:
            raise ReproError(
                "BackupConfig.compact_threshold must be >= 1 (or None)"
            )
