"""``BackupConfig``: the one value object for the backup knobs.

Every knob that shapes a backup is set here and nowhere else:
``Database.start_backup(config)`` reads the sweep shape,
``Database.run_backup(config)`` the copy batch size, and
``Database.attach_archive(config)`` both plus the archive scheduling
knobs.  Where the data lives (``Database(backend=..., data_dir=...)``)
and which algorithm copies it are not backup knobs: the paper's
strawmen are built directly
(``NaiveFuzzyDump(db.cm, storage=db.storage)``).

>>> from repro.core.config import BackupConfig
>>> BackupConfig(steps=4, batched=False)  # doctest: +NORMALIZE_WHITESPACE
BackupConfig(steps=4, pages_per_tick=8, incremental=False,
             dynamic_extend=True, batched=False, incremental_every=None,
             compact_threshold=None)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError


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
    incremental_every: Optional[int] = None
    compact_threshold: Optional[int] = None

    def __post_init__(self):
        if self.steps < 1:
            raise ReproError("BackupConfig.steps must be >= 1")
        if self.pages_per_tick < 1:
            raise ReproError("BackupConfig.pages_per_tick must be >= 1")
        if self.incremental_every is not None and self.incremental_every < 1:
            raise ReproError(
                "BackupConfig.incremental_every must be >= 1 (or None)"
            )
        if self.compact_threshold is not None and self.compact_threshold < 1:
            raise ReproError(
                "BackupConfig.compact_threshold must be >= 1 (or None)"
            )
