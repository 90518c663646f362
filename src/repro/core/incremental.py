"""Incremental backup support (section 6.1).

The engine itself takes incremental backups when handed an ``update_set``
(the pages updated since the base backup); this module supplies the
restore side: overlaying a chain [full, inc₁, inc₂, …] and rolling
forward from the *base full backup's* media-log scan start (see
``run_media_recovery_chain`` for why the widest window is required).

Soundness sketch (matching the paper's two aspects):

1. every page not updated since the base carries its base-backup value;
2. every page updated since the base is in some incremental's copy set
   and was either captured fuzzily by that sweep or its operations are at
   or after that sweep's scan-start truncation point — the same Iw/oF and
   progress-tracking machinery as a full backup guarantees order.  A
   sweep that aborts (crash, media failure) hands its copy set back to
   ``Database.updated_since_backup``, so the pages it owed reach the
   next incremental.
"""

from __future__ import annotations

from typing import (
    Any,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import NoBackupError, RecoveryError
from repro.ids import LSN, PageId
from repro.obs.events import (
    CHAIN_FALLBACK,
    CORRUPTION_DETECTED,
    RECOVERY_PHASE,
)
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome
from repro.recovery.media_recovery import resolve_media_target
from repro.recovery.pipeline import run_recovery
from repro.storage.backup_db import BackupDatabase
from repro.storage.page import PageVersion
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager


def validate_chain(chain: Sequence[BackupDatabase]) -> None:
    """Check a restore chain: full base, then incrementals in order."""
    if not chain:
        raise NoBackupError("empty backup chain")
    for backup in chain:
        if not backup.is_complete:
            raise NoBackupError(
                f"backup {backup.backup_id} is {backup.status.value}"
            )
    base = chain[0]
    if getattr(base, "base_backup_id", None) is not None:
        raise RecoveryError(
            f"chain base {base.backup_id} is itself incremental"
        )
    previous = base
    for link in chain[1:]:
        base_id = getattr(link, "base_backup_id", None)
        if base_id is None:
            raise RecoveryError(
                f"backup {link.backup_id} is a full backup, not a link"
            )
        if link.media_scan_start_lsn < previous.media_scan_start_lsn:
            raise RecoveryError(
                f"chain out of order: {link.backup_id} starts before "
                f"{previous.backup_id}"
            )
        previous = link


def overlay_chain(
    chain: Sequence[BackupDatabase], damaged: Sequence[Set[PageId]]
) -> Tuple[Iterator[Tuple[PageId, PageVersion]], List[PageId]]:
    """The chain's merged image, streamed, plus the pages it cannot supply.

    Later links override earlier ones.  ``damaged[i]`` are the cells of
    ``chain[i]`` that fail their checksum; they are skipped, so the page
    falls back to an earlier link's copy — replay starts from the *base*
    scan start, which covers every update a later copy reflected, so the
    earlier copy plus redo is sound (cost-only, never wrong).  A page
    damaged in every link that carries it has no intact source: it is
    returned in ``lost`` (sorted) and never streamed.

    The stream walks the links newest first and yields each page once,
    so no link image is materialized beyond the ids already seen.
    """
    links = list(zip(chain, damaged))
    lost = sorted(
        pid
        for pid in set().union(*damaged)
        if not any(pid in backup and pid not in bad for backup, bad in links)
    )

    def pages():
        seen: Set[PageId] = set()
        for backup, bad in reversed(links):
            for pid, version in backup.iter_pages():
                if pid not in seen and pid not in bad:
                    seen.add(pid)
                    yield pid, version

    return pages(), lost


def run_media_recovery_chain(
    stable: StableDatabase,
    chain: Sequence[BackupDatabase],
    log: LogManager,
    to_lsn: Optional[LSN] = None,
    oracle: Optional[Mapping[PageId, Any]] = None,
    initial_value: Any = None,
    tracer=None,
    metrics=None,
) -> RecoveryOutcome:
    """Restore from a full+incremental chain and roll forward.

    Roll-forward starts at the **base full backup's** media-log scan
    start, not the last link's: a page whose update was unflushed when
    an earlier link fuzzily copied it is covered only by that earlier
    link's media-log window, and the update may have been flushed (and
    thus truncated out of later links' windows) before the next link
    began.  The LSN redo test makes the wider scan cost-only, never
    wrong.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    validate_chain(chain)
    # The last link is fuzzy up to its completion point, like any backup.
    target = resolve_media_target(chain[-1], log, to_lsn)
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="media-chain", phase="begin",
                    links=len(chain), target_lsn=target)

    damaged = [set(backup.damaged_pages()) for backup in chain]
    pages, quarantine_seed = overlay_chain(chain, damaged)
    if tracer.enabled and any(damaged):
        for backup, bad in zip(chain, damaged):
            if bad:
                tracer.emit(
                    CORRUPTION_DETECTED, site="backup",
                    backup_id=backup.backup_id,
                    pages=[str(p) for p in sorted(bad)],
                )
        healed_by_chain = sorted(set().union(*damaged) - set(quarantine_seed))
        tracer.emit(
            CHAIN_FALLBACK, action="skip-damaged-link-pages",
            healed=[str(p) for p in healed_by_chain],
            unrepairable=[str(p) for p in quarantine_seed],
        )
    scan_start = chain[0].media_scan_start_lsn
    return run_recovery(
        "media-chain",
        pages,
        log.scan(scan_start, target),
        stable=stable,
        restore=stable.restore_from,
        seeds=quarantine_seed,
        expected=oracle,
        initial_value=initial_value,
        tracer=tracer,
        metrics=metrics,
        phase_fields={"restore": dict(scan_start_lsn=scan_start)},
    )
