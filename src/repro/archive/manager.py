"""The log-structured archive tier: generation chains over sealed backups.

Backups stop being independent images and become **generations of an
incremental chain**: a base full backup, then periodic incremental
sweeps that copy only the pages dirtied since the previous generation
(the update set the ``Database`` accumulates per writeset, widened by
the heap-backed rLSN tracker's currently-dirty pages — both derive from
the same recovery-LSN bookkeeping, and the widening is cost-only by the
LSN redo test).  Backup cost becomes proportional to churn, not
database size — the property that matters at scale (LogBase; Sauer &
Härder's chained, log-ordered archive state).

The chain's structure lives in a checksummed, atomically-replaced
**manifest** (:mod:`repro.archive.manifest`).  Three maintenance
operations keep the chain healthy:

* :meth:`ArchiveManager.tick` — the scheduler: take the base full if
  none exists, an incremental once ``incremental_every`` LSNs have
  accumulated past the last seal, and compact once the chain carries
  ``compact_threshold`` incremental links.
* :meth:`ArchiveManager.compact` — merge the whole chain into one new
  full generation with **journal-then-swap** crash atomicity: an intent
  journal is persisted first, the merged image is built through the
  engine's fault plane, the manifest is swapped atomically, and only
  then are the source generations retired (newest first).  A crash at
  any point leaves the *old* chain fully usable; startup recovery uses
  the journal to roll the swap forward or discard the attempt.
* :meth:`ArchiveManager.heal_chain` — the healing ladder for a
  bitrot-damaged generation, page by page: (1) the generation is a
  *link* (not the base) and a newer generation holds an intact copy →
  the damaged cell is *dropped* (shadowed in every restore that
  includes the donor; a PITR cut before the donor's seal falls back to
  an older copy plus the base-scan-start replay, cost-only never
  wrong — an older copy exists precisely because the damaged
  generation is not the base); (2) otherwise rebuild the page from the
  older generations plus the logged operations up to the damaged
  generation's seal point and install it with ``heal_page``; (3) no
  donor anywhere → leave it for honest quarantine at restore time.
  Damage in the **base** generation never takes rung 1: dropping the
  base's cell would leave a PITR cut before the donor's seal with no
  copy at all, silently restoring the initial value where an unhealed
  chain would have quarantined.  A newer generation's value is
  **never** installed into an older one — that would smuggle future
  state into point-in-time restores targeting the older seal point.

Point-in-time restore (:meth:`Database.restore_to_lsn`) picks the
longest chain prefix sealed at-or-before the target, overlays it, and
replays the media-log suffix truncated at the target — the fuzzy-backup
rules are unchanged, only the roll-forward stops early.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.archive.manifest import (
    KIND_COMPACTED,
    KIND_FULL,
    KIND_INCREMENTAL,
    ChainManifest,
    FileManifestStore,
    GenerationRecord,
    MemoryManifestStore,
)
from repro.core.config import BackupConfig
from repro.core.incremental import overlay_chain, validate_chain
from repro.errors import (
    BackupError,
    ChainPinnedError,
    ManifestError,
    NoBackupError,
    RecoveryError,
)
from repro.ids import LSN, PageId
from repro.obs import events as ev
from repro.recovery.pipeline import run_recovery
from repro.recovery.redo import contains_poison
from repro.storage.backup_db import BackupDatabase

#: Pages per bulk record call while building a compacted generation —
#: each batch is one BACKUP_BULK_RECORD protocol-boundary I/O, so armed
#: faults (torn/crash/bitrot) fire *inside* compaction exactly as they
#: do inside a sweep.
COMPACTION_BATCH = 64


@dataclass
class ChainHealReport:
    """What :meth:`ArchiveManager.heal_chain` did, page by page."""

    #: ``(backup_id, page_id, action)`` per healed page; ``action`` is
    #: ``"newer-shadows"`` (damaged cell dropped) or ``"rebuild"``
    #: (reconstructed from older generations + logged operations).
    healed: List[Tuple[int, PageId, str]] = field(default_factory=list)
    #: ``(backup_id, page_id)`` pages with no donor: left damaged, to be
    #: quarantined honestly by the next restore.
    quarantined: List[Tuple[int, PageId]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def summary(self) -> str:
        return (
            f"chain heal: {len(self.healed)} page(s) healed, "
            f"{len(self.quarantined)} without a donor"
        )


def select_chain_prefix(
    chain: Sequence[BackupDatabase], to_lsn: LSN
) -> List[BackupDatabase]:
    """The longest chain prefix whose every link sealed at-or-before
    ``to_lsn`` — the generations a point-in-time restore may overlay.

    A link sealed after the target is fuzzy beyond it and must be
    excluded (its pages may already contain effects of operations past
    the cut); the links after it depend on it and fall away with it.
    """
    if not chain:
        raise NoBackupError("archive chain is empty")
    base = chain[0]
    if base.completion_lsn is None or base.completion_lsn > to_lsn:
        raise RecoveryError(
            f"no archive generation sealed at or before LSN {to_lsn}: "
            f"the chain base completed at {base.completion_lsn}"
        )
    prefix: List[BackupDatabase] = [base]
    for link in chain[1:]:
        if link.completion_lsn is None or link.completion_lsn > to_lsn:
            break
        prefix.append(link)
    return prefix


class ArchiveManager:
    """Schedules, compacts, verifies, and heals one database's chain."""

    def __init__(
        self,
        db,
        config: Optional[BackupConfig] = None,
        manifest_store=None,
    ):
        """``config`` gives the sweep shape of every generation taken and
        the :meth:`tick` schedule (``incremental_every``,
        ``compact_threshold``)."""
        self.db = db
        self.config = config or BackupConfig()
        if manifest_store is None:
            data_dir = getattr(db.storage, "data_dir", None)
            manifest_store = (
                FileManifestStore(data_dir)
                if data_dir is not None
                else MemoryManifestStore()
            )
        self.store = manifest_store
        self.manifest = ChainManifest(())
        self._recover()

    # ----------------------------------------------------- startup recovery

    def _recover(self) -> None:
        """Load the manifest; resolve a crashed compaction via the journal.

        Journal present and the manifest already lists the merged
        generation → the swap committed before the crash: roll forward
        by finishing the interrupted epilogue — retire the journal's
        source generations (newest first, matching :meth:`compact`) so
        their pin on the log is released, then clear the journal.
        Journal present but the manifest untouched → the crash hit
        while building or before the swap: discard the attempt; the old
        chain was never modified.
        """
        blob = self.store.load()
        if blob is not None:
            self.manifest = ChainManifest.from_bytes(blob)
        journal_blob = self.store.load_journal()
        if journal_blob is None:
            return
        try:
            journal = json.loads(journal_blob.decode("utf-8"))
            into = journal.get("into")
            merge = journal.get("merge")
        except (ValueError, UnicodeDecodeError, AttributeError):
            into = None
            merge = None
        if not isinstance(merge, list):
            merge = []
        tracer = self.db.tracer
        if into is not None and into in self.manifest.generation_ids():
            # Swap committed: the new chain is authoritative.  The
            # crash window between the swap and the journal clear left
            # the sources unretired, still pinning the log at the old
            # base's scan start — release them now, newest first so no
            # remaining link chains through an already-retired base.
            current = set(self.manifest.generation_ids())
            by_id = {b.backup_id: b for b in self.db.engine.completed}
            retired = []
            for backup_id in reversed(merge):
                backup = by_id.get(backup_id)
                if (
                    backup is None
                    or backup_id in current
                    or self.db.retention.is_retired(backup)
                ):
                    continue
                try:
                    self.db.retention.retire_backup(backup)
                except ChainPinnedError:
                    continue  # genuinely pinned by an outside chain
                retired.append(backup_id)
            self.store.clear_journal()
            if tracer.enabled:
                tracer.emit(ev.COMPACTION, phase="complete", into=into,
                            rolled_forward=True, retired=retired)
        else:
            self.store.clear_journal()
            if tracer.enabled:
                tracer.emit(ev.COMPACTION, phase="rollback", into=into)

    # ------------------------------------------------------------ the chain

    def _images(self) -> Dict[int, BackupDatabase]:
        return {
            b.backup_id: b for b in self.db.engine.completed if b.is_complete
        }

    def chain(self) -> List[BackupDatabase]:
        """The manifest's generations resolved to backup images, in
        overlay order.  A manifest naming a missing image is a fatal
        inconsistency, reported as :class:`ManifestError`."""
        images = self._images()
        chain = []
        for record in self.manifest.generations:
            image = images.get(record.backup_id)
            if image is None:
                raise ManifestError(
                    f"chain manifest names backup {record.backup_id} but "
                    "no such image exists in the backup store"
                )
            chain.append(image)
        return chain

    def generation_records(self) -> List[GenerationRecord]:
        return list(self.manifest.generations)

    def _publish(self, generations) -> None:
        self.manifest = self.manifest.with_generations(generations)
        self.store.save(self.manifest.to_bytes())

    # ------------------------------------------------------------ sealing

    def register(self, backup: BackupDatabase, kind: str) -> GenerationRecord:
        """Record a sealed backup as the chain's next generation."""
        if not backup.is_complete:
            raise BackupError(
                f"backup {backup.backup_id} is {backup.status.value}; only "
                "sealed backups become generations"
            )
        record = GenerationRecord(
            backup_id=backup.backup_id,
            kind=kind,
            base_backup_id=getattr(backup, "base_backup_id", None),
            media_scan_start_lsn=backup.media_scan_start_lsn,
            completion_lsn=backup.completion_lsn,
            pages=backup.copied_count(),
        )
        self._publish(list(self.manifest.generations) + [record])
        tracer = self.db.tracer
        if tracer.enabled:
            tracer.emit(
                ev.GENERATION_SEALED,
                backup_id=record.backup_id,
                kind=kind,
                completion_lsn=record.completion_lsn,
                pages=record.pages,
                chain_length=len(self.manifest.generations),
            )
        return record

    def adopt_existing(self) -> int:
        """Adopt the engine's trailing completed chain into an empty
        manifest (the attach-to-an-already-backed-up database path):
        the newest full backup plus every later completed link."""
        if self.manifest.generations:
            return 0
        completed = [b for b in self.db.engine.completed if b.is_complete]
        base_index = None
        for i in range(len(completed) - 1, -1, -1):
            if getattr(completed[i], "base_backup_id", None) is None:
                base_index = i
                break
        if base_index is None:
            return 0
        adopted = completed[base_index:]
        validate_chain(adopted)
        for i, backup in enumerate(adopted):
            self.register(backup, KIND_FULL if i == 0 else KIND_INCREMENTAL)
        return len(adopted)

    # ---------------------------------------------------------- scheduling

    def run_full(self, tick=None) -> BackupDatabase:
        """Take the chain's base full backup."""
        cfg = replace(self.config, incremental=False)
        self.db.start_backup(cfg)
        backup = self.db.run_backup(cfg, tick=tick)
        self.register(backup, KIND_FULL)
        return backup

    def run_incremental(self, tick=None) -> BackupDatabase:
        """Take the next incremental generation.

        The copy set is the pages dirtied since the previous generation:
        the database's per-writeset ``updated_since_backup`` accumulator
        widened by the rLSN tracker's currently-dirty pages — the same
        recovery-LSN state that drives log truncation.  The widening is
        cost-only (a page dirty across the previous seal was captured by
        that generation or its operations are on the retained log).
        """
        if not self.manifest.generations:
            raise NoBackupError(
                "incremental generation requires a chain base; call "
                "run_full() (or tick()) first"
            )
        self.db.updated_since_backup |= self.db.cm.rec.dirty_pages()
        cfg = replace(self.config, incremental=True)
        self.db.start_backup(cfg)
        backup = self.db.run_backup(cfg, tick=tick)
        self.register(backup, KIND_INCREMENTAL)
        return backup

    def links(self) -> int:
        """Incremental links currently in the chain (non-base records)."""
        return max(0, len(self.manifest.generations) - 1)

    def tick(self, tick=None) -> Optional[BackupDatabase]:
        """One scheduler step; returns the backup produced, if any.

        Priority: a chain must have a base; an over-threshold chain is
        compacted before it grows further; otherwise an incremental is
        taken once ``incremental_every`` LSNs accumulated since the last
        seal.
        """
        if not self.manifest.generations:
            return self.run_full(tick=tick)
        threshold = self.config.compact_threshold
        if threshold is not None and self.links() >= threshold:
            return self.compact()
        every = self.config.incremental_every
        if every is not None:
            last = self.manifest.generations[-1]
            if self.db.log.end_lsn - last.completion_lsn >= every:
                return self.run_incremental(tick=tick)
        return None

    # ---------------------------------------------------------- compaction

    def compact(self) -> BackupDatabase:
        """Merge the whole chain into one new full generation.

        Journal-then-swap: persist the intent journal, build the merged
        image through the engine (same id space, storage backend, and
        fault plane as swept backups — armed faults fire here too), swap
        the manifest atomically, clear the journal, and only then retire
        the source generations.  Any failure before the swap aborts the
        partial image and discards the journal; the old manifest — and
        every source image — is untouched.
        """
        chain = self.chain()
        if len(chain) < 2:
            raise BackupError("compaction needs at least two generations")
        validate_chain(chain)
        base, last = chain[0], chain[-1]

        # The merged overlay: later links override earlier ones; damaged
        # cells are skipped (the older copy + the base-scan-start replay
        # heals them at restore time — cost-only, never wrong).  A page
        # damaged in *every* copy has no intact source: merging would
        # launder the loss into a "clean" image, so refuse and demand a
        # heal/quarantine pass first.
        pages, lost = overlay_chain(
            chain, [set(backup.damaged_pages()) for backup in chain]
        )
        if lost:
            raise BackupError(
                f"cannot compact: {len(lost)} page(s) damaged in every "
                f"generation (first: {lost[0]!r}); run heal_chain() first"
            )
        overlay = dict(pages)

        engine = self.db.engine
        merged_id = engine._next_id
        journal = {
            "merge": self.manifest.generation_ids(),
            "into": merged_id,
            "epoch": self.manifest.epoch,
        }
        self.store.save_journal(
            json.dumps(journal, separators=(",", ":")).encode("utf-8")
        )
        tracer = self.db.tracer
        if tracer.enabled:
            tracer.emit(
                ev.COMPACTION, phase="begin", into=merged_id,
                merge=journal["merge"],
            )
        merged = engine.allocate_backup(
            base.media_scan_start_lsn, base_backup_id=None
        )
        try:
            ordered = sorted(overlay)
            for start in range(0, len(ordered), COMPACTION_BATCH):
                merged.record_pages(
                    (pid, overlay[pid])
                    for pid in ordered[start:start + COMPACTION_BATCH]
                )
            # The merged generation is exactly the chain overlay: it
            # inherits the base's redo-span start and the last link's
            # seal point, so every restore (and PITR cut) the chain
            # served, the merged image serves identically.
            merged.complete(last.completion_lsn)
        except BaseException:
            merged.abort()
            self.store.clear_journal()
            if tracer.enabled:
                tracer.emit(
                    ev.COMPACTION, phase="rollback", into=merged_id,
                )
            raise
        engine.completed.append(merged)
        if tracer.enabled:
            tracer.emit(ev.COMPACTION, phase="swap", into=merged_id)
        record = GenerationRecord(
            backup_id=merged.backup_id,
            kind=KIND_COMPACTED,
            base_backup_id=None,
            media_scan_start_lsn=merged.media_scan_start_lsn,
            completion_lsn=merged.completion_lsn,
            pages=merged.copied_count(),
        )
        self._publish([record])
        self.store.clear_journal()
        # Sources are released newest-first so no remaining retained
        # link is ever chained through an already-retired base.
        for backup in reversed(chain):
            self.db.retention.retire_backup(backup)
        if tracer.enabled:
            tracer.emit(
                ev.COMPACTION, phase="complete", into=merged_id,
                pages=record.pages, retired=journal["merge"],
            )
            tracer.emit(
                ev.GENERATION_SEALED,
                backup_id=record.backup_id, kind=KIND_COMPACTED,
                completion_lsn=record.completion_lsn, pages=record.pages,
                chain_length=1,
            )
        return merged

    # ------------------------------------------------------------- healing

    def heal_chain(self) -> ChainHealReport:
        """Heal every damaged page in every generation (the ladder).

        Rung 1 — *newer shadows* (chain links only, never the base):
        some later generation holds an intact copy of the page, so no
        restore that includes it ever reads the damaged cell through
        the overlay; drop it (restores that exclude the newer
        generation — PITR to an earlier cut — fall back to an older
        copy plus replay, which is sound by the base-scan-start
        argument *because* every restorable prefix of a non-base
        generation contains the full base's copy).  The base itself has
        no older copy to fall back to: dropping its damaged cell would
        make a PITR cut before the donor's seal silently restore the
        initial value instead of quarantining, so base damage skips
        straight to rung 2.

        Rung 2 — *rebuild*: overlay the chain prefix up to and including
        the damaged generation (skipping damaged cells), replay the
        media log from the base's scan start to the damaged generation's
        seal point, and install the reconstructed page with
        ``heal_page``.  The rebuilt cell carries state at the seal point
        — never newer — so PITR semantics are preserved.

        Rung 3 — *quarantine*: no intact copy and no trustworthy rebuild
        (log truncated past the base's scan start, or the replayed value
        still carries poison): leave the cell damaged so restores
        quarantine it honestly, and report it.
        """
        chain = self.chain()
        report = ChainHealReport()
        if not chain:
            return report
        damaged_by_gen = [set(b.damaged_pages()) for b in chain]
        tracer = self.db.tracer
        for index, backup in enumerate(chain):
            for pid in sorted(damaged_by_gen[index]):
                action = None
                donor = None
                if index > 0:  # the base has no older copy to fall back to
                    for j in range(len(chain) - 1, index, -1):
                        if pid in chain[j] and pid not in damaged_by_gen[j]:
                            donor = chain[j]
                            break
                if donor is not None:
                    backup.drop_page(pid)
                    action = "newer-shadows"
                else:
                    version = self._rebuild_page(
                        chain, damaged_by_gen, index, pid
                    )
                    if version is not None:
                        backup.heal_page(pid, version)
                        action = "rebuild"
                if action is None:
                    report.quarantined.append((backup.backup_id, pid))
                    action = "quarantine"
                else:
                    report.healed.append((backup.backup_id, pid, action))
                    damaged_by_gen[index].discard(pid)
                if tracer.enabled:
                    tracer.emit(
                        ev.CHAIN_HEAL, action=action, page=str(pid),
                        backup_id=backup.backup_id,
                        donor=getattr(donor, "backup_id", None),
                    )
        return report

    def _rebuild_page(self, chain, damaged_by_gen, index, pid):
        """Reconstruct one page as of ``chain[index]``'s seal point.

        Returns ``None`` when the rebuild cannot be trusted: the log no
        longer reaches the base's scan start, or the replayed value
        still contains poison (its history ran through a page that has
        no intact copy anywhere in the prefix).
        """
        db = self.db
        base_scan = chain[0].media_scan_start_lsn
        if base_scan < db.log.first_retained_lsn:
            return None
        # Pages recorded somewhere in the prefix but intact nowhere have
        # no trustworthy source; they replay as poison so a rebuild whose
        # history runs through them fails loudly instead of silently
        # using the initial value.
        pages, lost = overlay_chain(
            chain[:index + 1], damaged_by_gen[:index + 1]
        )
        image = dict(pages)
        outcome = run_recovery(
            "chain-heal",
            image,
            db.log.scan(base_scan, chain[index].completion_lsn),
            stable=None,
            seeds=lost,
            initial_value=db.initial_value,
            metrics=db.metrics,
        )
        # The state holds only what replay wrote (and the lost seeds);
        # a page it never rewrote is still as the overlay had it.
        version = outcome.state.get(pid) or image.get(pid)
        if version is None or contains_poison(version.value):
            return None
        return version
