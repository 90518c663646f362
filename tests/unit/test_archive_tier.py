"""Unit tests for the archive tier (src/repro/archive, docs/ARCHIVE.md).

Covers the chain manifest (CRC envelope, atomic replace, journal crash
windows), the scheduler, journal-then-swap compaction crash atomicity,
the page-healing ladder, chain-aware retention pinning, the new
BackupConfig knobs, and chain-aware scrubbing.
"""

import pytest

from repro.archive import (
    ArchiveManager,
    ChainManifest,
    FileManifestStore,
    GenerationRecord,
    MemoryManifestStore,
    select_chain_prefix,
)
from repro.archive.manifest import KIND_COMPACTED, KIND_FULL, KIND_INCREMENTAL
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import (
    BackupError,
    ChainPinnedError,
    ManifestError,
    NoBackupError,
    RecoveryError,
    ReproError,
    SimulatedCrash,
)
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.sim.faults import FaultKind, FaultPlane, FaultSpec, IOPoint


def _record(backup_id, kind=KIND_FULL, base=None, scan=1, completion=10,
            pages=4):
    return GenerationRecord(
        backup_id=backup_id, kind=kind, base_backup_id=base,
        media_scan_start_lsn=scan, completion_lsn=completion, pages=pages,
    )


def _seeded_db(pages=16):
    db = Database(pages_per_partition=[pages], policy="general")
    for slot in range(pages):
        db.execute(PhysicalWrite(PageId(0, slot), ("seed", slot)))
    db.checkpoint()
    return db


def _chain_db(pages=16):
    """A database with a three-generation chain and known copy sets.

    Generation layout (by slot of partition 0):

    * base full: every page;
    * inc1: slots 1, 2, 3, 7 (written after the full);
    * inc2: slots 4, 5, 7 (written after inc1 — slot 7 is in *both*
      incrementals, the newer-shadows healing case).
    """
    db = _seeded_db(pages)
    archive = db.attach_archive(BackupConfig(steps=4))
    archive.run_full()
    for slot in (1, 2, 3, 7):
        db.execute(PhysicalWrite(PageId(0, slot), ("mid", slot)))
    db.checkpoint()  # installed: each copy set is exactly the writes
    archive.run_incremental()
    for slot in (4, 5, 7):
        db.execute(PhysicalWrite(PageId(0, slot), ("late", slot)))
    db.checkpoint()
    archive.run_incremental()
    return db, archive


class TestManifest:
    def test_round_trip(self):
        manifest = ChainManifest((
            _record(1), _record(2, KIND_INCREMENTAL, base=1, completion=20),
        ), epoch=3)
        loaded = ChainManifest.from_bytes(manifest.to_bytes())
        assert loaded == manifest
        assert loaded.generation_ids() == [1, 2]

    def test_crc_detects_corruption(self):
        blob = bytearray(ChainManifest((_record(1),)).to_bytes())
        # Flip a byte inside the payload region (past the CRC header).
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(ManifestError):
            ChainManifest.from_bytes(bytes(blob))

    def test_unreadable_blob_rejected(self):
        with pytest.raises(ManifestError):
            ChainManifest.from_bytes(b"not json at all")

    def test_with_generations_bumps_epoch(self):
        manifest = ChainManifest((_record(1),), epoch=5)
        assert manifest.with_generations([_record(2)]).epoch == 6

    def test_malformed_record_rejected(self):
        with pytest.raises(ManifestError):
            GenerationRecord.from_dict({"backup_id": 1})


class TestFileManifestStore:
    def test_round_trip_and_journal(self, tmp_path):
        store = FileManifestStore(str(tmp_path))
        assert store.load() is None
        assert store.load_journal() is None
        store.save(b"manifest-v1")
        store.save_journal(b"journal-v1")
        assert store.load() == b"manifest-v1"
        assert store.load_journal() == b"journal-v1"
        store.clear_journal()
        assert store.load_journal() is None
        store.clear_journal()  # idempotent

    def test_crashed_replace_keeps_old_manifest(self, tmp_path,
                                                monkeypatch):
        """A crash in the publish window must leave the old manifest:
        the write goes to a temp file and only ``os.replace`` commits."""
        store = FileManifestStore(str(tmp_path))
        store.save(b"manifest-v1")

        def boom(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(
            "repro.archive.manifest.os.replace", boom
        )
        with pytest.raises(OSError):
            store.save(b"manifest-v2")
        monkeypatch.undo()
        assert store.load() == b"manifest-v1"


class TestJournalRecovery:
    def test_journal_with_swapped_manifest_rolls_forward(self):
        """Crash after the manifest swap but before the journal clear:
        startup must keep the new chain and clear the journal."""
        db, archive = _chain_db()
        compacted = archive.compact()
        archive.store.save_journal(
            b'{"merge": [1, 2, 3], "into": %d}' % compacted.backup_id
        )
        reborn = ArchiveManager(db, manifest_store=archive.store)
        assert reborn.store.load_journal() is None
        assert reborn.manifest.generation_ids() == [compacted.backup_id]

    def test_journal_without_swap_rolls_back(self):
        """Crash before the swap: the journal is discarded and the old
        chain is untouched."""
        db, archive = _chain_db()
        before = archive.manifest.generation_ids()
        archive.store.save_journal(b'{"merge": [1, 2, 3], "into": 999}')
        reborn = ArchiveManager(db, manifest_store=archive.store)
        assert reborn.store.load_journal() is None
        assert reborn.manifest.generation_ids() == before

    def test_garbage_journal_rolls_back(self):
        db, archive = _chain_db()
        before = archive.manifest.generation_ids()
        archive.store.save_journal(b"\xff\xfenot json")
        reborn = ArchiveManager(db, manifest_store=archive.store)
        assert reborn.store.load_journal() is None
        assert reborn.manifest.generation_ids() == before

    def test_crash_before_journal_clear_retires_sources(self):
        """Crash in the window after the manifest swap but before the
        journal clear: startup roll-forward must finish compaction's
        epilogue by retiring the merge sources (newest first), or the
        orphaned sources pin the log at the old base's scan start
        forever."""
        db, archive = _chain_db()
        sources = archive.chain()

        def crash():
            raise SimulatedCrash("crash before journal clear")

        archive.store.clear_journal = crash
        with pytest.raises(SimulatedCrash):
            archive.compact()
        del archive.store.clear_journal
        # The crash window: swap committed, journal present, sources
        # still retained.
        assert archive.store.load_journal() is not None
        assert not any(db.retention.is_retired(b) for b in sources)
        reborn = ArchiveManager(db, manifest_store=archive.store)
        assert reborn.store.load_journal() is None
        for backup in sources:
            assert db.retention.is_retired(backup)
        # Only the merged generation still pins the log.
        assert [
            b.backup_id for b in db.retention.retained_backups()
        ] == reborn.manifest.generation_ids()


class TestCompaction:
    def test_compact_merges_chain_to_one_generation(self):
        db, archive = _chain_db()
        base = archive.chain()[0]
        last = archive.chain()[-1]
        merged = archive.compact()
        assert [g.backup_id for g in archive.chain()] == [merged.backup_id]
        record = archive.generation_records()[0]
        assert record.kind == KIND_COMPACTED
        # The merged generation inherits the chain's overlay identity.
        assert merged.media_scan_start_lsn == base.media_scan_start_lsn
        assert merged.completion_lsn == last.completion_lsn
        assert getattr(merged, "base_backup_id", None) is None
        db.media_failure()
        assert db.media_recover_chain(archive.chain()).ok

    def test_compact_retires_sources(self):
        db, archive = _chain_db()
        sources = archive.chain()
        archive.compact()
        for backup in sources:
            assert db.retention.is_retired(backup)

    def test_crash_mid_compaction_keeps_old_chain(self):
        db, archive = _chain_db()
        before = archive.manifest.generation_ids()
        db.attach_faults(FaultPlane([
            FaultSpec(FaultKind.CRASH, point=IOPoint.BACKUP_BULK_RECORD,
                      at_io=1),
        ]))
        with pytest.raises(SimulatedCrash):
            archive.compact()
        # The rollback path: journal cleared, manifest untouched, no
        # half-built image left in the completed list.
        assert archive.store.load_journal() is None
        assert archive.manifest.generation_ids() == before
        assert [b.backup_id for b in db.engine.completed
                if b.is_complete] == before
        db.crash()
        assert db.recover().ok
        db.media_failure()
        assert db.media_recover_chain(archive.chain()).ok
        # The retry completes on the surviving chain.
        merged = archive.compact()
        assert archive.manifest.generation_ids() == [merged.backup_id]

    def test_compact_refuses_damaged_everywhere(self):
        """A page damaged in every generation that records it cannot be
        laundered through compaction."""
        db, archive = _chain_db()
        # Slot 9 exists only in the base full; rot it there.
        archive.chain()[0]._rot_cell(PageId(0, 9))
        with pytest.raises(BackupError, match="heal_chain"):
            archive.compact()


class TestHealingLadder:
    def test_newer_generation_shadows(self):
        """Slot 7 is in both incrementals: rotting inc1's copy drops the
        cell, because every restore overlays inc2's intact one."""
        db, archive = _chain_db()
        inc1 = archive.chain()[1]
        pid = PageId(0, 7)
        inc1._rot_cell(pid)
        report = archive.heal_chain()
        assert (inc1.backup_id, pid, "newer-shadows") in report.healed
        assert pid not in inc1.pages()
        db.media_failure()
        assert db.media_recover_chain(archive.chain()).ok

    def test_rebuild_from_base_and_log(self):
        """Slot 2 is only in inc1: its copy is rebuilt from the base
        plus the logged operations up to inc1's seal point."""
        db, archive = _chain_db()
        inc1 = archive.chain()[1]
        pid = PageId(0, 2)
        inc1._rot_cell(pid)
        report = archive.heal_chain()
        assert (inc1.backup_id, pid, "rebuild") in report.healed
        assert inc1.pages()[pid].value == ("mid", 2)
        assert not inc1.damaged_pages()
        db.media_failure()
        assert db.media_recover_chain(archive.chain()).ok

    def test_no_donor_is_quarantined(self):
        """Slot 9 exists only in the base and has no logged operations
        after the base's scan start: no donor, honest quarantine."""
        db, archive = _chain_db()
        base = archive.chain()[0]
        pid = PageId(0, 9)
        base._rot_cell(pid)
        report = archive.heal_chain()
        assert (base.backup_id, pid) in report.quarantined
        assert not report.ok
        db.media_failure()
        outcome = db.media_recover_chain(archive.chain())
        assert pid in outcome.quarantined

    def test_damaged_base_with_newer_donor_is_not_dropped(self):
        """Slot 7 has intact copies in both incrementals, but the
        damage is in the *base*: dropping the base's cell would make a
        PITR cut at the base's seal silently restore the initial value.
        The ladder must skip rung 1; with no logged history inside the
        base's sweep window the page is quarantined honestly."""
        db, archive = _chain_db()
        base = archive.chain()[0]
        pid = PageId(0, 7)
        base._rot_cell(pid)
        report = archive.heal_chain()
        assert (base.backup_id, pid) in report.quarantined
        assert not any(
            b == base.backup_id and p == pid for b, p, _ in report.healed
        )
        assert pid in base.pages()  # left in place, still damaged
        # PITR to the base's seal point: honest quarantine, not a
        # silent fallback to the initial value.
        db.media_failure()
        outcome = db.restore_to_lsn(base.completion_lsn)
        assert pid in outcome.quarantined
        db.crash()
        assert db.recover().ok
        # The full chain still restores fine: inc2's copy shadows.
        db.media_failure()
        assert db.media_recover_chain(archive.chain()).ok

    def test_clean_chain_heals_nothing(self):
        _, archive = _chain_db()
        report = archive.heal_chain()
        assert report.ok and not report.healed


class TestChainPrefix:
    def test_prefix_selection(self):
        _, archive = _chain_db()
        chain = archive.chain()
        full, inc1, inc2 = chain
        assert select_chain_prefix(chain, inc2.completion_lsn) == chain
        assert select_chain_prefix(
            chain, inc2.completion_lsn - 1
        ) == [full, inc1]
        assert select_chain_prefix(
            chain, full.completion_lsn
        ) == [full]

    def test_target_before_base_rejected(self):
        _, archive = _chain_db()
        chain = archive.chain()
        with pytest.raises(RecoveryError):
            select_chain_prefix(chain, chain[0].completion_lsn - 1)

    def test_empty_chain_rejected(self):
        with pytest.raises(NoBackupError):
            select_chain_prefix([], 10)


class TestRetentionPinning:
    def test_retiring_pinned_base_raises(self):
        db, archive = _chain_db()
        full, inc1, inc2 = archive.chain()
        with pytest.raises(ChainPinnedError) as exc:
            db.retire_backup(full)
        assert sorted(exc.value.dependents) == [
            inc1.backup_id, inc2.backup_id
        ]
        with pytest.raises(ChainPinnedError):
            db.retire_backup(inc1)

    def test_newest_first_retirement_succeeds(self):
        db, archive = _chain_db()
        for backup in reversed(archive.chain()):
            db.retire_backup(backup)

    def test_incremental_pins_base_scan_start(self):
        """A retained incremental pins the log from its *base full's*
        scan start — a chain restore replays from there."""
        db, archive = _chain_db()
        full, inc1, inc2 = archive.chain()
        for backup in (inc1, inc2):
            assert db.retention.pin_lsn(backup) == full.media_scan_start_lsn
        assert db.retention.pin_lsn(full) == full.media_scan_start_lsn

    def test_truncation_respects_chain_pin(self):
        db, archive = _chain_db()
        full = archive.chain()[0]
        db.take_checkpoint()
        db.truncate_log()
        assert db.log.first_retained_lsn <= full.media_scan_start_lsn
        for backup in archive.chain():
            assert db.retention.is_usable(backup)


class TestConfigKnobs:
    def test_defaults_off(self):
        cfg = BackupConfig()
        assert cfg.incremental_every is None
        assert cfg.compact_threshold is None

    @pytest.mark.parametrize("field", ["incremental_every",
                                       "compact_threshold"])
    def test_validation(self, field):
        assert getattr(BackupConfig(**{field: 1}), field) == 1
        with pytest.raises(ReproError):
            BackupConfig(**{field: 0})


class TestScheduler:
    def test_tick_takes_full_then_incrementals_then_compacts(self):
        db = _seeded_db()
        archive = db.attach_archive(
            BackupConfig(steps=4, incremental_every=8, compact_threshold=2)
        )
        assert archive.tick() is not None  # no chain -> base full
        records = archive.generation_records()
        assert [r.kind for r in records] == [KIND_FULL]
        assert archive.tick() is None  # not enough log accumulated
        for round_no in range(2):
            for i in range(8):
                db.execute(
                    PhysicalWrite(PageId(0, i), ("tick", round_no, i))
                )
            assert archive.tick() is not None
        kinds = [r.kind for r in archive.generation_records()]
        assert kinds == [KIND_FULL, KIND_INCREMENTAL, KIND_INCREMENTAL]
        # Two links reach the threshold: the next tick compacts.
        archive.tick()
        kinds = [r.kind for r in archive.generation_records()]
        assert kinds == [KIND_COMPACTED]
        db.media_failure()
        assert db.media_recover_chain(archive.chain()).ok

    def test_incremental_requires_base(self):
        db = _seeded_db()
        archive = db.attach_archive(BackupConfig(steps=4))
        with pytest.raises(NoBackupError):
            archive.run_incremental()

    def test_manager_reads_its_schedule_from_one_config(self):
        db = _seeded_db()
        config = BackupConfig(steps=4, incremental_every=8)
        archive = ArchiveManager(db, config)
        assert archive.config is config
        assert archive.tick() is not None
        for i in range(8):
            db.execute(PhysicalWrite(PageId(0, i), ("cfg", i)))
        assert archive.tick() is not None
        kinds = [r.kind for r in archive.generation_records()]
        assert kinds == [KIND_FULL, KIND_INCREMENTAL]

    def test_attach_is_idempotent_and_adopts(self):
        db = _seeded_db()
        db.start_backup(BackupConfig(steps=4))
        db.run_backup(BackupConfig(pages_per_tick=64))
        archive = db.attach_archive()
        assert len(archive.generation_records()) == 1
        assert db.attach_archive() is archive


class TestScrubChain:
    def test_clean_chain(self):
        _, archive = _chain_db()
        from repro.core.scrub import scrub_chain

        report = scrub_chain(archive)
        assert report.ok
        assert report.backups_scanned == 3
        assert len(report.generations) == 3
        assert all(g["bytes_scanned"] > 0 for g in report.generations)

    def test_detects_rotted_generation(self):
        _, archive = _chain_db()
        from repro.core.scrub import scrub_chain

        archive.chain()[1]._rot_cell(PageId(0, 2))
        report = scrub_chain(archive)
        assert not report.ok
        assert any(f.site == "backup" for f in report.findings)
        assert report.generations[1]["damaged"]

    def test_missing_image_keeps_rows_aligned(self):
        """A missing middle image must not shift later generations onto
        the wrong manifest records or drop the tail from the scan."""
        db, archive = _chain_db()
        from repro.core.scrub import scrub_chain

        full, inc1, inc2 = archive.chain()
        db.engine.completed.remove(inc1)
        report = scrub_chain(archive)
        assert not report.ok
        assert any("no such image" in f.detail for f in report.findings)
        assert [
            (g["backup_id"], g["kind"]) for g in report.generations
        ] == [
            (full.backup_id, KIND_FULL),
            (inc2.backup_id, KIND_INCREMENTAL),
        ]
        assert report.backups_scanned == 2

    def test_detects_corrupt_manifest(self):
        _, archive = _chain_db()
        from repro.core.scrub import scrub_chain

        blob = bytearray(archive.store.load())
        blob[len(blob) // 2] ^= 0x20
        archive.store.save(bytes(blob))
        report = scrub_chain(archive)
        assert not report.ok
        assert any(f.site == "manifest" for f in report.findings)


class TestRestoreToLsn:
    def test_restore_to_each_seal_point(self):
        db, archive = _chain_db()
        # Snapshot the truth at each seal point by replaying the log.
        from repro.recovery.redo import RedoReplayer

        for generation in archive.chain():
            cut = generation.completion_lsn
            expected = {}
            RedoReplayer(initial_value=db.initial_value).replay(
                db.log.scan(1, cut), expected
            )
            db.media_failure()
            assert db.restore_to_lsn(cut).ok
            state = db.stable.snapshot()
            for pid, version in state.items():
                want = (expected[pid].value if pid in expected
                        else db.initial_value)
                assert version.value == want, (cut, pid)
            # The kept log suffix rolls the store forward to present.
            db.crash()
            assert db.recover().ok

    def test_restore_before_base_rejected(self):
        db, archive = _chain_db()
        base = archive.chain()[0]
        db.media_failure()
        with pytest.raises(RecoveryError):
            db.restore_to_lsn(base.completion_lsn - 1)
