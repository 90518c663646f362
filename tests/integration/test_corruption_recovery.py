"""Integration tests: self-healing recovery across the backup chain.

End-to-end corruption scenarios: a rotted backup page healed by falling
back to an older generation; content lost everywhere honestly
quarantined; damaged stable pages healed by escalating crash recovery
into media recovery or a full log-driven rebuild; a corrupt log tail
truncated before analysis; damaged incremental links skipped during the
chain overlay; and the trace timeline linking the injected bit flip to
the healing recovery.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.harness.faultsweep import _bitrot_scenarios, _run_bitrot_one
from repro.ids import PageId
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery.explain import render_timeline
from repro.sim.faults import FaultKind, FaultSpec, IOPoint
from repro.storage.page import PageVersion, rot_value


def pid(slot):
    return PageId(0, slot)


def rot_stable_page(db, page_id):
    """Targeted bit rot: replace the cell, leave the envelope stale."""
    db.stable._rot_cell(page_id)


def rot_backup_page(backup, page_id):
    old = backup._versions[page_id]
    backup._versions[page_id] = PageVersion(
        rot_value(old.value), old.page_lsn
    )


def fresh_db(pages=32):
    return Database(pages_per_partition=[pages], policy="general")


def take_full(db, steps=4):
    db.start_backup(BackupConfig(steps=steps))
    return db.run_backup()


class TestGenerationFallback:
    def test_rotted_newest_backup_falls_back_to_older(self):
        db = fresh_db()
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("gen1", slot)))
        take_full(db)
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("gen2", slot)))
        newest = take_full(db)
        rot_backup_page(newest, newest.copy_order()[0])

        tracer = Tracer()
        db.attach_tracer(tracer)
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok
        assert not outcome.degraded
        assert outcome.quarantined == []
        actions = [
            e.fields.get("action") for e in tracer.events
            if e.kind == ev.CHAIN_FALLBACK
        ]
        assert "older-generation" in actions
        assert db.metrics.corruption_detected >= 1
        assert db.metrics.corruption_healed >= 1

    def test_rot_predating_log_coverage_is_quarantined(self):
        """No older generation, no covering log records: honest loss."""
        db = fresh_db()
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("cold", slot)))
            db.flush_page(pid(slot))
        db.checkpoint()
        # The backup scan starts after these (installed) writes, so its
        # log suffix never rewrites them; a rotted copy is unrecoverable.
        backup = take_full(db)
        victim = backup.copy_order()[0]
        rot_backup_page(backup, victim)

        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok  # honest: correct outside the quarantine set
        assert outcome.degraded
        assert victim in outcome.quarantined
        assert db.metrics.pages_quarantined >= 1

    def test_rot_covered_by_log_is_healed_in_place(self):
        """Blind physical redo after the scan start rebuilds the page."""
        db = fresh_db()
        take_full(db, steps=8)
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("hot", slot)))
        db.checkpoint()
        backup = db.latest_backup()
        rot_backup_page(backup, backup.copy_order()[0])

        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok


class TestCrashRecoveryEscalation:
    def test_damaged_stable_healed_from_backup(self):
        db = fresh_db()
        rng = random.Random(0)
        for slot in range(16):
            db.execute(PhysicalWrite(pid(slot), ("record", slot)))
            db.install_some(2, rng)
        take_full(db)
        assert db.stable._bitrot(rng)
        db.crash()
        outcome = db.recover()
        assert outcome.ok
        assert outcome.quarantined == []
        assert db.stable.damaged_pages() == []
        assert db.metrics.corruption_detected >= 1

    def test_damaged_stable_rebuilt_from_full_log(self):
        """No backup at all — but the log still reaches back to LSN 1."""
        db = fresh_db()
        rng = random.Random(0)
        for slot in range(16):
            db.execute(PhysicalWrite(pid(slot), ("record", slot)))
            db.install_some(2, rng)
        assert db.stable._bitrot(rng)
        db.crash()
        outcome = db.recover()
        assert outcome.ok
        assert db.stable.damaged_pages() == []

    def test_corrupt_log_tail_truncated_before_analysis(self):
        db = fresh_db()
        rng = random.Random(0)
        for slot in range(16):
            db.execute(PhysicalWrite(pid(slot), ("record", slot)))
            db.install_some(2, rng)
        assert db.log._bitrot(rng)
        db.crash()
        outcome = db.recover()
        assert outcome.ok
        assert db.metrics.log_tail_truncated >= 1
        assert db.log.damaged_records() == []


class TestChainHealing:
    def build_chain(self):
        db = fresh_db()
        for slot in range(16):
            db.execute(PhysicalWrite(pid(slot), ("base", slot)))
        db.checkpoint()
        full = take_full(db)
        for slot in (3, 7):
            db.execute(PhysiologicalWrite(pid(slot), "stamp", ("inc",)))
        db.start_backup(BackupConfig(steps=4, incremental=True))
        incremental = db.run_backup()
        return db, full, incremental

    def test_damaged_link_page_healed_by_earlier_copy(self):
        db, full, incremental = self.build_chain()
        rot_backup_page(incremental, pid(3))
        tracer = Tracer()
        db.attach_tracer(tracer)
        db.media_failure()
        outcome = db.media_recover_chain([full, incremental])
        assert outcome.ok
        assert not outcome.degraded
        actions = [
            e.fields.get("action") for e in tracer.events
            if e.kind == ev.CHAIN_FALLBACK
        ]
        assert "skip-damaged-link-pages" in actions

    def test_page_damaged_in_every_link_is_quarantined(self):
        db, full, incremental = self.build_chain()
        # pid(1) was never updated after the full backup, so only the
        # full carries it and no log record since the base scan start
        # rewrites it: rot there is unrecoverable.
        assert pid(1) not in incremental
        rot_backup_page(full, pid(1))
        db.media_failure()
        outcome = db.media_recover_chain([full, incremental])
        assert outcome.ok
        assert outcome.degraded
        assert pid(1) in outcome.quarantined


class TestBitrotSweepScenarios:
    def test_all_targets_recover_or_quarantine(self):
        for result in _bitrot_scenarios(seed=1, batched=True, samples=1):
            assert result.total >= 1, result.name
            assert result.ok, (result.name, result.detail)

    def test_failure_case_would_be_replayable(self):
        # The sweep stores the spec (with its corruption seed) verbatim,
        # so a failing case replays with the identical bit flip.
        spec = FaultSpec(FaultKind.BITROT, point=IOPoint.LOG_APPEND,
                         at_io=5, seed=3)
        first, _ = _run_bitrot_one(spec, 3, False, "crash")
        second, _ = _run_bitrot_one(spec, 3, False, "crash")
        assert first.ok == second.ok
        assert first.quarantined == second.quarantined


class TestTimelineLinksFaultToHealing:
    def test_bit_flip_shows_up_with_healing_recovery(self):
        tracer = Tracer()
        spec = FaultSpec(FaultKind.BITROT,
                         point=IOPoint.BACKUP_RECORD, at_io=1, seed=0)
        outcome, _db = _run_bitrot_one(spec, 0, False, "media",
                                       tracer=tracer)
        assert outcome.ok
        kinds = {e.kind for e in tracer.events}
        assert ev.FAULT_INJECTED in kinds
        assert ev.CORRUPTION_DETECTED in kinds
        assert ev.CHAIN_FALLBACK in kinds
        timeline = render_timeline(tracer.events)
        assert "fault_injected" in timeline
        assert "corruption_detected" in timeline
        assert "chain_fallback" in timeline
