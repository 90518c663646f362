"""Unit tests: instant restore internals and the PR's bugfix satellites.

Covers the restored-bitmap edge cases (including real-thread races
between traffic threads restoring on demand), the observability fixes —
fallback generations are never rejected silently, out-of-layout replay
targets are never dropped silently — and the streamed single-pass
restore path (``restore_from`` over an iterable).
"""

import random
import threading
from collections import Counter

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import RecoveryError
from repro.ids import NULL_LSN, PageId
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.recovery.instant_restore import RestoredBitmap
from repro.recovery.media_recovery import (
    REJECT_DAMAGED,
    REJECT_LOG_TRUNCATED,
    REJECT_NOT_COMPLETE,
    REJECT_PAST_TARGET,
    _usable_fallback,
    install_recovered_page,
)
from repro.ops.physical import PhysicalWrite
from repro.sim.metrics import Metrics
from repro.storage.layout import Layout
from repro.storage.page import PageVersion, rot_value
from repro.storage.stable_db import StableDatabase


def pid(slot, partition=0):
    return PageId(partition, slot)


def rot_backup_page(backup, page_id):
    old = backup._versions[page_id]
    backup._versions[page_id] = PageVersion(
        rot_value(old.value), old.page_lsn
    )


def build_db(parts=4, size=8, post_writes=10):
    db = Database(pages_per_partition=[size] * parts, policy="general")
    pages = [PageId(p, s) for p in range(parts) for s in range(size)]
    for i, page in enumerate(pages):
        db.execute(PhysicalWrite(page, ("v", i)))
    db.start_backup(BackupConfig(steps=4))
    db.run_backup(BackupConfig(pages_per_tick=16))
    for i in range(post_writes):
        db.execute(PhysicalWrite(pages[i % len(pages)], ("post", i)))
    return db, pages


# ------------------------------------------------------------------- bitmap


class TestRestoredBitmap:
    def layout(self):
        return Layout([4, 2])

    def test_mark_is_idempotent(self):
        bitmap = RestoredBitmap(self.layout())
        assert bitmap.mark(pid(0))
        assert not bitmap.mark(pid(0))
        assert bitmap.pages_done(0) == 1
        assert bitmap.total_done == 1

    def test_partition_completion(self):
        bitmap = RestoredBitmap(self.layout())
        for slot in range(4):
            bitmap.mark(pid(slot))
        assert bitmap.partition_complete(0)
        assert not bitmap.partition_complete(1)
        assert not bitmap.complete
        bitmap.mark(pid(0, 1))
        bitmap.mark(pid(1, 1))
        assert bitmap.complete

    def test_is_restored(self):
        bitmap = RestoredBitmap(self.layout())
        assert not bitmap.is_restored(pid(3))
        bitmap.mark(pid(3))
        assert bitmap.is_restored(pid(3))


# --------------------------------------------------------------- lifecycle


class TestInstantRestoreLifecycle:
    def test_every_page_installed_exactly_once(self):
        """Traffic threads racing on demand never double-install a page."""
        db, pages = build_db()
        db.media_failure()
        installs = Counter()
        lock = threading.Lock()
        orig = db.stable.install_version

        def counting(page_id, version):
            with lock:
                installs[page_id] += 1
            return orig(page_id, version)

        db.stable.install_version = counting
        manager = db.begin_instant_restore()

        def hammer(seed):
            order = list(pages)
            random.Random(seed).shuffle(order)
            for page in order:
                manager.ensure_restored(page)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        outcome = db.finish_instant_restore()
        assert outcome.ok
        assert set(installs) >= set(pages)
        assert all(installs[page] == 1 for page in pages)
        metrics = db.metrics
        assert (
            metrics.pages_restored_on_demand
            + metrics.pages_restored_background
            == len(pages)
        )

    def test_mid_restore_write_survives_background_sweep(self):
        """A traffic write mid-restore must win over the drain."""
        db, pages = build_db()
        db.media_failure()
        db.begin_instant_restore()
        victim = pages[-1]
        db.execute(PhysicalWrite(victim, "fresh"))
        db.finish_instant_restore()
        assert db.read(victim) == "fresh"

    def test_ttfq_metric_stamped_on_first_demand_read(self):
        db, pages = build_db()
        expected = db.oracle.state()
        db.media_failure()
        manager = db.begin_instant_restore()
        assert db.metrics.time_to_first_query_ms == 0.0
        assert db.read(pages[3]) == expected[pages[3]]
        assert db.metrics.time_to_first_query_ms > 0.0
        assert manager.time_to_first_query_ms == (
            db.metrics.time_to_first_query_ms
        )
        assert db.metrics.pages_restored_on_demand == 1
        db.finish_instant_restore()

    def test_restore_progress_events(self):
        db, pages = build_db()
        tracer = Tracer()
        db.attach_tracer(tracer)
        db.media_failure()
        db.begin_instant_restore()
        db.read(pages[0])
        db.finish_instant_restore()
        phases = [
            e.fields.get("phase") for e in tracer.events
            if e.kind == ev.RESTORE_PROGRESS
        ]
        assert phases[0] == "begin"
        assert phases[-1] == "complete"
        assert "page" in phases
        sources = {
            e.fields.get("source") for e in tracer.events
            if e.kind == ev.RESTORE_PROGRESS
            and e.fields.get("phase") == "page"
        }
        assert sources == {"on-demand", "background"}

    def test_finish_without_begin_raises(self):
        db, _ = build_db()
        with pytest.raises(RecoveryError):
            db.finish_instant_restore()

    def test_drain_is_idempotent(self):
        db, _ = build_db()
        db.media_failure()
        manager = db.begin_instant_restore()
        outcome = db.finish_instant_restore()
        assert manager.drain() is outcome
        assert manager.complete
        assert all(
            count == db.layout.partition_size(p)
            for p, count in manager.progress().items()
        )


# --------------------------------------------------------------- bulk drain


class TestBulkDrain:
    def test_restored_then_flushed_page_keeps_its_new_value(self):
        """The drain never touches a page traffic already restored."""
        db, pages = build_db()
        db.media_failure()
        db.begin_instant_restore()
        victim = pages[3]  # rewritten by the post-backup tail too
        db.read(victim)  # restored on demand
        db.execute(PhysicalWrite(victim, "fresh"))
        db.flush_page(victim)
        assert db.stable.read_page(victim).value == "fresh"
        db.finish_instant_restore()
        assert db.stable.read_page(victim).value == "fresh"
        expected = db.oracle.state()
        for page in pages:
            assert db.stable.read_page(page).value == expected[page]

    def test_quarantine_seed_stays_formatted_after_bulk_lay(self):
        db = Database(pages_per_partition=[8] * 4, policy="general")
        pages = list(db.layout.all_pages())
        for i, page in enumerate(pages):
            db.execute(PhysicalWrite(page, ("v", i)))
            db.flush_page(page)
        # The media-log slice starts here, so no replayed blind write
        # can heal a damaged backup page.
        db.checkpoint()
        db.start_backup(BackupConfig(steps=4))
        backup = db.run_backup(BackupConfig(pages_per_tick=16))
        for i in range(10):
            db.execute(PhysicalWrite(pages[i], ("post", i)))
        seed = pages[20]  # not rewritten by the tail: stays lost
        rot_backup_page(backup, seed)
        db.media_failure()
        db.begin_instant_restore()
        db.read(pages[0])
        outcome = db.finish_instant_restore()
        assert outcome.quarantined == [seed]
        assert db.stable.read_page(seed) == PageVersion(
            db.initial_value, NULL_LSN
        )
        assert db.stable.verify_page(seed)


class TestDrainIsBulk:
    """Guard: the drain must not fall back to single-page restores."""

    def test_drain_restores_in_bulk_not_page_by_page(self):
        db = Database(pages_per_partition=[1024] * 16)
        total = db.layout.total_pages()
        db.start_backup(BackupConfig(steps=4))
        db.run_backup(BackupConfig(pages_per_tick=4096))
        every = list(db.layout.all_pages())
        tail = every[::total // 200][:200]
        for i in range(2000):
            db.execute(PhysicalWrite(tail[i % len(tail)], ("tail", i)))
        db.media_failure()
        manager = db.begin_instant_restore()

        single_page = Counter()
        restore_page = manager._restore_page_locked
        install_version = db.stable.install_version

        def counting_restore(pid):
            single_page["restore"] += 1
            return restore_page(pid)

        def counting_install(page_id, version):
            single_page["install"] += 1
            return install_version(page_id, version)

        manager._restore_page_locked = counting_restore
        db.stable.install_version = counting_install
        probe = every[7]
        assert db.read(probe) == db.oracle.state().get(probe)
        outcome = db.finish_instant_restore()

        assert outcome.ok
        assert single_page["restore"] == 1
        assert single_page["install"] <= len(tail) + 1
        assert manager.bitmap.complete
        assert (
            db.metrics.pages_restored_on_demand
            + db.metrics.pages_restored_background
            == total
        )


# ----------------------------------------------- fallback rejection tracing


class _StubGeneration:
    """Minimal BackupStore shape for exercising each rejection reason."""

    def __init__(self, backup_id=7, complete=True, completion_lsn=5,
                 scan_start=1, damaged=()):
        self.backup_id = backup_id
        self.is_complete = complete
        self.completion_lsn = completion_lsn
        self.media_scan_start_lsn = scan_start
        self._damaged = list(damaged)

    def damaged_pages(self):
        return list(self._damaged)


class TestFallbackRejectionTracing:
    def check(self, older, target, expect_reason):
        db = Database(pages_per_partition=[8])
        tracer = Tracer()
        metrics = Metrics()
        usable = _usable_fallback(older, target, db.log, tracer, metrics)
        assert not usable
        assert metrics.fallback_rejections == 1
        rejects = [
            e.fields for e in tracer.events
            if e.kind == ev.CHAIN_FALLBACK
            and e.fields.get("action") == "reject-generation"
        ]
        assert len(rejects) == 1
        assert rejects[0]["reason"] == expect_reason

    def test_incomplete_generation_traced(self):
        self.check(_StubGeneration(complete=False), 10,
                   REJECT_NOT_COMPLETE)

    def test_none_generation_traced(self):
        self.check(None, 10, REJECT_NOT_COMPLETE)

    def test_completion_past_target_traced(self):
        self.check(_StubGeneration(completion_lsn=50), 10,
                   REJECT_PAST_TARGET)

    def test_truncated_log_traced(self):
        db = Database(pages_per_partition=[8])
        for i in range(6):
            db.execute(PhysicalWrite(pid(i), i))
            db.flush_page(pid(i))
        db.log.truncate_prefix(4)
        tracer = Tracer()
        metrics = Metrics()
        older = _StubGeneration(scan_start=1, completion_lsn=3)
        assert not _usable_fallback(older, 10, db.log, tracer, metrics)
        assert metrics.fallback_rejections == 1
        reasons = [
            e.fields.get("reason") for e in tracer.events
            if e.fields.get("action") == "reject-generation"
        ]
        assert reasons == [REJECT_LOG_TRUNCATED]

    def test_damaged_generation_traced_with_corruption_event(self):
        db, _ = build_db(parts=1, size=8)
        backup = db.latest_backup()
        rot_backup_page(backup, backup.copy_order()[0])
        tracer = Tracer()
        metrics = Metrics()
        assert not _usable_fallback(
            backup, db.log.end_lsn, db.log, tracer, metrics
        )
        assert metrics.fallback_rejections == 1
        kinds = [e.kind for e in tracer.events]
        assert ev.CORRUPTION_DETECTED in kinds
        reasons = [
            e.fields.get("reason") for e in tracer.events
            if e.fields.get("action") == "reject-generation"
        ]
        assert reasons == [REJECT_DAMAGED]

    def test_media_recover_counts_rejections_end_to_end(self):
        """Both generations rotted: each rejection lands in Metrics."""
        db = Database(pages_per_partition=[32])
        for slot in range(8):
            db.execute(PhysicalWrite(pid(slot), ("gen1", slot)))
            db.flush_page(pid(slot))
        db.checkpoint()
        db.start_backup(BackupConfig(steps=4))
        gen1 = db.run_backup(BackupConfig(pages_per_tick=32))
        db.start_backup(BackupConfig(steps=4))
        gen2 = db.run_backup(BackupConfig(pages_per_tick=32))
        rot_backup_page(gen1, gen1.copy_order()[0])
        rot_backup_page(gen2, gen2.copy_order()[0])
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.degraded
        assert db.metrics.fallback_rejections >= 1


# ------------------------------------------------- out-of-layout drop trace


class TestOutOfLayoutDrops:
    def test_drop_is_traced_and_counted(self):
        stable = StableDatabase(Layout([4]))
        tracer = Tracer()
        metrics = Metrics()
        outside = PageId(3, 99)
        installed = install_recovered_page(
            stable, outside, PageVersion("x", 5), None, tracer, metrics
        )
        assert not installed
        assert metrics.pages_dropped_out_of_layout == 1
        drops = [
            e.fields for e in tracer.events if e.kind == ev.RESTORE_DROP
        ]
        assert drops == [
            {"page": str(outside), "reason": "out-of-layout",
             "kind": "media"}
        ]

    def test_in_layout_page_installs_normally(self):
        stable = StableDatabase(Layout([4]))
        metrics = Metrics()
        assert install_recovered_page(
            stable, pid(2), PageVersion("y", 3), None, None, metrics
        )
        assert metrics.pages_dropped_out_of_layout == 0
        assert stable.read_page(pid(2)).value == "y"


# ----------------------------------------------------- streamed restore path


class TestStreamedRestore:
    def test_restore_from_accepts_iterables(self):
        stable = StableDatabase(Layout([4]))
        stable.fail_media()
        versions = [(pid(s), PageVersion(("s", s), s + 1)) for s in range(3)]
        stable.restore_from(iter(versions), initial_value=None)
        for page, version in versions:
            assert stable.read_page(page) == version
        assert stable.read_page(pid(3)).page_lsn == NULL_LSN

    def test_restore_from_still_accepts_mappings(self):
        stable = StableDatabase(Layout([4]))
        stable.restore_from({pid(1): PageVersion("m", 9)})
        assert stable.read_page(pid(1)).value == "m"

    def test_media_recovery_single_pass_matches_oracle(self):
        db, _ = build_db()
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok
        assert outcome.diffs == []
