"""Unit tests for the cache manager (sections 2.5, 3.3, 3.5)."""

import random

import pytest

from repro.cache.cache_manager import CacheManager
from repro.core.policy import GeneralOpsPolicy
from repro.errors import CacheError, FlushOrderError
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery.refined_write_graph import DynamicWriteGraph
from repro.storage.layout import Layout
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager
from repro.wal.records import RecordFlag


def pid(slot):
    return PageId(0, slot)


@pytest.fixture
def cm():
    stable = StableDatabase(Layout([32]))
    return CacheManager(stable, LogManager(), policy=GeneralOpsPolicy())


class TestExecute:
    def test_execute_applies_to_cache_not_stable(self, cm):
        cm.execute(PhysicalWrite(pid(0), "v"))
        assert cm.read_page(pid(0)) == "v"
        assert cm.stable.read_page(pid(0)).value is None
        assert cm.is_dirty(pid(0))

    def test_execute_returns_record_with_lsn(self, cm):
        record = cm.execute(PhysicalWrite(pid(0), "v"))
        assert record.lsn == 1
        assert cm.cached(pid(0)).page_lsn == 1

    def test_read_through_populates_cache(self, cm):
        cm.stable.write_page(pid(3), "stable-value", 0)
        assert cm.read_page(pid(3)) == "stable-value"
        assert cm.metrics.cache_misses == 1
        assert cm.read_page(pid(3)) == "stable-value"
        assert cm.metrics.cache_hits == 1

    def test_logical_op_reads_through_cache(self, cm):
        cm.stable.write_page(pid(1), "from-stable", 0)
        cm.execute(CopyOp(pid(1), pid(2)))
        assert cm.read_page(pid(2)) == "from-stable"


class TestInstall:
    def test_install_flushes_to_stable(self, cm):
        cm.execute(PhysicalWrite(pid(0), "v"))
        node = cm.graph.holder_of(pid(0))
        cm.install_node(node)
        assert cm.stable.read_page(pid(0)).value == "v"
        assert not cm.is_dirty(pid(0))
        assert len(cm.graph) == 0

    def test_install_respects_write_graph_order(self, cm):
        cm.execute(PhysicalWrite(pid(0), "v"))
        cm.execute(CopyOp(pid(0), pid(1)))
        cm.execute(PhysiologicalWrite(pid(0), "stamp", ("tag",)))
        blocked = cm.graph.holder_of(pid(0))
        with pytest.raises(FlushOrderError):
            cm.install_node(blocked)

    def test_flush_page_cascades(self, cm):
        cm.execute(PhysicalWrite(pid(0), ("r",)))
        cm.execute(CopyOp(pid(0), pid(1)))
        cm.execute(PhysiologicalWrite(pid(0), "stamp", ("tag",)))
        assert cm.flush_page(pid(0), cascade=True)
        assert not cm.dirty_pages()

    def test_flush_clean_page_returns_false(self, cm):
        assert not cm.flush_page(pid(9))

    def test_checkpoint_empties_graph(self, cm, rng=random.Random(1)):
        pages = [pid(i) for i in range(8)]
        for _ in range(40):
            src, dst = rng.sample(pages, 2)
            cm.execute(CopyOp(src, dst))
        cm.checkpoint()
        assert not cm.dirty_pages()
        assert len(cm.graph) == 0
        for page in pages:
            assert cm.stable.read_page(page).value == cm.read_page(page)

    def test_install_some_never_materialises_the_ready_list(
        self, cm, monkeypatch
    ):
        # Guard: the forward path picks from the graph's ordered ready
        # index; copying (let alone sorting) the ready set per install
        # was 0.39 of recovery_drill's wall time.
        def forbidden(self):
            raise AssertionError("install_some called installable_nodes()")

        monkeypatch.setattr(
            DynamicWriteGraph, "installable_nodes", forbidden
        )
        for slot in range(10):
            cm.execute(PhysicalWrite(pid(slot), slot))
        rng = random.Random(2)
        assert cm.install_some(4, rng) == 4
        assert len(cm.graph) == 6
        assert cm.install_some(100, rng) == 6
        assert cm.install_some(1, rng) == 0

    def test_truncation_advances_on_install(self, cm):
        cm.execute(PhysicalWrite(pid(0), "a"))
        cm.execute(PhysicalWrite(pid(1), "b"))
        assert cm.stable_truncation_point == 1
        cm.flush_page(pid(0))
        assert cm.stable_truncation_point == 2
        cm.flush_page(pid(1))
        assert cm.stable_truncation_point == 3


class TestIwofDuringBackup:
    def _start_fake_backup(self, cm, pending):
        with cm.progress_transaction(0) as progress:
            progress.begin(pending)

    def test_pending_page_flushes_without_logging(self, cm):
        self._start_fake_backup(cm, pending=5)
        cm.execute(PhysicalWrite(pid(20), "v"))
        cm.flush_page(pid(20))
        assert cm.metrics.iwof_during_backup == 0
        assert cm.metrics.flush_decisions_during_backup == 1

    def test_doubt_page_is_identity_logged_and_flushed(self, cm):
        self._start_fake_backup(cm, pending=30)
        cm.execute(PhysicalWrite(pid(3), "v"))
        cm.flush_page(pid(3))
        assert cm.metrics.iwof_during_backup == 1
        assert cm.log.iwof_count() == 1
        # Flushed as well (section 3.5: log and flush before dropping).
        assert cm.stable.read_page(pid(3)).value == "v"
        # The flushed page carries the identity write's LSN.
        assert cm.stable.read_page(pid(3)).page_lsn == cm.log.end_lsn

    def test_no_decisions_counted_when_idle(self, cm):
        cm.execute(PhysicalWrite(pid(3), "v"))
        cm.flush_page(pid(3))
        assert cm.metrics.flush_decisions_during_backup == 0


class TestIdentityInstall:
    def test_hot_page_installed_without_flush(self, cm):
        """Section 5.3: logging can substitute for flushing in S too."""
        cm.execute(PhysicalWrite(pid(0), "hot"))
        record = cm.identity_install(pid(0))
        assert record.op.value == "hot"
        # Page still dirty and cached, but the log can now be truncated
        # past the original update.
        assert cm.is_dirty(pid(0))
        assert cm.rec.rec_lsn(pid(0)) == record.lsn
        assert cm.stable.read_page(pid(0)).value is None

    def test_identity_install_requires_dirty_page(self, cm):
        with pytest.raises(CacheError):
            cm.identity_install(pid(0))

    def test_identity_install_unblocks_successors(self, cm):
        """Iw/oF reduces vars(n) without flushing (section 3.2)."""
        cm.execute(PhysicalWrite(pid(0), ("r",)))
        cm.execute(CopyOp(pid(0), pid(1)))   # node(1) -> node holding 0
        cm.execute(PhysiologicalWrite(pid(0), "stamp", ("t",)))
        blocked = cm.graph.holder_of(pid(0))
        assert not cm.graph.is_installable(blocked)
        cm.identity_install(pid(1))
        # The old holder of 1 dissolves; pid(0)'s node becomes installable
        # once its predecessor's obligations are met via the log.
        new_holder = cm.graph.holder_of(pid(0))
        assert cm.graph.is_installable(new_holder)


class TestCrash:
    def test_crash_clears_volatile_state(self, cm):
        cm.execute(PhysicalWrite(pid(0), "v"))
        with cm.progress_transaction(0) as progress:
            progress.begin(10)
        cm.crash()
        assert not cm.dirty_pages()
        assert len(cm.graph) == 0
        assert not cm.progress[0].active

    def test_stable_survives_crash(self, cm):
        cm.execute(PhysicalWrite(pid(0), "v"))
        cm.flush_page(pid(0))
        cm.crash()
        assert cm.stable.read_page(pid(0)).value == "v"


class TestEviction:
    def test_evict_dirty_page_flushes_first(self, cm):
        cm.execute(PhysicalWrite(pid(0), "v"))
        cm.evict(pid(0))
        assert cm.cached(pid(0)) is None
        assert cm.stable.read_page(pid(0)).value == "v"

    def test_evict_clean_page(self, cm):
        cm.read_page(pid(0))
        cm.evict(pid(0))
        assert cm.cached(pid(0)) is None
