"""The cache manager (sections 2.4, 2.5, 3.3, 3.5).

The cache manager owns the volatile state: cached pages, the dynamic
write graph over uninstalled operations, recLSN bookkeeping, the
per-partition backup progress values and their latches, and the tree-op
successor metadata.  Its responsibilities:

* **execute** logged operations against the cache;
* **install** write-graph nodes by atomically flushing their ``vars`` in
  write-graph order — consulting the flush policy under the backup latch
  and injecting Iw/oF identity writes when the policy requires them
  (the cache management algorithm of section 3.5);
* **identity-install** hot pages — Iw/oF applied to S itself (the second
  observation of section 5.3): installing a page's operations by logging
  its value without flushing it;
* **crash**: drop all volatile state, so recovery can be exercised.

The backup engines manipulate ``progress`` only through
:meth:`progress_transaction`, which takes the partition's latch in
exclusive mode — the synchronization protocol of section 3.4.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.latch import BackupLatch
from repro.core.policy import FlushPolicy, GeneralOpsPolicy
from repro.core.progress import PartitionProgress
from repro.core.tree_meta import TreeOpTracker
from repro.errors import CacheError, FlushOrderError, PageNotFoundError
from repro.ids import LSN, PageId
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER
from repro.ops.base import Operation
from repro.ops.identity import IdentityWrite
from repro.recovery.refined_write_graph import DynamicNode, DynamicWriteGraph
from repro.sim.faults import with_retries
from repro.sim.metrics import Metrics
from repro.storage.layout import Layout
from repro.storage.page import PageVersion
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, RecordFlag
from repro.wal.truncation import RecLSNTracker


@dataclass
class CachedPage:
    value: Any
    page_lsn: LSN
    dirty: bool


class CacheManager:
    def __init__(
        self,
        stable: StableDatabase,
        log: LogManager,
        policy: Optional[FlushPolicy] = None,
        metrics: Optional[Metrics] = None,
        initial_value: Any = None,
        tracer=None,
    ):
        self.stable = stable
        self.log = log
        self.layout: Layout = stable.layout
        self.policy = policy or GeneralOpsPolicy()
        self.metrics = metrics or Metrics()
        self.initial_value = initial_value
        self.tracer = tracer or NULL_TRACER

        self._cache: Dict[PageId, CachedPage] = {}
        self.graph = DynamicWriteGraph()
        self.rec = RecLSNTracker()
        self.tree = TreeOpTracker(self.layout)
        self.latches: Dict[int, BackupLatch] = {
            p: BackupLatch(p) for p in range(self.layout.num_partitions)
        }
        for latch in self.latches.values():
            latch.tracer = self.tracer
        self.progress: Dict[int, PartitionProgress] = {
            p: PartitionProgress(p, self.layout.partition_size(p))
            for p in range(self.layout.num_partitions)
        }
        # Incremental backups install this predicate: pages for which it
        # returns False will NOT be copied even while their position is
        # pending, so Pend gives no guarantee for them (see policy module).
        self.copy_set_filter: Optional[Callable[[PageId], bool]] = None
        # Instant restore installs this callback: every cache-missed read
        # and every about-to-be-written page passes through it first, so
        # traffic mid-restore only ever observes fully recovered pages.
        self.restore_hook: Optional[Callable[[PageId], Any]] = None
        # The log scan start a post-crash recovery would use; advanced on
        # every install, conceptually persisted in checkpoint records.
        self.stable_truncation_point: LSN = 1

    def attach_tracer(self, tracer) -> None:
        """Wire a tracer (see :mod:`repro.obs`) into the cache manager
        and its latches; flush decisions, Iw/oF writes, and latch
        acquisitions emit typed events from now on."""
        self.tracer = tracer
        for latch in self.latches.values():
            latch.tracer = tracer

    # ------------------------------------------------------------ page cache

    def read_page(self, page_id: PageId) -> Any:
        page = self._cache.get(page_id)
        if page is not None:
            self.metrics.cache_hits += 1
            return page.value
        self.metrics.cache_misses += 1
        if self.restore_hook is not None:
            # Lazy instant restore: materialize the page on stable first.
            self.restore_hook(page_id)
        version = with_retries(
            lambda: self.stable.read_page(page_id), metrics=self.metrics
        )
        self._cache[page_id] = CachedPage(
            version.value, version.page_lsn, dirty=False
        )
        return version.value

    def cached(self, page_id: PageId) -> Optional[CachedPage]:
        return self._cache.get(page_id)

    def is_dirty(self, page_id: PageId) -> bool:
        page = self._cache.get(page_id)
        return page is not None and page.dirty

    def dirty_pages(self) -> Set[PageId]:
        return {pid for pid, page in self._cache.items() if page.dirty}

    def evict(self, page_id: PageId) -> None:
        """Drop a clean page from the cache (flush first if dirty)."""
        page = self._cache.get(page_id)
        if page is None:
            return
        if page.dirty:
            self.flush_page(page_id, cascade=True)
        self._cache.pop(page_id, None)

    # -------------------------------------------------------------- execute

    def execute(
        self,
        op: Operation,
        flags: RecordFlag = RecordFlag.NONE,
        source: str = "",
    ) -> LogRecord:
        """Run one operation: read pages, log it, apply to the cache."""
        cache = self._cache
        metrics = self.metrics
        if self.restore_hook is not None:
            # Restore every page this operation will write *before* it
            # applies: a blind write to an unrestored page must win over
            # any later background restore of the stale backup version.
            for pid in op.writeset:
                self.restore_hook(pid)
        reads = {}
        for pid in op.readset:
            page = cache.get(pid)
            if page is not None:
                metrics.cache_hits += 1
                reads[pid] = page.value
            else:
                reads[pid] = self.read_page(pid)
        record = with_retries(
            lambda: self.log.append(op, flags, source=source),
            metrics=metrics,
        )
        result = op.apply(reads)
        lsn = record.lsn
        rec = self.rec
        for pid, value in result.items():
            # Inlined _write_cached: one call per executed operation.
            page = cache.get(pid)
            if page is None:
                # Blind write of an uncached page: no read needed.
                cache[pid] = CachedPage(value, lsn, dirty=True)
                rec.mark_dirty(pid, lsn)
                continue
            if not page.dirty:
                rec.mark_dirty(pid, lsn)
            page.value = value
            page.page_lsn = lsn
            page.dirty = True
        self.graph.add_operation(record)
        self.tree.observe(record)
        return record

    # ----------------------------------------------------------- installing

    def installable_nodes(self) -> List[DynamicNode]:
        return self.graph.installable_nodes()

    def install_node(self, node: DynamicNode) -> None:
        """Install one write-graph node: the section 3.5 algorithm.

        Takes the backup latch(es) shared, classifies each page of
        vars(n) against backup progress, injects Iw/oF identity writes
        where required, then atomically flushes vars(n) to S.
        """
        if self.graph.predecessors(node):
            raise FlushOrderError(
                f"node {node.node_id} has uninstalled predecessors"
            )
        vars_snapshot = sorted(node.vars)
        if not vars_snapshot:
            self.graph.install_node(node)
            self.metrics.node_installs += 1
            self._drain_empty_nodes()
            self._advance_truncation()
            return

        if len(vars_snapshot) == 1:
            partitions = [vars_snapshot[0].partition]
        else:
            partitions = sorted({pid.partition for pid in vars_snapshot})
        for partition in partitions:
            self.latches[partition].acquire_shared()
        try:
            iwof_pages = self._decide_iwof(vars_snapshot)
            identity_nodes = [
                self._append_identity(
                    pid, RecordFlag.CM_INJECTED | RecordFlag.IWOF
                )
                for pid in iwof_pages
            ]
            with_retries(self.log.force, metrics=self.metrics)
            cached_pages = []
            versions: Dict[PageId, PageVersion] = {}
            for pid in vars_snapshot:
                page = self._cache.get(pid)
                if page is None:
                    raise CacheError(
                        f"page {pid!r} in vars of node {node.node_id} "
                        "is not cached"
                    )
                self.log.assert_wal(pid, page.page_lsn)
                cached_pages.append((pid, page))
                versions[pid] = PageVersion(page.value, page.page_lsn)
            with_retries(
                lambda: self.stable.write_pages_atomically(versions),
                metrics=self.metrics,
            )
        finally:
            for partition in reversed(partitions):
                self.latches[partition].release_shared()

        # Volatile bookkeeping after the stable writes succeeded.
        self.graph.install_node(node)
        for identity_node in identity_nodes:
            # The identity write's obligation is met by the flush above
            # (the flushed page carries the identity write's LSN).
            resolved = self.graph.holder_of(next(iter(identity_node.vars)))
            if resolved is not None and resolved.node_id == identity_node.node_id:
                self.graph.install_node(resolved)
        for pid, page in cached_pages:
            page.dirty = False
            self.rec.mark_installed(pid)
            self.tree.clear(pid)
        self.metrics.node_installs += 1
        self.metrics.page_flushes += len(vars_snapshot)
        if len(vars_snapshot) > 1:
            self.metrics.multi_page_installs += 1
        self._drain_empty_nodes()
        self._advance_truncation()

    def _decide_iwof(self, pages: Sequence[PageId]) -> List[PageId]:
        """Classify each page under the (held) latch; return Iw/oF set."""
        iwof: List[PageId] = []
        tracer = self.tracer
        for pid in pages:
            progress = self.progress[pid.partition]
            if not progress.active:
                # Idle partition: D == P == 0, so every page classifies
                # Pend and "Pend means flush plainly" under every policy
                # (see repro.core.progress) — skip the policy consult.
                continue
            will_copy = True
            if self.copy_set_filter is not None:
                will_copy = self.copy_set_filter(pid)
            decision = self.policy.decide(
                self.layout.position(pid),
                progress,
                self.tree.meta(pid),
                will_be_copied=will_copy,
            )
            self.metrics.record_decision(
                decision.region.value,
                decision.needs_iwof,
                step=progress.steps_taken,
            )
            if tracer.enabled:
                tracer.emit(
                    ev.FLUSH_DECISION,
                    page=str(pid),
                    region=decision.region.value,
                    step=progress.steps_taken,
                    needs_iwof=decision.needs_iwof,
                    will_copy=will_copy,
                )
            if decision.needs_iwof:
                iwof.append(pid)
        return iwof

    def _append_identity(
        self, page_id: PageId, flags: RecordFlag
    ) -> DynamicNode:
        page = self._cache.get(page_id)
        if page is None:
            raise CacheError(f"identity write of uncached page {page_id!r}")
        op = IdentityWrite(page_id, page.value)
        record = with_retries(
            lambda: self.log.append(op, flags), metrics=self.metrics
        )
        identity_node = self.graph.add_operation(record)
        page.page_lsn = record.lsn
        # The page's pending updates are now recoverable from this record:
        # its recLSN advances, truncating the log like a flush would.
        self.rec.mark_redirtied(page_id, record.lsn)
        self.metrics.iwof_records += 1
        self.metrics.iwof_bytes += record.size_bytes
        if self.tracer.enabled:
            self.tracer.emit(
                ev.IWOF_WRITE,
                page=str(page_id),
                lsn=record.lsn,
                flags=str(flags),
                bytes=record.size_bytes,
            )
        return identity_node

    def identity_install(self, page_id: PageId) -> LogRecord:
        """Iw/oF applied to S itself: install a hot page's operations by
        logging its value, without flushing (section 5.3).

        The page stays dirty and cached; its write-graph node becomes the
        identity write's node, and the original node's other obligations
        are unaffected.
        """
        page = self._cache.get(page_id)
        if page is None or not page.dirty:
            raise CacheError(
                f"identity_install needs a dirty cached page, got {page_id!r}"
            )
        identity_node = self._append_identity(page_id, RecordFlag.CM_INJECTED)
        self.metrics.identity_installs += 1
        self.tree.clear(page_id)
        self._drain_empty_nodes()
        self._advance_truncation()
        record = identity_node.ops[-1]
        return record

    def _drain_empty_nodes(self) -> None:
        """Auto-install nodes whose vars emptied and predecessors cleared.

        The graph maintains the set of empty installable nodes
        incrementally, so each pass touches only the nodes actually
        drained (installing one may release successors into the set,
        hence the outer loop) — no rescan of the live graph.
        """
        if not self.graph._ready_empty:  # common case: nothing to drain
            return
        while True:
            empties = self.graph.installable_empty_nodes()
            if not empties:
                break
            drained = 0
            for node in empties:
                live = self._live(node.node_id)
                if live is None or live.vars:
                    continue
                self.graph.install_node(live)
                self.metrics.node_installs += 1
                drained += 1
            if not drained:
                break

    def _advance_truncation(self) -> None:
        self.stable_truncation_point = self.rec.truncation_point(
            self.log.end_lsn
        )

    # ----------------------------------------------------- flush conveniences

    def _live(self, node_id: int) -> Optional[DynamicNode]:
        """The live node for ``node_id``, or None if already installed."""
        resolved = self.graph._resolve(node_id)
        return None if resolved is None else self.graph._nodes[resolved]

    def flush_page(self, page_id: PageId, cascade: bool = True) -> bool:
        """Install the node holding ``page_id`` (and, with ``cascade``,
        every transitive predecessor first, in write-graph order).

        Returns False when the page is clean / unheld.
        """
        node = self.graph.holder_of(page_id)
        if node is None:
            return False
        if cascade:
            for ancestor_id in self._ancestors_in_order(node):
                ancestor = self._live(ancestor_id)
                if ancestor is not None:
                    self.install_node(ancestor)
        target = self._live(node.node_id)
        if target is not None:
            self.install_node(target)
        return True

    def _ancestors_in_order(self, node: DynamicNode) -> List[int]:
        """Topologically ordered strict ancestor node ids of ``node``."""
        order: List[int] = []
        seen: Set[int] = set()
        stack: List[tuple] = [(node.node_id, False)]
        while stack:
            node_id, processed = stack.pop()
            if processed:
                order.append(node_id)
                continue
            if node_id in seen:
                continue
            seen.add(node_id)
            stack.append((node_id, True))
            current = self.graph.node(node_id)
            for pred in self.graph.predecessors(current):
                stack.append((pred, False))
        return [nid for nid in order if nid != node.node_id]

    def checkpoint(self) -> int:
        """Install every node, emptying the write graph.  Returns count."""
        installed = 0
        while True:
            nodes = self.graph.installable_nodes()
            if not nodes:
                break
            for node in nodes:
                live = self._live(node.node_id)
                if live is None:
                    continue
                self.install_node(live)
                installed += 1
        if len(self.graph):
            raise FlushOrderError(
                "write graph not empty after checkpoint; cycle?"
            )
        return installed

    def install_some(self, count: int, rng=None) -> int:
        """Install up to ``count`` installable nodes; returns how many.

        Without ``rng`` the oldest ready node (lowest first LSN,
        ``ready_index[0]``) goes first, like a flush list ordered by
        oldest modification: each install can advance the minimum
        recLSN, so crash redo covers the flush lag rather than all the
        log since the last checkpoint.  With ``rng`` each pick is
        ``rng.choice`` over the ready index, for callers that sample
        install orders.
        """
        ready = self.graph.ready_index
        installed = 0
        for _ in range(count):
            if not ready:
                break
            _, node_id = ready[0] if rng is None else rng.choice(ready)
            self.install_node(self.graph.node(node_id))
            installed += 1
        return installed

    # ------------------------------------------------- progress transactions

    @contextmanager
    def progress_transaction(self, partition: int):
        """Exclusive-latch scope for the backup process to move D and P."""
        latch = self.latches[partition]
        latch.acquire_exclusive()
        try:
            yield self.progress[partition]
        finally:
            latch.release_exclusive()

    # ----------------------------------------------------------------- crash

    def crash(self) -> None:
        """Lose all volatile state (cache, write graph, progress, meta)."""
        self._cache.clear()
        self.graph = DynamicWriteGraph()
        self.rec = RecLSNTracker()
        self.tree = TreeOpTracker(self.layout)
        for progress in self.progress.values():
            if progress.active:
                progress.abort()
        self.latches = {
            p: BackupLatch(p) for p in range(self.layout.num_partitions)
        }
        for latch in self.latches.values():
            latch.tracer = self.tracer
        self.copy_set_filter = None
        self.restore_hook = None

    def reload_after_recovery(self) -> None:
        """Reset cache contents after recovery rewrote S (cache is cold)."""
        self._cache.clear()
