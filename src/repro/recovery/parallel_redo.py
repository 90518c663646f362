"""Dependency-aware parallel redo: fan replay out to a worker pool.

Serial :class:`~repro.recovery.redo.RedoReplayer` walks the log slice in
LSN order — one record at a time, even when consecutive records touch
disjoint pages.  This module is a second *scheduler* over the same redo
kernel (:func:`~repro.recovery.redo.apply_record`): it runs the slice
*conflict-serially* instead.  A record depends on an earlier record iff
the two share a page and at least one of them writes it (WW, RW and WR
conflicts; RR pairs commute).  Records whose dependencies have all been
applied are *ready* and may run concurrently; the dependency DAG
guarantees every per-page read and write happens in exactly the order
the serial replay would have produced, so the final ``{PageId:
PageVersion}`` state, the :class:`~repro.recovery.redo.ReplayStats`
counters, and the poison classification are byte-identical to the
serial replayer's (pinned by ``tests/property/test_parallel_redo.py``).

Scheduling mirrors the incremental ready-queue machinery of
:class:`~repro.recovery.refined_write_graph.DynamicWriteGraph`: an
indegree count plus successor list per record, with completions
releasing successors into the ready queue.  Two execution lanes:

* **single-partition fast path** — a record whose readset ∪ writeset
  lives inside one layout partition is handed to the thread pool and
  applied lock-free: the DAG already serialises every conflicting
  access, and CPython dict reads/writes are GIL-atomic, so no
  per-partition latch is needed;
* **coordinator-ordered cross-partition lane** — records spanning
  partitions are applied on the coordinating thread, lowest LSN first
  among the ready ones, so multi-partition effects install in log
  order relative to each other.

Stats are tallied from the per-record kernel results *in record order*
after the fan-out completes, which keeps ``poisoned`` page order and
every counter identical to the serial loop regardless of completion
order.  ``REDO_OP`` trace events gain a ``worker`` field (0 = the
coordinator, 1..N = pool threads); per-worker :class:`Metrics` shards
are merged deterministically via ``shard()``/``absorb()``.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, MutableMapping, Optional

from repro.ids import PageId
from repro.obs.tracer import NULL_TRACER
from repro.recovery.redo import (
    BaseLookup,
    RedoReplayer,
    Replayed,
    ReplayStats,
    apply_record,
    emit_redo_op,
    state_reader,
)
from repro.storage.page import PageVersion
from repro.wal.records import LogRecord


def make_replayer(
    initial_value: Any = None,
    tracer=None,
    redo_workers: int = 1,
    metrics=None,
    base: Optional[BaseLookup] = None,
):
    """Serial replayer at 1 worker, parallel fan-out above.

    The recovery pipeline (:func:`repro.recovery.pipeline.run_recovery`)
    builds its replayer here, so the ``redo_workers`` knob reaches every
    recovery flavour through one seam; both returned classes expose the
    same ``replay(records, state) -> ReplayStats`` contract and read
    pages the state does not hold through the same ``base`` lookup
    (:func:`~repro.recovery.redo.state_reader`).
    """
    if redo_workers <= 1:
        return RedoReplayer(
            initial_value=initial_value, tracer=tracer, base=base
        )
    return ParallelRedoReplayer(
        initial_value=initial_value,
        tracer=tracer,
        workers=redo_workers,
        metrics=metrics,
        base=base,
    )


class ParallelRedoReplayer:
    """Replays a log slice on a worker pool, serial-equivalent outcome.

    Drop-in for :class:`RedoReplayer`: same constructor defaults, same
    ``replay`` signature, byte-identical state/stats/poison results.
    ``workers`` is the thread-pool width; the calling thread acts as
    the coordinator (graph bookkeeping + cross-partition applies).
    """

    def __init__(
        self,
        initial_value: Any = None,
        tracer=None,
        workers: int = 2,
        metrics=None,
        base: Optional[BaseLookup] = None,
    ):
        if workers < 2:
            raise ValueError(
                "ParallelRedoReplayer needs workers >= 2; use "
                "RedoReplayer (or make_replayer) for the serial path"
            )
        self._initial_value = initial_value
        self._base = base
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.workers = workers
        self.metrics = metrics

    # -- graph construction --------------------------------------------

    @staticmethod
    def _build_graph(records: List[LogRecord]):
        """Conflict DAG over record indices (WW, RW and WR edges).

        One LSN-order sweep with a per-page last-writer index plus the
        readers seen since that write: record ``j`` depends on the last
        writer of every page it touches, and a write additionally waits
        for the reads of the previous version it would clobber.
        """
        n = len(records)
        indegree = [0] * n
        successors: List[List[int]] = [[] for _ in range(n)]
        single_partition = [False] * n
        last_writer: Dict[PageId, int] = {}
        readers: Dict[PageId, List[int]] = {}
        for i, record in enumerate(records):
            op = record.op
            deps = set()
            partitions = set()
            for page in op.writeset:
                partitions.add(page.partition)
                writer = last_writer.get(page)
                if writer is not None:
                    deps.add(writer)
                deps.update(readers.get(page, ()))
            for page in op.readset:
                partitions.add(page.partition)
                writer = last_writer.get(page)
                if writer is not None:
                    deps.add(writer)
            deps.discard(i)
            for page in op.writeset:
                last_writer[page] = i
                readers[page] = []
            for page in op.readset:
                if last_writer.get(page) != i:
                    readers.setdefault(page, []).append(i)
            for dep in deps:
                successors[dep].append(i)
            indegree[i] = len(deps)
            single_partition[i] = len(partitions) <= 1
        return indegree, successors, single_partition

    # -- scheduling -----------------------------------------------------

    def replay(
        self,
        records: Iterable[LogRecord],
        state: MutableMapping[PageId, PageVersion],
    ) -> ReplayStats:
        record_list: List[LogRecord] = list(records)
        n = len(record_list)
        stats = ReplayStats(records_seen=n)
        # One kernel result per record; ``None`` is a skipped record.
        outcomes: List[Optional[Replayed]] = [None] * n
        if n == 0:
            return stats

        indegree, successors, single_partition = self._build_graph(
            record_list
        )
        version_of = state_reader(state, self._initial_value, self._base)
        tracer = self.tracer
        metrics = self.metrics
        shards: Dict[int, Any] = {}
        worker_ids: Dict[int, int] = {threading.get_ident(): 0}

        cond = threading.Condition()
        ready_single: deque = deque()
        ready_cross: List[int] = []
        done = [0]
        errors: List[BaseException] = []
        pool_box: List[Any] = [None]

        def worker_context():
            ident = threading.get_ident()
            with cond:
                worker_id = worker_ids.setdefault(ident, len(worker_ids))
                shard = None
                if metrics is not None:
                    shard = shards.get(worker_id)
                    if shard is None:
                        shard = shards[worker_id] = metrics.shard()
            return worker_id, shard

        def enqueue(index: int) -> int:
            """Queue a ready record; 1 if it went to the pool's lane."""
            if single_partition[index]:
                ready_single.append(index)
                return 1
            heapq.heappush(ready_cross, index)
            return 0

        def run_one(index: int, worker_id: int, shard) -> None:
            record = record_list[index]
            try:
                # The kernel, then the install into the shared state.
                outcome = outcomes[index] = apply_record(record, version_of)
                if tracer.enabled:
                    emit_redo_op(tracer, record, outcome, worker=worker_id)
                if outcome is not None:
                    state.update(outcome[0])
                    if shard is not None:
                        if worker_id == 0:
                            shard.redo_ops_coordinated += 1
                        else:
                            shard.redo_ops_fast_path += 1
            except BaseException as exc:  # op.apply errors are handled
                with cond:  # inside; anything else aborts the replay.
                    errors.append(exc)
                    cond.notify_all()
                return
            newly_single = 0
            with cond:
                done[0] += 1
                if not errors:
                    for succ in successors[index]:
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            newly_single += enqueue(succ)
                cond.notify_all()
            # One pool task per single record that just became ready: a
            # task pops exactly one queue entry, so submissions and
            # queue appends stay matched and nobody has to poll.
            for _ in range(newly_single):
                submit_single()

        def pool_task() -> None:
            with cond:
                if errors or not ready_single:
                    return
                index = ready_single.popleft()
            worker_id, shard = worker_context()
            run_one(index, worker_id, shard)

        def submit_single() -> None:
            try:
                pool_box[0].submit(pool_task)
            except RuntimeError:
                # Pool already shutting down: an error aborted the
                # replay and the coordinator is tearing down.
                pass

        seed_single = sum(enqueue(i) for i in range(n) if indegree[i] == 0)

        coordinator_shard = None
        if metrics is not None:
            coordinator_shard = shards[0] = metrics.shard()

        with ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="redo"
        ) as pool:
            pool_box[0] = pool
            for _ in range(seed_single):
                submit_single()
            while True:
                with cond:
                    while not errors and done[0] < n and not ready_cross:
                        cond.wait()
                    if errors or not ready_cross:
                        break
                    index = heapq.heappop(ready_cross)
                run_one(index, 0, coordinator_shard)

        if errors:
            raise errors[0]

        if metrics is not None:
            for worker_id in sorted(shards):
                metrics.absorb(shards[worker_id])

        for record, outcome in zip(record_list, outcomes):
            stats.tally(record, outcome)
        return stats
