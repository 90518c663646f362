"""The four servicebench workloads.

Each workload pre-generates its inputs from the seed, builds its store,
and exposes the three hooks the service loop in :mod:`harness` drives:
``tick(i)`` (background duty scheduled ahead of op *i*), ``do_op(op)``
and the recovery hooks.  The program under test only ever sees the
generated operations.

Sizes: ``scale = seconds / 10``.  Operation counts are a fixed function
of ``scale`` (never of the wall clock), so every counter repeats exactly
for a seed and a faster build does the *same* work in less time instead
of growing a larger state.  State sizes (keys, warm-up) are the
reference sizes for ``scale >= 1`` and shrink with it below (``--quick``).
"""

from __future__ import annotations

import itertools
import random
from array import array
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from repro import BackupConfig, Database
from repro.btree import BTree
from repro.ids import PageId
from repro.kvstore import KVStore
from repro.ops.logical import CopyOp, GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.ops.tree import WriteNew

BACKUP_STEPS = 8
FULL_BACKUP = BackupConfig(steps=BACKUP_STEPS)

GET, PUT, DELETE, RANGE = range(4)
RANGE_SPAN = 20


class WrongResult(Exception):
    """An operation returned something the model does not predict."""


class Workload:
    """State and hooks shared by all four workloads."""

    name = ""
    #: Ops per second of timed forward work on the reference sandbox;
    #: fixes the op count for a given ``--seconds``.
    ref_ops_per_s = 0
    #: Forward segments per 10 s, each followed by the recovery drills.
    ref_cycles = 8

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.scale = seconds / 10.0
        self.cycles = max(2, round(self.ref_cycles * self.scale))
        total = max(self.cycles * 40, int(self.ref_ops_per_s * seconds))
        self.ops_per_cycle = total // self.cycles
        self.db: Database = None
        self.segments: List[Sequence[Any]] = []
        # Pages copied per second inside each start_backup/backup_step/
        # archive.tick call that copied anything.
        self.sweep_rates = array("d")
        self.dirty_pages_max = 0
        self.live_nodes_max = 0
        # Archive generations sealed / chains compacted (kv_read_mem).
        self.generations = 0
        self.compactions = 0

    def split(self, ops: Sequence[Any]) -> None:
        """Cut the timed ops into one forward segment per cycle."""
        n = self.ops_per_cycle
        self.segments = [
            ops[c * n:(c + 1) * n] for c in range(self.cycles)
        ]

    def sized(self, reference: int) -> int:
        """A state size: the reference value, shrunk for ``scale < 1``."""
        return max(8, int(reference * min(1.0, self.scale)))

    # ---------------------------------------------------------------- set-up

    def prepare(self, data_dir: str) -> None:
        """Generate the inputs, create the store, preload it."""
        raise NotImplementedError

    def baseline_backup(self) -> None:
        """Set-up ends with a completed full backup, so a media drill
        always has a generation to restore from, however short the run."""
        self.db.checkpoint()
        self.db.start_backup(FULL_BACKUP)
        self.db.run_backup(BackupConfig(pages_per_tick=256))

    def close(self) -> None:
        self.db.close()

    # --------------------------------------------------------------- forward

    def begin_segment(self) -> None:
        """Untimed hook ahead of each forward segment."""

    def tick(self, i: int) -> None:
        raise NotImplementedError

    def do_op(self, op: Any) -> None:
        self.db.execute(op)

    def _sweep(self, pages: int, restart: bool = True) -> None:
        """One sweep call: copy ``pages`` of the active full backup,
        starting the next one first (back to back) if none is active."""
        db = self.db
        t = perf_counter()
        if not db.backup_in_progress():
            if not restart:
                return
            db.start_backup(FULL_BACKUP)
        copied = db.backup_step(pages)
        self.sweep_rates.append(copied / (perf_counter() - t))

    def _sample(self) -> None:
        cm = self.db.cm
        dirty = cm.rec.dirty_count()
        if dirty > self.dirty_pages_max:
            self.dirty_pages_max = dirty
        live = len(cm.graph)
        if live > self.live_nodes_max:
            self.live_nodes_max = live

    # -------------------------------------------------------------- recovery

    def probe_page(self, cycle: int) -> PageId:
        """The page the first query after an instant restore reads."""
        pages = self.db.layout.total_pages()
        slot = random.Random(self.seed * 1009 + cycle).randrange(pages)
        return next(itertools.islice(self.db.layout.all_pages(), slot, None))

    def media_recover(self):
        return self.db.media_recover(verify=False)

    def restore_source(self):
        """The backup an instant restore starts from (None = latest)."""
        return None

    def after_recovery(self) -> None:
        """Re-attach whatever a recovery invalidated."""

    # ----------------------------------------------------------- correctness

    def final_check(self) -> Tuple[int, List[str]]:
        """``(attempted, failures)`` of the end-of-run model check."""
        return 0, []

    # --------------------------------------------------------------- tracing

    def instrument(self, rec) -> None:
        """Wrap the layers' public methods on the live instances.

        Idempotent: called again after every recovery, because a crash
        replaces the write graph (and the B-tree handle).
        """
        db, cm = self.db, self.db.cm
        rec.wrap(db, "execute", "db.execute")
        rec.wrap(cm, "read_page", "cache.read_page")
        rec.wrap(cm, "execute", "cache.execute")
        rec.wrap(cm, "install_node", "cache.install_node")
        rec.wrap(db.log, "append", "wal.append")
        rec.wrap(db.log, "force", "wal.force")
        if db.log.device is not None:
            rec.wrap(db.log.device, "append", "log_device.append")
            rec.wrap(db.log.device, "sync", "log_device.sync")
        rec.wrap(cm.graph, "add_operation", "write_graph.add_operation")
        rec.wrap(cm.graph, "installable_nodes",
                 "write_graph.installable_nodes")
        rec.wrap(cm.policy, "decide", "policy.decide")
        rec.wrap(db.stable, "write_pages_atomically", "storage.write_pages")
        rec.wrap(db.stable, "read_page", "storage.read_pages")
        rec.wrap(db.stable, "read_pages", "storage.read_pages")
        rec.wrap(db.engine, "copy_some", "backup_engine.copy_some")
        rec.wrap(
            db, "start_backup", "backup_engine.start_seal",
            after=lambda run: rec.wrap(
                run, "seal", "backup_engine.start_seal"
            ),
        )
        rec.wrap(
            db.storage, "create_backup", None,
            after=lambda image: rec.wrap(
                image, "record_pages", "backup_store.record_pages"
            ),
        )
        if db.archive is not None:
            rec.wrap(db.archive, "tick", "archive.tick")
        rec.wrap(db, "begin_instant_restore", "instant.begin")
        rec.wrap(db, "finish_instant_restore", "instant.finish")


# ---------------------------------------------------------------------------
# kv_write_mem / kv_read_mem
# ---------------------------------------------------------------------------


def zipf_cum_weights(n: int, theta: float) -> List[float]:
    return list(itertools.accumulate(
        1.0 / (rank ** theta) for rank in range(1, n + 1)
    ))


class KVWorkload(Workload):
    """A ``KVStore`` under a Zipfian point/range mix, with a dict model."""

    capacity_pages = 0
    order = 16
    keys = 20_000
    theta = 0.99
    #: Cumulative shares of get / put / delete / range.
    mix: Tuple[float, float, float, float] = (0, 0, 0, 0)

    def prepare(self, data_dir: str) -> None:
        rng = random.Random(self.seed)
        n_keys = self.sized(self.keys)
        by_rank = list(range(n_keys))
        rng.shuffle(by_rank)  # rank -> key: hot keys scattered over leaves
        n_ops = self.ops_per_cycle * self.cycles
        ranks = rng.choices(
            range(n_keys), cum_weights=zipf_cum_weights(n_keys, self.theta),
            k=n_ops,
        )
        # Exact shares, shuffled: the mix does not vary with the seed.
        kinds: List[int] = []
        for kind, share in enumerate(self.mix):
            kinds += [kind] * (round(share * n_ops) - len(kinds))
        rng.shuffle(kinds)
        # Point ops take Zipfian keys.  A range scan costs in proportion
        # to its start key's position in key order (KVStore.range walks
        # from the first leaf), so starts are uniform: the mean scan cost
        # then does not depend on where a seed happens to put the hot keys.
        ops = [
            (kind, rng.randrange(n_keys) if kind == RANGE else by_rank[rank], i)
            for i, (kind, rank) in enumerate(zip(kinds, ranks))
        ]
        self.split(ops)
        self.store = KVStore.create(
            capacity_pages=self.capacity_pages, order=self.order,
            policy="tree",
        )
        self.db = self.store.db
        self.model: Dict[int, int] = {}
        preload = list(range(n_keys))
        rng.shuffle(preload)
        for key in preload:
            self.store.put(key, -1)
            self.model[key] = -1
        self.baseline_backup()

    def do_op(self, op: Tuple[int, int, int]) -> None:
        kind, key, value = op
        store, model = self.store, self.model
        if kind == GET:
            if store.get(key) != model.get(key):
                raise WrongResult(f"get({key})")
        elif kind == PUT:
            store.put(key, value)
            model[key] = value
        elif kind == DELETE:
            if store.delete(key) != (model.pop(key, None) is not None):
                raise WrongResult(f"delete({key})")
        else:
            got = list(store.range(key, key + RANGE_SPAN))
            want = [
                (k, model[k])
                for k in range(key, key + RANGE_SPAN + 1) if k in model
            ]
            if got != want:
                raise WrongResult(f"range({key})")

    def after_recovery(self) -> None:
        tree = self.store.tree
        self.store.tree = BTree.attach(
            self.db, order=tree.order, logging=tree.logging
        )

    def final_check(self) -> Tuple[int, List[str]]:
        """One attempt per key of the model or the store, plus one for
        the tree's structural invariants."""
        stored = dict(self.store.items())
        wrong = [
            f"key {k}: stored {stored.get(k)!r}, model {self.model.get(k)!r}"
            for k in sorted(set(stored) | set(self.model))
            if stored.get(k) != self.model.get(k)
        ]
        try:
            self.store.tree.check_invariants()
        except Exception as exc:  # any violation is a counted failure
            wrong.append(f"check_invariants: {exc}")
        return len(set(stored) | set(self.model)) + 1, wrong

    def instrument(self, rec) -> None:
        super().instrument(rec)
        store = self.store
        for method in ("get", "put", "delete"):
            rec.wrap(store, method, "kvstore.point")
        rec.wrap(store, "range", "kvstore.range", consume=True)


class KVWriteMem(KVWorkload):
    name = "kv_write_mem"
    ref_ops_per_s = 9_000
    capacity_pages = 16_384
    mix = (0.20, 0.85, 1.00, 1.00)

    def tick(self, i: int) -> None:
        if i & 3:
            return
        self._sweep(32)
        self.db.install_some(2)
        self._sample()


class KVReadMem(KVWorkload):
    name = "kv_read_mem"
    ref_ops_per_s = 13_000
    capacity_pages = 4_096
    mix = (0.93, 0.98, 0.98, 1.00)

    def prepare(self, data_dir: str) -> None:
        super().prepare(data_dir)
        self.archive = self.db.attach_archive(BackupConfig(
            steps=BACKUP_STEPS, pages_per_tick=32,
            incremental_every=self.sized(500),
            compact_threshold=4,
        ))

    def tick(self, i: int) -> None:
        if i & 3:
            return
        self.db.install_some(2)
        self._sample()
        if i % 500 == 0:
            links = self.archive.links()
            copied = self.db.metrics.backup_pages_copied
            t = perf_counter()
            produced = self.archive.tick()
            elapsed = perf_counter() - t
            if produced is None:
                return
            if self.archive.links() < links:
                self.compactions += 1  # merges images, sweeps nothing
            else:
                self.generations += 1
                copied = self.db.metrics.backup_pages_copied - copied
                self.sweep_rates.append(copied / elapsed)

    def media_recover(self):
        return self.db.media_recover_chain(
            self.archive.chain(), verify=False
        )

    def restore_source(self):
        return self.archive.chain()[0]


# ---------------------------------------------------------------------------
# treecopy_mem / treecopy_file
# ---------------------------------------------------------------------------


class TreeCopy(Workload):
    """The paper's section-5 tree-operation cost model at full intensity."""

    backend = ""
    pages = 1_024
    seed_pages = 8

    def prepare(self, data_dir: str) -> None:
        rng = random.Random(self.seed)
        self.db = Database(
            [self.pages], policy="tree", backend=self.backend,
            data_dir=data_dir if self.backend == "file" else None,
        )
        cycle = list(self.db.layout.all_pages())
        rng.shuffle(cycle)
        for page in cycle[:self.seed_pages]:
            self.db.execute(PhysicalWrite(page, (("seed", page.slot),)))
        self.baseline_backup()
        # Targets walk the permutation cycle, so by the time a page is
        # overwritten it was flushed ~pages ops ago: every dirty page
        # has exactly one successor (the section-5 model).  Sources are
        # uniform over the pages initialised so far.
        ops = []
        for i in range(self.ops_per_cycle * self.cycles):
            position = self.seed_pages + i
            target = cycle[position % self.pages]
            source = cycle[rng.randrange(min(position, self.pages))]
            if source == target:
                source = cycle[(position + 1) % min(position, self.pages)]
            ops.append(WriteNew(source, target, "copy_value"))
        self.split(ops)

    def tick(self, i: int) -> None:
        self.db.install_some(1)
        if i % 3 == 0:
            self._sweep(4)
            self._sample()


class TreeCopyMem(TreeCopy):
    name = "treecopy_mem"
    backend = "memory"
    ref_ops_per_s = 15_000


class TreeCopyFile(TreeCopy):
    """Same operations on real files: every append pays an ``fsync``.

    Run by the suite, not listed in ``BENCHMARK.json``: on the reference
    sandbox ``fsync`` latency wanders by 3x over minutes, so its timings
    cannot hold a 25 % bound (see README, "Sandbox caveat").
    """

    name = "treecopy_file"
    backend = "file"
    ref_ops_per_s = 1_400


# ---------------------------------------------------------------------------
# recovery_drill
# ---------------------------------------------------------------------------


class RecoveryDrill(Workload):
    """General logical operations under a deliberately lagging flush."""

    name = "recovery_drill"
    ref_ops_per_s = 6_000
    ref_cycles = 10
    partitions = 16
    pages_per_partition = 256
    warmup_ops = 10_000

    def prepare(self, data_dir: str) -> None:
        self.db = Database(
            [self.pages_per_partition] * self.partitions, policy="general"
        )
        ops = general_logical_ops(
            list(self.db.layout.all_pages()), self.seed,
            self.sized(self.warmup_ops) + self.ops_per_cycle * self.cycles,
        )
        warmup = len(ops) - self.ops_per_cycle * self.cycles
        for i, op in enumerate(ops[:warmup]):
            self.tick(i)
            self.db.execute(op)
        self.baseline_backup()
        self.split(ops[warmup:])

    def begin_segment(self) -> None:
        # One full backup per cycle: it completes inside the first part
        # of the segment (the burst); the tail then runs without a sweep
        # and becomes the media-recovery redo span.
        self.db.start_backup(FULL_BACKUP)

    def tick(self, i: int) -> None:
        # One install per two ops keeps the flush lagging.  Done as two
        # installs every fourth op, so that a quarter of the ops carry a
        # tick: op_p50_us is then inside the plain ops and op_p99_us
        # inside the ticked ones, neither on the boundary between them.
        if i & 3:
            return
        self.db.install_some(2)
        if i & 15 == 0:
            self._sample()
            self._sweep(32, restart=False)


def general_logical_ops(
    pages: List[PageId], seed: int, count: int
) -> List[Any]:
    """The ``mixed_logical_workload`` shape with source/target roles.

    Same operation forms and shares as
    ``repro.workloads.mixed_logical_workload`` (25 % physical, 30 %
    physiological stamp, 30 % copy, 15 % multi-page logical), but pages
    take one of two roles: *sources* are read by logical operations and
    updated in place, *targets* are blindly overwritten and never read.
    No operation therefore reads a page that a later operation blindly
    overwrites — the pattern on which crash recovery at this commit can
    return a wrong state (see README, "Known failure").
    """
    rng = random.Random(seed)
    pages = pages[:]
    rng.shuffle(pages)
    half = len(pages) // 2
    sources, targets = pages[:half], pages[half:]
    ops: List[Any] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:
            ops.append(
                PhysicalWrite(rng.choice(targets), rng.randrange(1 << 20))
            )
        elif roll < 0.55:
            ops.append(PhysiologicalWrite(
                rng.choice(sources), "increment", (rng.randrange(1, 9),)
            ))
        elif roll < 0.85:
            ops.append(CopyOp(rng.choice(sources), rng.choice(targets)))
        else:
            ops.append(GeneralLogicalOp(
                rng.sample(sources, rng.randrange(2, 4)),
                rng.sample(targets, rng.randrange(1, 3)),
                "concat_sorted",
            ))
    return ops


WORKLOADS = {
    cls.name: cls
    for cls in (KVWriteMem, KVReadMem, TreeCopyMem, TreeCopyFile,
                RecoveryDrill)
}
