"""Experiment drivers: one function per figure/ablation of DESIGN.md.

Each driver is deterministic given its seed(s) and returns plain data
structures; the ``benchmarks/`` suite times them and prints the paper-
style tables, the integration tests assert the expected *shape* (who
wins, by what rough factor, where the crossovers are).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.btree import BTree
from repro.core import analysis
from repro.core.progress import PartitionProgress
from repro.core.policy import TreeOpsPolicy
from repro.core.tree_meta import TreeMeta
from repro.core.config import BackupConfig
from repro.core.linked_flush import LinkedFlushBackup
from repro.core.naive_backup import NaiveFuzzyDump
from repro.db import Database
from repro.appfs import ApplicationManager
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.ops.tree import MovRec, RmvRec
from repro.sim.runner import InterleavedRun
from repro.workloads import fresh_copy_workload


# ---------------------------------------------------------------------------
# FIG5 — extra-logging probability vs number of backup steps.
# ---------------------------------------------------------------------------


@dataclass
class Fig5Point:
    steps: int
    kind: str  # "general" | "tree"
    measured: float
    analytic: float
    samples: int


def fig5_measure(
    kind: str,
    steps: int,
    pages: int = 1024,
    seed: int = 1,
    ops_per_tick: int = 3,
    installs_per_tick: int = 3,
    backup_pages_per_tick: int = 4,
) -> Fig5Point:
    """Measure the Iw/oF fraction for one (kind, steps) configuration."""
    policy = "tree" if kind == "tree" else "general"
    db = Database(pages_per_partition=[pages], policy=policy)
    workload = fresh_copy_workload(
        db.layout,
        seed=seed,
        count=None,
        tree_ops=(kind == "tree"),
        is_clean=lambda p: not db.cm.is_dirty(p),
    )
    run = InterleavedRun(
        db,
        workload,
        seed=seed,
        ops_per_tick=ops_per_tick,
        installs_per_tick=installs_per_tick,
        backup=BackupConfig(steps=steps, pages_per_tick=backup_pages_per_tick),
    )
    result = run.run(max_ticks=20_000)
    if result.backup is None:
        raise RuntimeError("fig5 run did not complete its backup")
    analytic = (
        analysis.general_extra_logging(steps)
        if kind == "general"
        else analysis.tree_extra_logging(steps)
    )
    return Fig5Point(
        steps=steps,
        kind=kind,
        measured=db.metrics.extra_logging_fraction,
        analytic=analytic,
        samples=db.metrics.flush_decisions_during_backup,
    )


def fig5_sweep(
    step_counts: Tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    seeds: Tuple[int, ...] = (1, 2, 3),
    pages: int = 1024,
) -> List[Fig5Point]:
    """The full Figure 5 sweep, averaging measurements across seeds."""
    points: List[Fig5Point] = []
    for kind in ("general", "tree"):
        for steps in step_counts:
            measured, samples = 0.0, 0
            for seed in seeds:
                point = fig5_measure(kind, steps, pages=pages, seed=seed)
                measured += point.measured
                samples += point.samples
            points.append(
                Fig5Point(
                    steps=steps,
                    kind=kind,
                    measured=measured / len(seeds),
                    analytic=point.analytic,
                    samples=samples,
                )
            )
    return points


# ---------------------------------------------------------------------------
# FIG4 — the (#X, #S(X)) regions requiring Iw/oF.
# ---------------------------------------------------------------------------


def fig4_analytic_region(
    x_pos: int, succ_pos: int, done: int, pending: int
) -> bool:
    """The paper's shaded region: does flushing X at ``x_pos`` with a
    single successor at ``succ_pos`` need Iw/oF?  (Figure 4.)"""
    pend_x = x_pos >= pending
    done_s = succ_pos < done
    doubt_x = done <= x_pos < pending
    doubt_s = done <= succ_pos < pending
    if pend_x or done_s:
        return False
    if doubt_x and doubt_s and succ_pos < x_pos:
        return False  # the † property holds
    return True


def fig4_grid(
    size: int = 24, done: int = 8, pending: int = 16
) -> Dict[str, List[List[bool]]]:
    """Policy decisions vs the analytic region over the full grid.

    Returns two size×size boolean grids indexed [x_pos][succ_pos]:
    ``policy`` (what TreeOpsPolicy decides) and ``analytic`` (Figure 4).
    """
    progress = PartitionProgress(0, size)
    progress.begin(pending)
    progress.done = done  # directly position the frontier for the grid
    policy = TreeOpsPolicy()
    policy_grid: List[List[bool]] = []
    analytic_grid: List[List[bool]] = []
    for x_pos in range(size):
        policy_row, analytic_row = [], []
        for succ_pos in range(size):
            meta = TreeMeta(
                max_succ=succ_pos, violation=(x_pos < succ_pos)
            )
            decision = policy.decide(x_pos, progress, meta)
            policy_row.append(decision.needs_iwof)
            if succ_pos == x_pos:
                # A page is never its own successor; the diagonal is
                # outside the figure's domain — mirror the policy there.
                analytic_row.append(decision.needs_iwof)
            else:
                analytic_row.append(
                    fig4_analytic_region(x_pos, succ_pos, done, pending)
                )
        policy_grid.append(policy_row)
        analytic_grid.append(analytic_row)
    return {"policy": policy_grid, "analytic": analytic_grid}


# ---------------------------------------------------------------------------
# FIG1 — naive fuzzy dump vs the engine on the B-tree split scenario.
# ---------------------------------------------------------------------------


@dataclass
class Fig1Outcome:
    engine: str
    recovered: bool
    diffs: int
    moved_records_in_backup: bool


def fig1_scenario(engine_kind: str, pages: int = 32) -> Fig1Outcome:
    """The exact Figure 1 interleaving: new's location is copied before
    the split, old's after; flushes happen in write-graph order."""
    db = Database(pages_per_partition=[pages], policy="general")
    old, new = PageId(0, pages - 12), PageId(0, 2)
    records = tuple((k, f"v{k}") for k in range(10))
    db.execute(PhysicalWrite(old, records))
    db.checkpoint()

    if engine_kind == "naive":
        naive = NaiveFuzzyDump(db.cm, storage=db.storage)
        naive.start_backup()
        copy, finish = naive.copy_some, naive.run_to_completion
        latest = naive.latest_backup
    elif engine_kind == "engine":
        db.start_backup(BackupConfig(steps=4))
        copy, finish = db.backup_step, db.run_backup
        latest = db.latest_backup
    else:
        raise ValueError(f"unknown engine {engine_kind!r}")

    copy(5)  # frontier passes `new` but not `old`
    db.execute(MovRec(old, 4, new))
    db.execute(RmvRec(old, 4))
    db.checkpoint()  # flushes new then old (write-graph order)
    finish()

    backup = latest()
    moved = tuple(r for r in records if r[0] > 4)
    backup_new = backup.read_page(new)
    db.media_failure()
    outcome = db.media_recover(backup=backup)
    return Fig1Outcome(
        engine=engine_kind,
        recovered=outcome.ok,
        diffs=len(outcome.diffs),
        moved_records_in_backup=(
            backup_new is not None and backup_new.value == moved
        ),
    )


# ---------------------------------------------------------------------------
# T-ECON — logging economy: tree vs page-oriented split logging.
# ---------------------------------------------------------------------------


@dataclass
class EconomyRow:
    logging: str
    keys: int
    order: int
    splits: int
    split_bytes: int
    total_bytes: int


def logging_economy(
    keys: int = 1200, order: int = 64, seed: int = 11
) -> List[EconomyRow]:
    """Insert the same key sequence under both logging modes; compare the
    bytes attributable to split operations and the whole log."""
    rows = []
    for mode in ("tree", "page"):
        db = Database(pages_per_partition=[512], policy="page-oriented")
        tree = BTree(db, order=order, logging=mode).create()
        rng = random.Random(seed)
        key_list = list(range(keys))
        rng.shuffle(key_list)
        for key in key_list:
            tree.insert(key, ("payload", key, "x" * 16))
        splits = db.log.count(
            predicate=lambda r: "take_high" in getattr(r.op, "transform", "")
            or (r.op.kind.value == "physical" and _is_node_image(r.op))
        )
        split_bytes = db.log.bytes_logged(
            predicate=lambda r: _is_split_record(r)
        )
        rows.append(
            EconomyRow(
                logging=mode,
                keys=keys,
                order=order,
                splits=splits,
                split_bytes=split_bytes,
                total_bytes=db.log.bytes_logged(),
            )
        )
    return rows


def _is_node_image(op) -> bool:
    value = getattr(op, "value", None)
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and value[0] in ("leaf", "int")
        and bool(value[1])
    )


def _is_split_record(record) -> bool:
    op = record.op
    transform = getattr(op, "transform", "")
    if transform in ("btree_take_high", "btree_remove_high"):
        return True
    return op.kind.value == "physical" and _is_node_image(op)


# ---------------------------------------------------------------------------
# E-APP — section 6.2: application placement in the backup order.
# ---------------------------------------------------------------------------


@dataclass
class AppPlacementResult:
    at_end: bool
    iwof: int
    decisions: int
    recovered: bool


def app_read_experiment(
    at_end: bool, pages: int = 128, seed: int = 5, app_slots: int = 4
) -> AppPlacementResult:
    db = Database(pages_per_partition=[pages], policy="tree")
    manager = ApplicationManager(db, app_slots=app_slots, at_end=at_end)
    apps = [manager.launch(f"app{i}") and f"app{i}" for i in range(app_slots)]
    rng = random.Random(seed)
    data = [PageId(0, s) for s in range(10, pages // 2)]
    for page in data:
        db.execute(PhysiologicalWrite(page, "increment", (1,)))
    db.start_backup(BackupConfig(steps=8))
    while db.backup_in_progress():
        db.backup_step(2)
        for _ in range(2):
            app = rng.choice(apps)
            source = rng.choice(data)
            manager.read_into(app, source)
            db.execute(PhysiologicalWrite(source, "increment", (1,)))
        db.install_some(3, rng)
    db.media_failure()
    outcome = db.media_recover()
    return AppPlacementResult(
        at_end=at_end,
        iwof=db.metrics.iwof_during_backup,
        decisions=db.metrics.flush_decisions_during_backup,
        recovered=outcome.ok,
    )


# ---------------------------------------------------------------------------
# E-INC — incremental backup volume and recoverability.
# ---------------------------------------------------------------------------


@dataclass
class IncrementalResult:
    full_pages: int
    incremental_pages: int
    updated_fraction: float
    recovered: bool
    iwof_during_incremental: int


def incremental_experiment(
    pages: int = 256, update_fraction: float = 0.2, seed: int = 9
) -> IncrementalResult:
    db = Database(pages_per_partition=[pages], policy="general")
    rng = random.Random(seed)
    all_pages = [PageId(0, s) for s in range(pages)]
    for page in all_pages:
        db.execute(PhysicalWrite(page, ("base", page.slot)))
    db.checkpoint()
    db.start_backup(BackupConfig(steps=4))
    full = db.run_backup(BackupConfig(pages_per_tick=16))

    # Update a fraction, then take an incremental backup online.
    touched = rng.sample(all_pages, int(pages * update_fraction))
    for page in touched:
        db.execute(PhysiologicalWrite(page, "stamp", ("inc1",)))
    iwof_before = db.metrics.iwof_records
    db.start_backup(BackupConfig(steps=4, incremental=True))
    while db.backup_in_progress():
        db.backup_step(4)
        # Concurrent updates during the incremental sweep.
        page = rng.choice(all_pages)
        db.execute(PhysiologicalWrite(page, "stamp", ("during",)))
        db.install_some(2, rng)
    incremental = db.latest_backup()

    db.media_failure()
    outcome = db.media_recover_chain([full, incremental])
    return IncrementalResult(
        full_pages=full.copied_count(),
        incremental_pages=incremental.copied_count(),
        updated_fraction=update_fraction,
        recovered=outcome.ok,
        iwof_during_incremental=db.metrics.iwof_records - iwof_before,
    )


# ---------------------------------------------------------------------------
# A-LINK — linked-flush strawman cost.
# ---------------------------------------------------------------------------


@dataclass
class LinkedFlushResult:
    linked_forced_flushes: int
    linked_pages_copied: int
    engine_iwof_records: int
    engine_pages_copied: int
    both_recovered: bool


def linked_flush_experiment(
    pages: int = 256, ops: int = 400, seed: int = 13
) -> LinkedFlushResult:
    from repro.workloads import mixed_logical_workload

    def build():
        db = Database(pages_per_partition=[pages], policy="general")
        for op in mixed_logical_workload(db.layout, seed=seed, count=ops):
            db.execute(op)
        return db

    # Linked-flush baseline: forces the dirty set through the CM.
    db_linked = build()
    linked = LinkedFlushBackup(db_linked.cm, storage=db_linked.storage)
    backup_linked = linked.run()
    db_linked.media_failure()
    linked_ok = db_linked.media_recover(backup=backup_linked).ok

    # Asynchronous engine with concurrent updates.
    db_engine = build()
    rng = random.Random(seed)
    extra = mixed_logical_workload(db_engine.layout, seed=seed + 1, count=200)
    db_engine.start_backup(BackupConfig(steps=8))
    while db_engine.backup_in_progress():
        db_engine.backup_step(8)
        op = next(extra, None)
        if op is not None:
            db_engine.execute(op)
        db_engine.install_some(2, rng)
    db_engine.media_failure()
    engine_ok = db_engine.media_recover().ok

    return LinkedFlushResult(
        linked_forced_flushes=linked.forced_flushes,
        linked_pages_copied=linked.pages_copied,
        engine_iwof_records=db_engine.metrics.iwof_records,
        engine_pages_copied=db_engine.metrics.backup_pages_copied,
        both_recovered=linked_ok and engine_ok,
    )
