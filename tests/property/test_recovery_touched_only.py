"""Property: touched-only recovery equals full-materialising recovery.

The recovery pipeline looks the base image up and keeps only what replay
wrote in its state.  The reference here is the recovery it replaced —
copy the whole base into a dict, replay the slice over it in LSN order,
classify and diff the whole dict — and it stays in this file only.  For
every flavour (crash, media, media-chain, partition, selective, instant)
the store must end byte-identical to the reference state, ``{**base,
**outcome.state}`` must *be* the reference state, and the counters, the
poison/quarantine sets and the diffs must match — under all three flush
policies, a batched or page-at-a-time full-backup sweep, memory and file
backends, and with a rotted stable page (crash seed) or backup page
(media seed).  And every flavour leaves a crash-consistent store: a
crash straight after it, and crash recovery, change no page.
"""

import random
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import BackupConfig
from repro.core.partial_recovery import op_partitions
from repro.db import Database
from repro.ids import NULL_LSN, PageId
from repro.ops.physical import PhysicalWrite
from repro.recovery.crash_recovery import run_crash_recovery
from repro.recovery.explain import diff_states
from repro.recovery.redo import (
    POISON,
    RedoReplayer,
    contains_poison,
    surviving_poison,
)
from repro.recovery.selective_redo import (
    compute_taint,
    expected_state_excluding,
)
from repro.storage.layout import Layout
from repro.storage.page import PageVersion, rot_value
from repro.workloads import (
    mixed_logical_workload,
    page_oriented_workload,
    tree_split_workload,
)

WORKLOADS = {
    "general": mixed_logical_workload,
    "tree": tree_split_workload,
    "page": page_oriented_workload,
}
FLAVOURS = ["crash", "media", "media-chain", "partition", "selective",
            "instant"]
PARTITIONS = [12, 12, 12, 12]


def _build(seed, policy, flavour, backend="memory", data_dir=None,
           backups=True, batched=True):
    """Seeded workload with a full backup taken under it (``batched``
    picks the sweep), then an incremental link, then a tail (some of it
    logged by ``rogue``)."""
    db = Database(pages_per_partition=PARTITIONS,
                  policy="page-oriented" if policy == "page" else policy,
                  backend=backend, data_dir=data_dir)
    rng = random.Random(seed)
    # Partition recovery needs every operation confined to the partition.
    layout = Layout(PARTITIONS[:1]) if flavour == "partition" else db.layout
    source = WORKLOADS[policy](layout, seed=seed, count=120)

    def run(count, tag=""):
        for _ in range(count):
            db.execute(next(source), source=tag)
            if rng.random() < 0.4:  # lazy flushing: crash has redo to do
                db.install_some(1, rng)

    run(30)
    if backups:
        db.start_backup(BackupConfig(steps=4, batched=batched))
        while db.backup_in_progress():
            db.backup_step(8)
            run(2)
    run(20)
    run(5, tag="rogue")
    if backups:
        db.start_backup(BackupConfig(steps=4, incremental=True))
        db.run_backup()
    run(15)
    db.log.force()
    return db


class Reference:
    """Today's recovery, whole base in a dict: the test reference."""

    def __init__(self, base, records, seeds, expected, initial_value):
        lost = set(seeds)
        self.base = {p: v for p, v in dict(base).items() if p not in lost}
        self.state = dict(self.base)
        self.state.update(
            (pid, PageVersion(POISON, NULL_LSN)) for pid in lost
        )
        stats = RedoReplayer(initial_value).replay(records, self.state)
        self.replayed, self.skipped = stats.ops_replayed, stats.ops_skipped
        self.poisoned = surviving_poison(self.state)
        self.quarantined = []
        if lost:
            self.quarantined, self.poisoned = self.poisoned, []
        self.diffs = [
            d for d in diff_states(self.state, expected, initial_value)
            if d[0] not in set(self.quarantined)
        ]
        self.formatted = PageVersion(initial_value, NULL_LSN)

    def snapshot(self, restored, untouched=()):
        """What the store must hold: the state over the ``restored``
        pages (POISON formatted away), ``untouched`` cells elsewhere."""
        cells = dict(untouched)
        for pid in restored:
            version = self.state.get(pid, self.formatted)
            if contains_poison(version.value):
                version = self.formatted
            cells[pid] = version
        return cells


def _key(state):
    return {pid: (v.value, v.page_lsn) for pid, v in state.items()}


def _recover(db, flavour):
    """Fail ``db``, derive the reference from what the entry point will
    choose, run the real recovery.  Returns ``(reference, snapshot the
    store must show, outcome)``."""
    log, initial = db.log, db.initial_value
    oracle = db.oracle.state()
    pages = list(db.layout.all_pages())
    seeds, untouched = [], {}
    full = db._full_backups()[0] if db.engine.completed else None
    if flavour == "crash":
        db.crash()
        seeds = db.stable.damaged_pages()
        base = db.stable.iter_pages()
        records = log.durable_scan(db.cm.stable_truncation_point)
        if seeds:
            # The quarantine rung: no backup to heal from.
            def recover():
                return run_crash_recovery(
                    db.stable, log, db.cm.stable_truncation_point,
                    oracle=oracle, quarantine=seeds,
                    **db._recovery_args(),
                )
        else:
            recover = db.recover
    elif flavour == "partition":
        untouched = db.stable.snapshot()
        db.fail_partition(0)
        base = [(p, v) for p, v in full.iter_pages() if p.partition == 0]
        records = [
            r for r in log.scan(full.media_scan_start_lsn)
            if 0 in op_partitions(r)
        ]
        oracle = {p: v for p, v in oracle.items() if p.partition == 0}
        pages = list(db.layout.pages_in_partition(0))

        def recover():
            return db.recover_partition(0, backup=full)
    else:
        db.media_failure()
        seeds = full.damaged_pages()  # the only full: no fallback
        base = full.iter_pages()
        records = log.scan(full.media_scan_start_lsn, log.end_lsn)
        if flavour == "media":
            def recover():
                return db.media_recover(backup=full)
        elif flavour == "media-chain":
            chain = db.engine.completed
            base = {p: v for b in chain for p, v in b.iter_pages()}.items()
            recover = db.media_recover_chain
        elif flavour == "selective":
            records = list(records)
            excluded = compute_taint(
                records, lambda r: r.source == "rogue"
            ).excluded
            records = [r for r in records if r.lsn not in excluded]
            oracle = expected_state_excluding(log, excluded, initial)

            def recover():
                return db.selective_recover("rogue", backup=full)
        else:
            def recover():
                db.begin_instant_restore(backup=full)
                for pid in pages[::5]:
                    db.read(pid)
                return db.finish_instant_restore()
    reference = Reference(base, list(records), seeds, oracle, initial)
    return reference, reference.snapshot(pages, untouched), recover()


def _assert_matches_reference(db, flavour):
    reference, snapshot, outcome = _recover(db, flavour)
    assert db.stable.snapshot() == snapshot
    assert _key({**reference.base, **outcome.state}) == _key(reference.state)
    assert outcome.replayed == reference.replayed
    assert outcome.skipped == reference.skipped
    assert outcome.poisoned == reference.poisoned
    assert outcome.quarantined == reference.quarantined
    # Not ``outcome.ok``: a rare schedule trips the exposed-value bug
    # (ROADMAP item 1) in reference and pipeline alike — same diffs.
    assert outcome.diffs == reference.diffs
    db.close()


@pytest.mark.parametrize("sweep", ["batched", "serial"])
@pytest.mark.parametrize("policy", sorted(WORKLOADS))
@pytest.mark.parametrize("flavour", FLAVOURS)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_every_flavour_matches_the_reference(flavour, policy, sweep, seed):
    db = _build(seed, policy, flavour, batched=sweep == "batched")
    _assert_matches_reference(db, flavour)


@pytest.mark.parametrize("policy", sorted(WORKLOADS))
@pytest.mark.parametrize("flavour", FLAVOURS)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=2, deadline=None)
def test_file_backend_matches_the_reference(flavour, policy, seed):
    with tempfile.TemporaryDirectory() as tmp:
        db = _build(seed, policy, flavour, "file", tmp)
        _assert_matches_reference(db, flavour)


@pytest.mark.parametrize("policy", sorted(WORKLOADS))
@pytest.mark.parametrize("flavour", FLAVOURS)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=4, deadline=None)
def test_every_flavour_leaves_a_crash_consistent_store(flavour, policy,
                                                        seed):
    """What a recovery installed is durable and agrees with the log and
    the checkpoint: crash recovery straight after it changes no page."""
    db = _build(seed, policy, flavour)
    _recover(db, flavour)
    recovered = db.stable.snapshot()
    db.crash()
    outcome = db.recover(verify=False)
    assert outcome.quarantined == []
    assert db.stable.snapshot() == recovered
    db.close()


@pytest.mark.parametrize("flavour", FLAVOURS)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=2, deadline=None)
def test_file_backend_leaves_a_crash_consistent_store(flavour, seed):
    with tempfile.TemporaryDirectory() as tmp:
        db = _build(seed, "general", flavour, "file", tmp)
        _recover(db, flavour)
        recovered = db.stable.snapshot()
        db.crash()
        assert db.recover(verify=False).quarantined == []
        assert db.stable.snapshot() == recovered
        db.close()


@pytest.mark.parametrize("policy", sorted(WORKLOADS))
@given(seed=st.integers(0, 10_000), victim=st.integers(0, 47))
@settings(max_examples=10, deadline=None)
def test_rotted_stable_page_is_a_crash_quarantine_seed(policy, seed, victim):
    db = _build(seed, policy, "crash", backups=False)
    db.stable._rot_cell(list(db.layout.all_pages())[victim])
    _assert_matches_reference(db, "crash")


@pytest.mark.parametrize("policy", sorted(WORKLOADS))
@pytest.mark.parametrize("flavour", ["media", "instant"])
@given(seed=st.integers(0, 10_000), victim=st.integers(0, 47))
@settings(max_examples=10, deadline=None)
def test_rotted_backup_page_is_a_media_seed(flavour, policy, seed, victim):
    db = _build(seed, policy, flavour)
    full = db._full_backups()[0]
    pid = full.copy_order()[victim % full.copied_count()]
    old = full._versions[pid]
    full._versions[pid] = PageVersion(rot_value(old.value), old.page_lsn)
    _assert_matches_reference(db, flavour)


def test_stray_value_on_an_unlogged_page_is_reported():
    """Verification still covers pages replay never wrote: a value the
    log never produced and the oracle does not know is a diff."""
    db = Database(pages_per_partition=[8])
    db.execute(PhysicalWrite(PageId(0, 0), "logged"))
    db.checkpoint()
    stray = PageId(0, 5)
    db.stable.install_version(stray, PageVersion("stray", NULL_LSN))
    db.crash()
    outcome = db.recover()
    assert not outcome.ok
    assert outcome.diffs == [(stray, "stray", db.initial_value)]
