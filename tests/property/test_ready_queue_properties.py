"""Property-based tests (hypothesis) for the ordered ready index.

The dynamic write graph maintains its ready index (the live nodes with
no live predecessors, ordered by first-op LSN) and ``_ready_empty`` (the
ready subset with empty ``vars``) incrementally across every mutation —
edge additions, merges (which can lower a node's first LSN), blind-write
var removal, installs.  These tests recompute both by brute force after
every step and require exact agreement, order included; a twin-database
test then checks that drawing installs from the index picks exactly the
nodes the old copy-sort-choice did.

The brute-force comparator deliberately avoids ``graph.predecessors()``:
that method compacts ``preds`` and *repairs* the ready queue as a side
effect, which would mask incremental-maintenance bugs.  It walks the
alias map read-only instead.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cache.cache_manager import CacheManager
from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.identity import IdentityWrite
from repro.ops.logical import CopyOp, GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery.refined_write_graph import DynamicWriteGraph
from repro.wal.log_manager import LogManager
from repro.workloads.generators import mixed_logical_workload

N_PAGES = 8


def pid(slot):
    return PageId(0, slot)


slots = st.integers(min_value=0, max_value=N_PAGES - 1)


@st.composite
def operations(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return PhysicalWrite(pid(draw(slots)), draw(st.integers(0, 99)))
    if kind == 1:
        return PhysiologicalWrite(pid(draw(slots)), "increment")
    if kind == 2:
        src = draw(slots)
        dst = draw(slots.filter(lambda s: s != src))
        return CopyOp(pid(src), pid(dst))
    if kind == 3:
        return IdentityWrite(pid(draw(slots)), draw(st.integers(0, 99)))
    reads = draw(st.sets(slots, min_size=1, max_size=3))
    writes = draw(st.sets(slots, min_size=1, max_size=2))
    return GeneralLogicalOp(
        [pid(s) for s in reads], [pid(s) for s in writes], "concat_sorted"
    )


# A script step: (action roll, operation).  The roll decides between
# adding the operation and installing a ready node (when one exists).
scripts = st.lists(
    st.tuples(st.integers(0, 4), operations()), min_size=1, max_size=50
)


def brute_force_ready(graph):
    """Recompute (ready ids in first-LSN order, ready_empty) from first
    principles.

    A node is ready iff no *live* node is among its predecessors after
    resolving merged aliases.  The alias map is walked without path
    compression and ``preds`` is never mutated, so this cannot repair
    the incremental state it is checking.
    """
    alias = graph._alias
    nodes = graph._nodes
    ready, ready_empty = set(), set()
    for node_id, node in nodes.items():
        has_live_pred = False
        for pred in node.preds:
            current = pred
            while current in alias:
                current = alias[current]
            if current in nodes and current != node_id:
                has_live_pred = True
                break
        if not has_live_pred:
            ready.add(node_id)
            if not node.vars:
                ready_empty.add(node_id)
    return sorted(ready, key=lambda nid: nodes[nid].first_lsn), ready_empty


def assert_queue_consistent(graph):
    expected_ready, expected_empty = brute_force_ready(graph)
    assert [n.node_id for n in graph.installable_nodes()] == expected_ready
    assert graph.ready_index == [
        (graph._nodes[nid].first_lsn, nid) for nid in expected_ready
    ]
    assert graph._ready_empty == expected_empty


class TestReadyQueueMatchesBruteForce:
    @given(scripts)
    @settings(max_examples=150, deadline=None)
    def test_graph_level_adds_and_installs(self, script):
        graph = DynamicWriteGraph()
        log = LogManager()
        for roll, op in script:
            ready = graph.installable_nodes()
            if roll == 0 and ready:
                graph.install_node(ready[0])
            else:
                graph.add_operation(log.append(op))
            assert_queue_consistent(graph)
        # Drain completely: the queue must stay exact to the last node.
        while len(graph):
            nodes = graph.installable_nodes()
            assert nodes, "acyclic graph must have a ready node"
            graph.install_node(nodes[0])
            assert_queue_consistent(graph)
        assert graph.installable_nodes() == []
        assert graph._ready_empty == set()

    @given(scripts, st.integers(0, 2**16))
    @settings(max_examples=75, deadline=None)
    def test_database_level_mixed_workload(self, script, seed):
        """The queue stays exact through the full cache-manager path:
        executes, partial installs, checkpoints, and crashes."""
        db = Database(pages_per_partition=[N_PAGES], policy="general")
        rng = random.Random(seed)
        for roll, op in script:
            if roll == 0:
                db.install_some(2, rng)
            elif roll == 1 and rng.random() < 0.3:
                db.crash()
                db.recover()
            else:
                db.execute(op)
            assert_queue_consistent(db.cm.graph)
        db.checkpoint()
        assert_queue_consistent(db.cm.graph)
        assert len(db.cm.graph) == 0


class TestEachMutationKeepsTheIndexOrdered:
    """One deterministic case per hook that maintains the index."""

    def setup_method(self):
        self.graph = DynamicWriteGraph()
        self.log = LogManager()

    def add(self, op):
        node = self.graph.add_operation(self.log.append(op))
        assert_queue_consistent(self.graph)
        return node

    def ready_lsns(self):
        return [n.first_lsn for n in self.graph.installable_nodes()]

    def test_general_add_orders_the_writer_after_its_reader(self):
        self.add(PhysicalWrite(pid(0), 1))
        reader = self.add(CopyOp(pid(0), pid(1)))
        self.add(GeneralLogicalOp([pid(2)], [pid(0)], "concat_sorted"))
        # The third op merged into page 0's holder, which now waits for
        # the uninstalled reader of page 0's old value.
        assert self.ready_lsns() == [reader.first_lsn]

    def test_blind_write_shrinks_the_previous_holder_to_empty(self):
        first = self.add(PhysicalWrite(pid(0), 1))
        self.add(PhysicalWrite(pid(0), 2))
        assert self.graph._ready_empty == {first.node_id}
        assert self.ready_lsns() == [1, 2]

    def test_merge_that_lowers_the_survivors_first_lsn_rekeys_it(self):
        for slot in range(5):
            self.add(PhysicalWrite(pid(slot), slot))
        newest = self.add(PhysicalWrite(pid(5), 5))
        oldest = self.graph.holder_of(pid(0))
        assert self.ready_lsns() == [1, 2, 3, 4, 5, 6]
        survivor = self.graph._merge(newest.node_id, oldest.node_id)
        assert survivor is newest and survivor.first_lsn == 1
        assert_queue_consistent(self.graph)
        # The survivor moved from the back of the order to the front.
        assert self.graph.installable_nodes()[0] is survivor
        assert self.ready_lsns() == [1, 2, 3, 4, 5]

    def test_install_releases_successors_into_lsn_order(self):
        self.add(PhysicalWrite(pid(0), 1))
        reader = self.add(CopyOp(pid(0), pid(1)))
        self.add(PhysicalWrite(pid(2), 3))
        self.add(PhysicalWrite(pid(0), 4))  # blind: waits for the reader
        assert self.ready_lsns() == [1, 2, 3]
        self.graph.install_node(reader)
        assert_queue_consistent(self.graph)
        assert self.ready_lsns() == [1, 3, 4]


def reference_install_some(cm, count, rng):
    """``CacheManager.install_some`` as it was before the ready index:
    recompute the ready set, sort it by first LSN (``brute_force_ready``
    does both), ``rng.choice`` over that."""
    installed = 0
    for _ in range(count):
        ready, _ = brute_force_ready(cm.graph)
        nodes = [cm.graph._nodes[nid] for nid in ready]
        if not nodes:
            break
        cm.install_node(rng.choice(nodes))
        installed += 1
    return installed


class TestInstallChoiceIsUnchanged:
    def test_twin_databases_install_the_same_nodes_under_a_lagging_flush(self):
        """Same seeded workload, one install per two ops (the flush lags:
        the ready set passes 500): drawing from the index installs the
        same node sequence and ends with the same counters and log as
        the copy-sort-choice reference."""
        sequences, ready_max = [], 0
        twins = [Database([256] * 16, policy="general") for _ in range(2)]
        for db, install_some in zip(
            twins, (CacheManager.install_some, reference_install_some)
        ):
            installs = []
            real_install = db.cm.install_node

            def recording_install(node, real=real_install, out=installs):
                out.append((node.node_id, tuple(node.op_lsns)))
                real(node)

            db.cm.install_node = recording_install
            rng = random.Random(7)
            db.start_backup(BackupConfig())
            for i, op in enumerate(
                mixed_logical_workload(db.layout, seed=3, count=4000)
            ):
                db.execute(op)
                if i % 4 == 3:
                    install_some(db.cm, 2, rng)
                if i % 64 == 0:
                    db.backup_step()
                ready_max = max(ready_max, len(db.cm.graph.ready_index))
            sequences.append(installs)
        assert ready_max >= 500
        assert len(sequences[0]) > 1000
        assert sequences[0] == sequences[1]
        assert twins[0].metrics.snapshot() == twins[1].metrics.snapshot()
        logs = [[(r.lsn, r.crc, r.flags) for r in db.log.scan()] for db in twins]
        assert logs[0] == logs[1]
