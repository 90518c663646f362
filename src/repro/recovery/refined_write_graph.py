"""The refined write graph rW (section 2.4), as a *dynamic* structure.

``DynamicWriteGraph`` is the write graph the cache manager actually
maintains during normal execution:

* adding a non-blind operation merges it with the nodes currently holding
  the pages it writes (the "intersecting writes" first collapse), adds the
  read-write installation edges, and collapses any strongly connected
  region the new edges create (the second collapse) — so the graph is
  acyclic at all times;
* adding a **blind** write (physical or identity write) instead creates a
  fresh node holding only its target, removes the target from the previous
  holder's ``vars`` (the target's old value has become *unexposed*), and
  adds the *inverse write-read* edges from nodes whose operations read the
  value being overwritten;
* installing a node with no predecessors removes it, releasing its
  successors.

The graph keeps an incrementally maintained **ready index**: the
``(first_lsn, node_id)`` keys of the nodes with no live predecessors, in
one list kept sorted with ``bisect`` (plus the set of ready nodes whose
``vars`` are empty, i.e. drainable without a flush).  Every mutation —
edge addition, merge, install, var removal by a blind write — updates
the index by key: O(1) for a fresh node (it carries the highest LSN),
O(log ready) to find a key plus a C-level shift to insert or delete it.
The cache manager picks its next install straight from
:attr:`ready_index`, so "which node may I flush next" never copies or
sorts the ready set; :meth:`installable_nodes` is the O(ready) ordered
copy for callers that want the nodes themselves.  A companion invariant
makes that sound: ``preds``/``succs`` of live nodes only ever contain
live node ids (merges and installs fix their neighbours eagerly), so
emptiness of ``preds`` *is* readiness.

``build_refined_graph`` replays a record sequence through a
``DynamicWriteGraph`` without installing anything, yielding the static rW
of a log — this is what the Figure 2 test compares against W.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import FlushOrderError, WriteGraphError
from repro.ids import LSN, PageId
from repro.ops.base import OperationKind
from repro.wal.records import LogRecord


class DynamicNode:
    """A live write-graph node: uninstalled ops and the vars to flush.

    Slotted (not a dataclass): nodes are created on every logged
    operation, so construction and attribute access are hot.  ``reads``
    mirrors the graph's ``_readers`` index so installing the node
    touches only its own entries instead of scanning every reader set.
    """

    __slots__ = ("node_id", "ops", "vars", "preds", "succs", "reads")

    def __init__(
        self,
        node_id: int,
        ops: Optional[List[LogRecord]] = None,
        vars: Optional[Set[PageId]] = None,
        preds: Optional[Set[int]] = None,
        succs: Optional[Set[int]] = None,
        reads: Optional[Set[PageId]] = None,
    ):
        self.node_id = node_id
        self.ops = [] if ops is None else ops
        self.vars = set() if vars is None else vars
        self.preds = set() if preds is None else preds
        self.succs = set() if succs is None else succs
        self.reads = set() if reads is None else reads

    @property
    def op_lsns(self) -> List[LSN]:
        return [r.lsn for r in self.ops]

    @property
    def first_lsn(self) -> LSN:
        return self.ops[0].lsn if self.ops else 0

    def writes(self) -> Set[PageId]:
        out: Set[PageId] = set()
        for record in self.ops:
            out |= record.op.writeset
        return out

    def __repr__(self):
        return (
            f"DNode({self.node_id}, ops={self.op_lsns}, "
            f"vars={sorted(map(str, self.vars))})"
        )


class DynamicWriteGraph:
    def __init__(self):
        self._nodes: Dict[int, DynamicNode] = {}
        self._ids = itertools.count(1)
        # page -> node currently holding page in its vars (disjoint sets).
        self._holder: Dict[PageId, int] = {}
        # page -> node ids with an op that read the page's *current* value.
        self._readers: Dict[PageId, Set[int]] = {}
        # Alias map for merged nodes (union-find style path compression).
        self._alias: Dict[int, int] = {}
        # Ready index: the (first_lsn, node_id) key of every live node
        # with no predecessors, sorted (callers read it, never write);
        # each ready node's current key (a merge can lower it); and the
        # ready nodes whose vars are empty (installable without flushing).
        self.ready_index: List[Tuple[LSN, int]] = []
        self._ready_key: Dict[int, Tuple[LSN, int]] = {}
        self._ready_empty: Set[int] = set()

    # -------------------------------------------------------------- plumbing

    def _resolve(self, node_id: int) -> Optional[int]:
        alias = self._alias
        if node_id not in alias:  # live or gone, never aliased: no chase
            return node_id if node_id in self._nodes else None
        seen = []
        while node_id in alias:
            seen.append(node_id)
            node_id = alias[node_id]
        for s in seen:
            alias[s] = node_id
        return node_id if node_id in self._nodes else None

    def _resolve_set(self, ids: Iterable[int]) -> Set[int]:
        out = set()
        for node_id in ids:
            resolved = self._resolve(node_id)
            if resolved is not None:
                out.add(resolved)
        return out

    def node(self, node_id: int) -> DynamicNode:
        resolved = self._resolve(node_id)
        if resolved is None:
            raise WriteGraphError(f"node {node_id} no longer exists")
        return self._nodes[resolved]

    def nodes(self) -> List[DynamicNode]:
        return list(self._nodes.values())

    def holder_of(self, page: PageId) -> Optional[DynamicNode]:
        node_id = self._holder.get(page)
        if node_id is None:
            return None
        resolved = self._resolve(node_id)
        if resolved is None:
            del self._holder[page]
            return None
        self._holder[page] = resolved
        return self._nodes[resolved]

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------ ready index

    def _refresh_ready(self, node: DynamicNode) -> None:
        """Re-derive one live node's place in the ready index."""
        node_id = node.node_id
        if node.preds:
            self._unready(node_id)
            return
        key = (node.ops[0].lsn, node_id)
        old = self._ready_key.get(node_id)
        if old != key:
            index = self.ready_index
            if old is not None:
                del index[bisect_left(index, old)]
            insort(index, key)
            self._ready_key[node_id] = key
        if node.vars:
            self._ready_empty.discard(node_id)
        else:
            self._ready_empty.add(node_id)

    def _unready(self, node_id: int) -> None:
        key = self._ready_key.pop(node_id, None)
        if key is not None:
            del self.ready_index[bisect_left(self.ready_index, key)]
            self._ready_empty.discard(node_id)

    def _vars_shrunk(self, node: DynamicNode) -> None:
        """Called after pages were removed from a live node's vars."""
        if not node.vars and node.node_id in self._ready_key:
            self._ready_empty.add(node.node_id)

    # ---------------------------------------------------------- construction

    def add_operation(self, record: LogRecord) -> DynamicNode:
        """Incorporate a newly logged operation; returns its node."""
        if record.op.is_blind:
            return self._add_blind(record)
        return self._add_general(record)

    def _new_node(self, record: LogRecord, vars_: Set[PageId]) -> DynamicNode:
        # Takes ownership of ``vars_`` (callers pass a fresh set).  Built
        # via __new__ + direct slot stores: one node per logged operation
        # makes even the constructor's default-argument branches visible.
        node = DynamicNode.__new__(DynamicNode)
        node_id = next(self._ids)
        node.node_id = node_id
        node.ops = [record]
        node.vars = vars_
        node.preds = set()
        node.succs = set()
        node.reads = set()
        self._nodes[node_id] = node
        # A fresh node has no predecessors: immediately ready, and its
        # record is the newest logged, so its key sorts last.
        key = self._ready_key[node_id] = (record.lsn, node_id)
        self.ready_index.append(key)
        if not vars_:
            self._ready_empty.add(node_id)
        return node

    def _add_general(self, record: LogRecord) -> DynamicNode:
        op = record.op
        writeset = op.writeset
        node = self._new_node(record, set(writeset))

        # First collapse: merge with nodes already holding written pages.
        # Merging nodes with a pre-existing path between them would close
        # a cycle through the intermediate nodes, so the whole region
        # between them is collapsed as well (the second collapse applied
        # incrementally).
        holder = self._holder
        nodes = self._nodes
        to_merge: Set[int] = set()
        for page in writeset:
            holder_id = holder.get(page)
            if holder_id is None:
                continue
            if holder_id in nodes:  # common case: entry already live
                to_merge.add(holder_id)
                continue
            resolved = self._resolve(holder_id)
            if resolved is not None:
                to_merge.add(resolved)
        to_merge.discard(node.node_id)
        for other_id in to_merge:
            node = self._merge_collapsing(node.node_id, other_id)

        node_id = node.node_id
        for page in writeset:
            holder[page] = node_id

        # Read-write edges: every *uninstalled* reader of the page must
        # install before this node.  Readers stay registered until their
        # node installs — the installation-graph definition has no
        # adjacency restriction (readset(O) ∩ writeset(P) for ANY O < P),
        # and a later flush of the page destroys the value those readers'
        # replay needs just as surely as the first one does.
        readers_index = self._readers
        pending_edges: List[int] = []
        for page in writeset:
            if page in readers_index:
                for reader in self._live_readers(page):
                    if reader != node.node_id:
                        pending_edges.append(reader)
        # _add_edge_collapsing always returns the live (post-collapse)
        # destination node, so no re-resolution is needed afterwards.
        for src in pending_edges:
            node = self._add_edge_collapsing(src, node.node_id)

        # Register this operation's reads against the current values.
        node_id = node.node_id
        node_reads = node.reads
        for page in op.readset:
            entry = readers_index.get(page)
            if entry is None:
                readers_index[page] = {node_id}
            else:
                entry.add(node_id)
            node_reads.add(page)
        return node

    def _add_blind(self, record: LogRecord) -> DynamicNode:
        op = record.op
        (target,) = op.writeset
        # The target's previous value becomes unexposed: remove it from the
        # prior holder's flush set (the rW refinement, Figure 2).
        previous = self.holder_of(target)
        if previous is not None:
            previous.vars.discard(target)
            self._vars_shrunk(previous)
        node = self._new_node(record, {target})
        self._holder[target] = node.node_id
        if record.op.kind is OperationKind.IDENTITY:
            # An identity write does not change the value: readers of the
            # current value are unaffected, so no inverse write-read edges
            # are needed — and the readers stay registered so the *next*
            # real write still orders after them.
            return node
        # Inverse write-read edges: every uninstalled operation that read
        # any still-needed value of the target must install before this
        # blind write flushes over it.
        for reader in self._live_readers(target):
            if reader != node.node_id:
                node = self._add_edge_collapsing(reader, node.node_id)
        return node

    def _live_readers(self, page: PageId):
        """Live node ids registered as readers of ``page``.

        Compacts the stored set in place, so aliases of merged nodes do
        not accumulate across a long run.  Returns an iterable the caller
        must not mutate (a shared empty tuple when there are no readers).
        """
        readers = self._readers.get(page)
        if not readers:
            return ()
        nodes = self._nodes
        for node_id in readers:
            if node_id not in nodes:
                break
        else:
            return readers
        resolved = self._resolve_set(readers)
        self._readers[page] = set(resolved)
        return resolved

    # ----------------------------------------------------- edges and merging

    def _add_edge_collapsing(self, src: int, dst: int) -> DynamicNode:
        """Add edge src → dst; collapse the cycle if one is created."""
        src = self._resolve(src)
        dst = self._resolve(dst)
        if src is None or dst is None or src == dst:
            return self._nodes[dst] if dst is not None else None
        dst_node = self._nodes[dst]
        if src in dst_node.preds:
            return dst_node
        # A cycle needs a path dst ⇝ src, which requires dst to have
        # successors and src predecessors — skip the DFS when either is
        # trivially impossible (the common case for freshly added nodes).
        if dst_node.succs and self._nodes[src].preds and self._reachable(dst, src):
            # Adding src → dst closes a cycle: collapse everything on a
            # path dst ⇝ src together with src and dst (second collapse).
            region = self._nodes_between(dst, src)
            region |= {src, dst}
            it = iter(region)
            merged = next(it)
            for other in it:
                merged = self._merge(merged, other).node_id
            return self._nodes[merged]
        self._nodes[src].succs.add(dst)
        dst_node.preds.add(src)
        self._unready(dst)
        return dst_node

    def _reachable(self, start: int, goal: int) -> bool:
        # preds/succs of live nodes only contain live ids (merges and
        # installs fix neighbours eagerly), so no alias resolution here.
        stack, seen = [start], {start}
        nodes = self._nodes
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            for succ in nodes[current].succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    def _nodes_between(self, start: int, goal: int) -> Set[int]:
        """Nodes on some path start ⇝ goal (inclusive), via forward and
        backward reachability intersection."""
        forward = self._closure(start, lambda n: self._nodes[n].succs)
        backward = self._closure(goal, lambda n: self._nodes[n].preds)
        return forward & backward

    def _closure(self, start: int, neighbours) -> Set[int]:
        # Neighbour sets of live nodes hold only live ids; no resolution.
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for nxt in neighbours(current):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def _merge_collapsing(self, keep_id: int, other_id: int) -> DynamicNode:
        """Merge two nodes, collapsing any path between them first."""
        keep_id = self._resolve(keep_id)
        other_id = self._resolve(other_id)
        if keep_id == other_id:
            return self._nodes[keep_id]
        # Early-exit reachability probes before computing path regions:
        # in the common case the two nodes are unrelated and the region
        # is just the pair itself.  A path a ⇝ b needs a.succs and
        # b.preds to be non-empty, so most probes are skipped outright.
        keep, other = self._nodes[keep_id], self._nodes[other_id]
        region = {keep_id, other_id}
        if keep.succs and other.preds and self._reachable(keep_id, other_id):
            region |= self._nodes_between(keep_id, other_id)
        if other.succs and keep.preds and self._reachable(other_id, keep_id):
            region |= self._nodes_between(other_id, keep_id)
        it = iter(region)
        merged = next(it)
        for node_id in it:
            # _merge returns the live surviving node, so ``merged`` never
            # needs re-resolution between (or after) iterations.
            merged = self._merge(merged, node_id).node_id
        return self._nodes[merged]

    def _merge(self, keep_id: int, other_id: int) -> DynamicNode:
        keep_id = self._resolve(keep_id)
        other_id = self._resolve(other_id)
        if keep_id == other_id:
            return self._nodes[keep_id]
        keep, other = self._nodes[keep_id], self._nodes[other_id]
        # Splice the (individually sorted) op lists; fall back to a sort
        # only when the LSN ranges actually interleave.
        if not keep.ops:
            keep.ops = other.ops
        elif other.ops:
            if other.ops[0].lsn > keep.ops[-1].lsn:
                keep.ops.extend(other.ops)
            elif keep.ops[0].lsn > other.ops[-1].lsn:
                keep.ops[:0] = other.ops
            else:
                keep.ops.extend(other.ops)
                keep.ops.sort(key=lambda r: r.lsn)
        keep.vars |= other.vars
        keep.preds |= other.preds
        keep.succs |= other.succs
        keep.reads |= other.reads
        del self._nodes[other_id]
        self._alias[other_id] = keep_id
        self._unready(other_id)
        # Strip the merged pair's self references.  Neighbour sets of
        # live nodes only hold live ids, so after discarding the two
        # merged ids no alias resolution is needed.
        keep.preds.discard(keep_id)
        keep.preds.discard(other_id)
        keep.succs.discard(keep_id)
        keep.succs.discard(other_id)
        for pred in keep.preds:
            self._nodes[pred].succs.discard(other_id)
            self._nodes[pred].succs.add(keep_id)
        for succ in keep.succs:
            self._nodes[succ].preds.discard(other_id)
            self._nodes[succ].preds.add(keep_id)
        for page in keep.vars:
            self._holder[page] = keep_id
        self._refresh_ready(keep)
        return keep

    # ------------------------------------------------------------ installing

    def predecessors(self, node: DynamicNode) -> Set[int]:
        if not node.preds:
            return node.preds
        node.preds = self._resolve_set(node.preds) - {node.node_id}
        if node.node_id in self._nodes:
            # Keep the ready index honest if compaction emptied preds.
            self._refresh_ready(node)
        return node.preds

    def is_installable(self, node: DynamicNode) -> bool:
        return not self.predecessors(node)

    def installable_nodes(self) -> List[DynamicNode]:
        """Nodes with no predecessors, in increasing first-op LSN order.

        An O(ready) copy of the already ordered ready index; a caller
        that only needs to pick one node reads :attr:`ready_index`.
        """
        nodes = self._nodes
        return [nodes[node_id] for _, node_id in self.ready_index]

    def installable_empty_nodes(self) -> List[DynamicNode]:
        """Ready nodes with empty ``vars``: installable without a flush.

        The cache manager drains these eagerly after every install — the
        set is maintained incrementally, so the drain never rescans the
        graph.
        """
        return [self._nodes[nid] for nid in self._ready_empty]

    def install_node(self, node: DynamicNode) -> Set[PageId]:
        """Remove an installable node; returns the pages that were its vars.

        The caller is responsible for actually flushing (or having
        identity-logged) those pages.
        """
        node_id = self._resolve(node.node_id)
        if node_id is None:
            raise WriteGraphError(f"node {node.node_id} already installed")
        node = self._nodes[node_id]
        if self.predecessors(node):
            raise FlushOrderError(
                f"node {node_id} has uninstalled predecessors "
                f"{sorted(self.predecessors(node))}"
            )
        for succ in node.succs:
            succ_node = self._nodes.get(succ)
            if succ_node is None:
                continue
            succ_node.preds.discard(node_id)
            if not succ_node.preds:
                self._refresh_ready(succ_node)
        holder = self._holder
        for page in node.vars:
            if holder.get(page) == node_id:
                del holder[page]
        for page in node.reads:
            readers = self._readers.get(page)
            if readers is not None:
                readers.discard(node_id)
                if not readers:
                    del self._readers[page]
        del self._nodes[node_id]
        self._unready(node_id)
        # The node is gone from the graph; its vars set can be handed to
        # the caller without copying.
        return node.vars

    # ------------------------------------------------------------ inspection

    def check_acyclic(self) -> None:
        """Invariant check used by tests: the live graph has no cycle."""
        in_deg = {
            nid: len(self._resolve_set(n.preds) - {nid})
            for nid, n in self._nodes.items()
        }
        queue = [nid for nid, d in in_deg.items() if d == 0]
        seen = 0
        while queue:
            nid = queue.pop()
            seen += 1
            for succ in self._resolve_set(self._nodes[nid].succs):
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    queue.append(succ)
        if seen != len(self._nodes):
            raise WriteGraphError("dynamic write graph has a cycle")

    def vars_are_disjoint(self) -> bool:
        seen: Set[PageId] = set()
        for node in self._nodes.values():
            overlap = node.vars & seen
            if overlap:
                return False
            seen |= node.vars
        return True


def build_refined_graph(records: Sequence[LogRecord]) -> DynamicWriteGraph:
    """Static rW of a record sequence (no installs) — analysis/tests aid."""
    graph = DynamicWriteGraph()
    for record in records:
        graph.add_operation(record)
    graph.check_acyclic()
    return graph
