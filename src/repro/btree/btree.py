"""A page-based B+-tree over a :class:`~repro.db.Database`.

Layout: the tree owns a contiguous slot range of one partition.  Slot 0
of the range is the *meta page* ``("meta", root_slot, next_free_slot)``;
node pages are tagged ``("leaf"|"int", records)`` (see
:mod:`repro.btree.ops`).  Every structural change — inserts, splits,
allocations, root growth — is a logged operation executed through the
database, so the tree is fully crash- and media-recoverable: after
recovery, :meth:`BTree.attach` re-reads the meta page and continues.

Internal-node convention: an entry ``(k, child_slot)`` routes keys
``<= k`` to that child; the right-most entry uses the ``INF`` sentinel.

``logging="tree"`` logs splits as the MovRec/RmvRec tree-operation pair
(no record data on the log); ``logging="page"`` logs the new node's whole
initial image physically — the byte-for-byte comparison of the paper's
section 1.1 / section 4.1 discussion.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.btree.ops import (
    INTERNAL,
    LEAF,
    BTreeBorrow,
    BTreeDelete,
    BTreeDeleteEntry,
    BTreeInit,
    BTreeInsert,
    BTreeMergeInto,
    BTreeSetSeparator,
    BTreeSplitMove,
    BTreeSplitParent,
    BTreeSplitRemove,
    node_kind,
    node_records,
    node_value,
)
from repro.errors import OperationError, ReproError
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite

INF = float("inf")

_LOGGING_MODES = ("tree", "page")


class BTree:
    """A B+-tree with logically (or page-oriented) logged splits."""

    def __init__(
        self,
        db,
        partition: int = 0,
        first_slot: int = 0,
        capacity: Optional[int] = None,
        order: int = 8,
        logging: str = "tree",
    ):
        if logging not in _LOGGING_MODES:
            raise ReproError(
                f"logging must be one of {_LOGGING_MODES}, got {logging!r}"
            )
        if order < 2:
            raise ReproError(f"order must be >= 2, got {order}")
        self.db = db
        self.partition = partition
        self.first_slot = first_slot
        size = db.layout.partition_size(partition)
        self.capacity = capacity if capacity is not None else size - first_slot
        if first_slot + self.capacity > size:
            raise ReproError("B-tree slot range exceeds the partition")
        self.order = order
        self.logging = logging

    # ------------------------------------------------------------- lifecycle

    @property
    def meta_page(self) -> PageId:
        return PageId(self.partition, self.first_slot)

    def _page(self, slot: int) -> PageId:
        return PageId(self.partition, slot)

    def create(self) -> "BTree":
        """Format the meta page and an empty root leaf."""
        root_slot = self.first_slot + 1
        self.db.execute(BTreeInit(self._page(root_slot), LEAF))
        self.db.execute(
            PhysicalWrite(self.meta_page, ("meta", root_slot, root_slot + 1))
        )
        return self

    @classmethod
    def attach(
        cls,
        db,
        partition: int = 0,
        first_slot: int = 0,
        capacity: Optional[int] = None,
        order: int = 8,
        logging: str = "tree",
    ) -> "BTree":
        """Re-open an existing tree (e.g. after recovery)."""
        tree = cls(db, partition, first_slot, capacity, order, logging)
        meta = db.read(tree.meta_page)
        if not (isinstance(meta, tuple) and meta and meta[0] == "meta"):
            raise ReproError(
                f"no B-tree meta page at {tree.meta_page!r}: {meta!r}"
            )
        return tree

    def _meta(self) -> Tuple[int, int]:
        root, next_free, _ = self._meta_full()
        return root, next_free

    def _meta_full(self) -> Tuple[int, int, Tuple[int, ...]]:
        meta = self.db.read(self.meta_page)
        if not (
            isinstance(meta, tuple)
            and len(meta) in (3, 4)
            and meta[0] == "meta"
        ):
            raise ReproError(f"corrupt meta page: {meta!r}")
        freed = meta[3] if len(meta) == 4 else ()
        return meta[1], meta[2], freed

    def _set_meta(
        self,
        root_slot: int,
        next_free: int,
        freed: Tuple[int, ...] = (),
    ) -> None:
        self.db.execute(
            PhysicalWrite(
                self.meta_page, ("meta", root_slot, next_free, freed)
            )
        )

    def _alloc(self) -> int:
        root, next_free, freed = self._meta_full()
        if freed:
            self._set_meta(root, next_free, freed[1:])
            return freed[0]
        if next_free >= self.first_slot + self.capacity:
            raise OperationError("B-tree slot range exhausted")
        self._set_meta(root, next_free + 1, freed)
        return next_free

    def _free(self, slot: int) -> None:
        root, next_free, freed = self._meta_full()
        self._set_meta(root, next_free, freed + (slot,))

    # ----------------------------------------------------------------- reads

    def search(self, key: Any) -> Optional[Any]:
        """The payload stored under ``key``, or None."""
        slot = self._meta()[0]
        while True:
            value = self.db.read(self._page(slot))
            if node_kind(value) == LEAF:
                for k, payload in node_records(value):
                    if k == key:
                        return payload
                return None
            slot = self._route(node_records(value), key)

    @staticmethod
    def _route(entries: Tuple, key: Any) -> int:
        for k, child in entries:
            if key <= k:
                return child
        raise ReproError(f"routing failed for key {key!r}: {entries!r}")

    def items(self, low: Any = None) -> Iterator[Tuple[Any, Any]]:
        """The (key, payload) pairs in key order — all of them, or with
        ``low`` those with ``key >= low``, reached by one root-to-leaf
        seek rather than a walk from the first leaf."""
        root, _ = self._meta()
        yield from self._walk(root, low)

    def _walk(self, slot: int, low: Any) -> Iterator[Tuple[Any, Any]]:
        value = self.db.read(self._page(slot))
        if node_kind(value) == LEAF:
            if low is None:
                yield from node_records(value)
            else:
                yield from (r for r in node_records(value) if r[0] >= low)
            return
        for k, child in node_records(value):
            # A routing key is its subtree's largest possible key (see
            # _route): below ``low``, nothing under it is wanted — and
            # past the first subtree kept, everything is.
            if low is not None and k < low:
                continue
            yield from self._walk(child, low)
            low = None

    def height(self) -> int:
        slot = self._meta()[0]
        height = 1
        while True:
            value = self.db.read(self._page(slot))
            if node_kind(value) == LEAF:
                return height
            slot = node_records(value)[0][1]
            height += 1

    # ---------------------------------------------------------------- writes

    def insert(self, key: Any, payload: Any) -> None:
        """Insert (or overwrite) ``key``; splits full nodes on the way out."""
        root, _ = self._meta()
        # Descend, recording (slot, routed_key) per internal hop.
        path: List[Tuple[int, Any]] = []
        slot, routed = root, INF
        while True:
            value = self.db.read(self._page(slot))
            if node_kind(value) == LEAF:
                break
            path.append((slot, routed))
            entries = node_records(value)
            for k, child in entries:
                if key <= k:
                    slot, routed = child, k
                    break
            else:
                raise ReproError(f"routing failed inserting {key!r}")
        self.db.execute(BTreeInsert(self._page(slot), key, payload))
        self._split_upward(slot, routed, path)

    def _split_upward(
        self, slot: int, routed: Any, path: List[Tuple[int, Any]]
    ) -> None:
        while True:
            value = self.db.read(self._page(slot))
            records = node_records(value)
            if len(records) <= self.order:
                return
            split_key = records[len(records) // 2 - 1][0]
            new_slot = self._alloc()
            self._log_split(slot, split_key, new_slot, value)
            if path:
                parent_slot, parent_routed = path.pop()
                self.db.execute(
                    BTreeSplitParent(
                        self._page(parent_slot),
                        routed,
                        split_key,
                        slot,
                        new_slot,
                    )
                )
                slot, routed = parent_slot, parent_routed
                continue
            # Root split: grow the tree by one level.
            new_root = self._alloc()
            self.db.execute(
                PhysicalWrite(
                    self._page(new_root),
                    node_value(
                        INTERNAL,
                        ((split_key, slot), (INF, new_slot)),
                    ),
                )
            )
            _, next_free, freed = self._meta_full()
            self._set_meta(new_root, next_free, freed)
            return

    def _log_split(
        self, old_slot: int, split_key: Any, new_slot: int, old_value
    ) -> None:
        old_page, new_page = self._page(old_slot), self._page(new_slot)
        if self.logging == "tree":
            # MovRec then RmvRec (MovRec must precede: the updated old no
            # longer contains the moved records).
            self.db.execute(BTreeSplitMove(old_page, split_key, new_page))
        else:
            kind = node_kind(old_value)
            image = node_value(
                kind,
                tuple(r for r in node_records(old_value) if r[0] > split_key),
            )
            self.db.execute(PhysicalWrite(new_page, image))
        self.db.execute(BTreeSplitRemove(old_page, split_key))

    # --------------------------------------------------------------- deletes

    @property
    def _min_fill(self) -> int:
        """Underflow threshold: nodes rebalance below this record count."""
        return max(1, self.order // 3)

    def delete(self, key: Any) -> bool:
        """Delete ``key``; rebalances underflowing nodes on the way up.

        Borrows between siblings are :class:`BTreeBorrow` operations
        (general logical: two pages read AND written — an atomic
        two-page flush set); merges are :class:`BTreeMergeInto` (general
        logical: read two, write one).  Returns False if absent.
        """
        root, _ = self._meta()
        path: List[Tuple[int, Any]] = []
        slot, routed = root, INF
        while True:
            value = self.db.read(self._page(slot))
            if node_kind(value) == LEAF:
                break
            path.append((slot, routed))
            for k, child in node_records(value):
                if key <= k:
                    slot, routed = child, k
                    break
            else:
                return False
        if all(k != key for k, _ in node_records(value)):
            return False
        self.db.execute(BTreeDelete(self._page(slot), key))
        self._rebalance_upward(slot, routed, path)
        return True

    def _rebalance_upward(
        self, slot: int, routed: Any, path: List[Tuple[int, Any]]
    ) -> None:
        while True:
            value = self.db.read(self._page(slot))
            records = node_records(value)
            if not path:
                # slot is the root: collapse single-child internal roots
                # (possibly several levels at once).
                while node_kind(value) == INTERNAL and len(records) == 1:
                    child = records[0][1]
                    _, next_free, freed = self._meta_full()
                    self._set_meta(child, next_free, freed + (slot,))
                    slot = child
                    value = self.db.read(self._page(slot))
                    records = node_records(value)
                return
            threshold = (
                self._min_fill
                if node_kind(value) == LEAF
                # Internal nodes with a single child are degenerate:
                # they must merge or borrow so chains collapse.
                else max(2, self._min_fill)
            )
            if len(records) >= threshold:
                return
            parent_slot, parent_routed = path[-1]
            parent_value = self.db.read(self._page(parent_slot))
            entries = node_records(parent_value)
            if len(entries) < 2:
                # No sibling to merge with or borrow from: the parent is
                # a transient single-child internal node.  Climb — the
                # root check collapses the chain when it reaches the top.
                path.pop()
                slot, routed = parent_slot, parent_routed
                continue
            index = entries.index((routed, slot))
            if index + 1 < len(entries):
                sibling_key, sibling_slot = entries[index + 1]
                sibling_on_right = True
            else:
                sibling_key, sibling_slot = entries[index - 1]
                sibling_on_right = False
            sibling_records = node_records(
                self.db.read(self._page(sibling_slot))
            )

            if len(records) + len(sibling_records) <= self.order:
                self._merge(
                    slot, routed, sibling_slot, sibling_key,
                    sibling_on_right, parent_slot,
                )
                path.pop()
                slot, routed = parent_slot, parent_routed
                continue

            self._borrow(
                slot, sibling_slot, sibling_key, sibling_records,
                sibling_on_right, parent_slot,
                need=threshold - len(records),
            )
            return

    def _merge(
        self, slot, routed, sibling_slot, sibling_key, sibling_on_right,
        parent_slot,
    ) -> None:
        """Merge the lower-separator node into the higher one; the
        higher separator keeps covering every merged key."""
        if sibling_on_right:
            src_slot, src_key, dst_slot = slot, routed, sibling_slot
        else:
            src_slot, src_key, dst_slot = sibling_slot, sibling_key, slot
        if self.logging == "tree":
            # Merge is outside the tree-op class; even in tree mode it
            # must be logged as a general logical op (or page-oriented).
            self.db.execute(
                BTreeMergeInto(self._page(src_slot), self._page(dst_slot))
            )
        else:
            src_value = self.db.read(self._page(src_slot))
            dst_value = self.db.read(self._page(dst_slot))
            merged = node_value(
                node_kind(dst_value),
                node_records(dst_value) + node_records(src_value),
            )
            self.db.execute(PhysicalWrite(self._page(dst_slot), merged))
        self.db.execute(
            BTreeDeleteEntry(self._page(parent_slot), src_key, src_slot)
        )
        self._free(src_slot)

    def _borrow(
        self, slot, sibling_slot, sibling_key, sibling_records,
        sibling_on_right, parent_slot, need,
    ) -> None:
        need = max(1, need)
        if self.logging == "tree":
            self.db.execute(
                BTreeBorrow(
                    self._page(sibling_slot),
                    self._page(slot),
                    need,
                    from_low=sibling_on_right,
                )
            )
        else:
            self._borrow_page_oriented(
                slot, sibling_slot, sibling_records, sibling_on_right, need
            )
        if sibling_on_right:
            # Our separator rises to the largest key we received.
            new_separator = sibling_records[need - 1][0]
            self.db.execute(
                BTreeSetSeparator(
                    self._page(parent_slot), slot, new_separator
                )
            )
        else:
            # The left sibling's separator shrinks to its new maximum.
            new_separator = sibling_records[-(need + 1)][0]
            self.db.execute(
                BTreeSetSeparator(
                    self._page(parent_slot), sibling_slot, new_separator
                )
            )

    def _borrow_page_oriented(
        self, slot, sibling_slot, sibling_records, sibling_on_right, need
    ) -> None:
        """Page-oriented baseline: both new images logged physically."""
        value = self.db.read(self._page(slot))
        moved = (
            sibling_records[:need]
            if sibling_on_right
            else sibling_records[-need:]
        )
        remaining = (
            sibling_records[need:]
            if sibling_on_right
            else sibling_records[:-need]
        )
        self.db.execute(
            PhysicalWrite(
                self._page(slot),
                node_value(node_kind(value), node_records(value) + moved),
            )
        )
        sibling_value = self.db.read(self._page(sibling_slot))
        self.db.execute(
            PhysicalWrite(
                self._page(sibling_slot),
                node_value(node_kind(sibling_value), remaining),
            )
        )

    # ------------------------------------------------------------ validation

    def check_invariants(self) -> int:
        """Validate ordering/routing; returns the number of keys."""
        root, next_free = self._meta()
        count, _, _ = self._check_subtree(root, INF)
        if next_free > self.first_slot + self.capacity:
            raise ReproError("allocation cursor beyond capacity")
        return count

    def _check_subtree(self, slot: int, upper: Any):
        value = self.db.read(self._page(slot))
        records = node_records(value)
        keys = [k for k, _ in records]
        if keys != sorted(keys):
            raise ReproError(f"unsorted node at slot {slot}: {keys!r}")
        if node_kind(value) == LEAF:
            for k in keys:
                if k > upper:
                    raise ReproError(
                        f"leaf key {k!r} above routing bound {upper!r}"
                    )
            return len(keys), keys[0] if keys else None, keys[-1] if keys else None
        total = 0
        for k, child in records:
            if k > upper and k is not INF:
                raise ReproError(
                    f"separator {k!r} above routing bound {upper!r}"
                )
            child_count, _, child_max = self._check_subtree(child, k)
            total += child_count
            if child_max is not None and child_max > k:
                raise ReproError(
                    f"child max {child_max!r} exceeds separator {k!r}"
                )
        return total, None, None
