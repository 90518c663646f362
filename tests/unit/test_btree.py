"""Unit tests for the B+-tree."""

import random

import pytest

from repro.btree import BTree
from repro.btree.ops import (
    BTreeInsert,
    BTreeSplitMove,
    BTreeSplitRemove,
    node_records,
    node_value,
)
from repro.db import Database
from repro.errors import OperationError, ReproError
from repro.ids import PageId


@pytest.fixture
def db():
    return Database(pages_per_partition=[128], policy="tree")


@pytest.fixture
def tree(db):
    return BTree(db, order=4, logging="tree").create()


class TestBasics:
    def test_empty_tree(self, tree):
        assert tree.search(1) is None
        assert list(tree.items()) == []
        assert tree.height() == 1
        assert tree.check_invariants() == 0

    def test_insert_and_search(self, tree):
        tree.insert(5, "five")
        assert tree.search(5) == "five"
        assert tree.search(6) is None

    def test_overwrite(self, tree):
        tree.insert(5, "a")
        tree.insert(5, "b")
        assert tree.search(5) == "b"
        assert tree.check_invariants() == 1

    def test_items_sorted(self, tree):
        for key in (5, 1, 3, 2, 4):
            tree.insert(key, key * 10)
        assert [k for k, _ in tree.items()] == [1, 2, 3, 4, 5]


class TestSplits:
    def test_leaf_split_grows_height(self, tree):
        for key in range(6):
            tree.insert(key, key)
        assert tree.height() == 2
        assert tree.check_invariants() == 6

    def test_many_keys_random_order(self, db):
        tree = BTree(db, order=4, logging="tree").create()
        rng = random.Random(3)
        keys = list(range(150))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, ("p", key))
        assert tree.check_invariants() == 150
        for key in (0, 42, 149):
            assert tree.search(key) == ("p", key)

    def test_sequential_and_reverse_insertion(self, db):
        for order_keys in (range(60), reversed(range(60))):
            tree = BTree(
                db, first_slot=0, order=4, logging="tree"
            ).create()
            for key in order_keys:
                tree.insert(key, key)
            assert tree.check_invariants() == 60
            db = Database(pages_per_partition=[128], policy="tree")

    def test_page_logging_mode_equivalent(self):
        results = {}
        for mode in ("tree", "page"):
            db = Database(pages_per_partition=[128], policy="page-oriented")
            tree = BTree(db, order=4, logging=mode).create()
            rng = random.Random(9)
            keys = list(range(100))
            rng.shuffle(keys)
            for key in keys:
                tree.insert(key, key)
            results[mode] = list(tree.items())
        assert results["tree"] == results["page"]

    def test_capacity_exhaustion(self):
        db = Database(pages_per_partition=[8], policy="tree")
        tree = BTree(db, order=2, logging="tree").create()
        with pytest.raises(OperationError):
            for key in range(100):
                tree.insert(key, key)


class TestAttach:
    def test_attach_existing(self, db, tree):
        tree.insert(1, "one")
        reopened = BTree.attach(db, order=4)
        assert reopened.search(1) == "one"

    def test_attach_unformatted_rejected(self, db):
        with pytest.raises(ReproError):
            BTree.attach(db, partition=0, first_slot=50)

    def test_bad_logging_mode_rejected(self, db):
        with pytest.raises(ReproError):
            BTree(db, logging="quantum")


class TestBTreeOps:
    def test_split_move_on_tagged_values(self):
        old, new = PageId(0, 1), PageId(0, 2)
        value = node_value("leaf", ((1, "a"), (2, "b"), (3, "c")))
        op = BTreeSplitMove(old, 2, new)
        result = op.apply({old: value})
        assert result[new] == ("leaf", ((3, "c"),))

    def test_split_remove_keeps_low(self):
        old = PageId(0, 1)
        value = node_value("leaf", ((1, "a"), (2, "b"), (3, "c")))
        op = BTreeSplitRemove(old, 2)
        assert op.apply({old: value})[old] == ("leaf", ((1, "a"), (2, "b")))

    def test_insert_op(self):
        page = PageId(0, 1)
        op = BTreeInsert(page, 2, "b")
        result = op.apply({page: node_value("leaf", ((1, "a"),))})
        assert result[page] == ("leaf", ((1, "a"), (2, "b")))

    def test_node_records_defensive(self):
        assert node_records("garbage") == ()
        assert node_records(("leaf", ((1, "a"),))) == ((1, "a"),)

    def test_split_logging_sizes(self):
        """The tree-class split logs no record data; the page-oriented
        image grows with the page contents."""
        old, new = PageId(0, 1), PageId(0, 2)
        move = BTreeSplitMove(old, 2, new)
        assert move.log_record_size() < 64
