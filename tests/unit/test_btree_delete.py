"""Unit tests for B-tree deletion and rebalancing."""

import random

import pytest

from repro.btree import BTree, BTreeBorrow, BTreeMergeInto
from repro.btree.ops import node_value
from repro.core.config import BackupConfig
from repro.db import Database
from repro.errors import OperationError
from repro.ids import PageId


@pytest.fixture
def db():
    return Database(pages_per_partition=[256], policy="general")


@pytest.fixture
def tree(db):
    return BTree(db, order=4, logging="tree").create()


class TestDeleteBasics:
    def test_delete_existing_key(self, tree):
        tree.insert(1, "a")
        assert tree.delete(1)
        assert tree.search(1) is None
        assert tree.check_invariants() == 0

    def test_delete_missing_key(self, tree):
        tree.insert(1, "a")
        assert not tree.delete(2)
        assert tree.check_invariants() == 1

    def test_delete_from_empty_tree(self, tree):
        assert not tree.delete(1)

    def test_reinsert_after_delete(self, tree):
        tree.insert(1, "a")
        tree.delete(1)
        tree.insert(1, "b")
        assert tree.search(1) == "b"


class TestRebalancing:
    def _filled(self, tree, count=40):
        for key in range(count):
            tree.insert(key, ("v", key))
        return tree

    def test_delete_everything(self, tree):
        self._filled(tree)
        for key in range(40):
            assert tree.delete(key)
        assert tree.check_invariants() == 0
        assert list(tree.items()) == []

    def test_delete_everything_reverse(self, tree):
        self._filled(tree)
        for key in reversed(range(40)):
            assert tree.delete(key)
        assert tree.check_invariants() == 0

    def test_height_shrinks_after_mass_delete(self, tree):
        self._filled(tree, 60)
        tall = tree.height()
        for key in range(55):
            tree.delete(key)
        assert tree.height() < tall
        assert tree.check_invariants() == 5

    def test_merges_recycle_slots(self, tree):
        self._filled(tree, 60)
        _, _, freed_before = tree._meta_full()
        for key in range(50):
            tree.delete(key)
        _, _, freed_after = tree._meta_full()
        assert len(freed_after) > len(freed_before)
        # Recycled slots are reused by later splits.
        for key in range(100, 160):
            tree.insert(key, key)
        assert tree.check_invariants() == 70

    def test_random_churn_matches_model(self, db):
        tree = BTree(db, order=5, logging="tree").create()
        rng = random.Random(11)
        model = {}
        for step in range(600):
            if model and rng.random() < 0.45:
                key = rng.choice(sorted(model))
                assert tree.delete(key)
                del model[key]
            else:
                key = rng.randrange(200)
                tree.insert(key, ("v", key, step))
                model[key] = ("v", key, step)
            if step % 97 == 0:
                assert dict(tree.items()) == model
        assert tree.check_invariants() == len(model)

    def test_page_logging_mode_agrees(self):
        def churn(mode):
            db = Database(pages_per_partition=[256], policy="general")
            tree = BTree(db, order=5, logging=mode).create()
            rng = random.Random(13)
            for key in range(80):
                tree.insert(key, key)
            for key in rng.sample(range(80), 60):
                tree.delete(key)
            return list(tree.items())

        assert churn("tree") == churn("page")


class TestDeleteRecovery:
    def test_crash_recovery_after_churn(self, db, tree):
        rng = random.Random(3)
        model = {}
        for key in range(60):
            tree.insert(key, key)
            model[key] = key
        for key in rng.sample(range(60), 45):
            tree.delete(key)
            del model[key]
        db.crash()
        assert db.recover().ok
        reopened = BTree.attach(db, order=4)
        assert dict(reopened.items()) == model

    def test_online_backup_during_deletes(self, db, tree):
        rng = random.Random(4)
        for key in range(80):
            tree.insert(key, key)
        db.start_backup(BackupConfig(steps=4))
        doomed = iter(rng.sample(range(80), 60))
        while db.backup_in_progress():
            db.backup_step(8)
            for _ in range(3):
                key = next(doomed, None)
                if key is not None:
                    tree.delete(key)
            db.install_some(2, rng)
        for key in doomed:
            tree.delete(key)
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok, outcome.diffs[:3]
        reopened = BTree.attach(db, order=4)
        assert reopened.check_invariants() == 20


class TestStructuralOps:
    def test_merge_op_combines_records(self):
        src, dst = PageId(0, 1), PageId(0, 2)
        op = BTreeMergeInto(src, dst)
        result = op.apply({
            src: node_value("leaf", ((1, "a"),)),
            dst: node_value("leaf", ((5, "e"),)),
        })
        assert result[dst] == ("leaf", ((1, "a"), (5, "e")))
        assert op.readset == {src, dst}
        assert op.writeset == {dst}

    def test_merge_requires_distinct_pages(self):
        with pytest.raises(OperationError):
            BTreeMergeInto(PageId(0, 1), PageId(0, 1))

    def test_borrow_moves_low_records(self):
        src, dst = PageId(0, 1), PageId(0, 2)
        op = BTreeBorrow(src, dst, count=2, from_low=True)
        result = op.apply({
            src: node_value("leaf", ((5, "e"), (6, "f"), (7, "g"))),
            dst: node_value("leaf", ((1, "a"),)),
        })
        assert result[dst] == ("leaf", ((1, "a"), (5, "e"), (6, "f")))
        assert result[src] == ("leaf", ((7, "g"),))
        # Two pages read AND written: an atomic two-page flush set.
        assert op.writeset == {src, dst}

    def test_borrow_moves_high_records(self):
        src, dst = PageId(0, 1), PageId(0, 2)
        op = BTreeBorrow(src, dst, count=1, from_low=False)
        result = op.apply({
            src: node_value("leaf", ((1, "a"), (2, "b"))),
            dst: node_value("leaf", ((5, "e"),)),
        })
        assert result[dst] == ("leaf", ((2, "b"), (5, "e")))
        assert result[src] == ("leaf", ((1, "a"),))

    def test_borrow_validation(self):
        with pytest.raises(OperationError):
            BTreeBorrow(PageId(0, 1), PageId(0, 1), 1, True)
        with pytest.raises(OperationError):
            BTreeBorrow(PageId(0, 1), PageId(0, 2), 0, True)

    def test_borrow_creates_multi_page_atomic_flush(self, db):
        """The borrow's write-graph node carries both pages; installing
        it is one atomic two-page stable write."""
        from repro.ops.physical import PhysicalWrite

        a, b = PageId(0, 1), PageId(0, 2)
        db.execute(PhysicalWrite(a, node_value("leaf", ((1, "x"), (2, "y")))))
        db.execute(PhysicalWrite(b, node_value("leaf", ())))
        db.execute(BTreeBorrow(a, b, 1, from_low=True))
        node = db.cm.graph.holder_of(a)
        assert node.vars == {a, b}
        before = db.stable.multi_page_flushes
        db.cm.install_node(node)
        assert db.stable.multi_page_flushes == before + 1
