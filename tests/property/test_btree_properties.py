"""Property-based tests: B-tree vs a dict model, with recovery."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.btree import BTree
from repro.core.config import BackupConfig
from repro.db import Database

keys = st.integers(0, 500)
key_value_lists = st.lists(
    st.tuples(keys, st.integers(0, 10_000)), min_size=0, max_size=80
)


def build(pairs, order=4, logging="tree"):
    db = Database(pages_per_partition=[256], policy="tree")
    tree = BTree(db, order=order, logging=logging).create()
    model = {}
    for key, value in pairs:
        tree.insert(key, value)
        model[key] = value
    return db, tree, model


class TestModelConformance:
    @given(key_value_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, pairs):
        _, tree, model = build(pairs)
        assert dict(tree.items()) == model
        assert tree.check_invariants() == len(model)
        for key, value in model.items():
            assert tree.search(key) == value

    @given(key_value_lists, st.sampled_from([2, 3, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_any_order_parameter(self, pairs, order):
        _, tree, model = build(pairs, order=order)
        assert dict(tree.items()) == model

    @given(key_value_lists)
    @settings(max_examples=30, deadline=None)
    def test_logging_modes_agree(self, pairs):
        _, tree_logical, _ = build(pairs, logging="tree")
        _, tree_page, _ = build(pairs, logging="page")
        assert list(tree_logical.items()) == list(tree_page.items())


class TestChurnConformance:
    @given(
        st.lists(
            st.tuples(st.booleans(), keys, st.integers(0, 1000)),
            min_size=0,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_insert_delete_churn_matches_model(self, actions):
        db = Database(pages_per_partition=[256], policy="general")
        tree = BTree(db, order=4, logging="tree").create()
        model = {}
        for is_delete, key, value in actions:
            if is_delete:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
            else:
                tree.insert(key, value)
                model[key] = value
        assert dict(tree.items()) == model
        assert tree.check_invariants() == len(model)

    @given(
        st.lists(
            st.tuples(st.booleans(), keys, st.integers(0, 1000)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_churn_crash_recovery(self, actions):
        db = Database(pages_per_partition=[256], policy="general")
        tree = BTree(db, order=4, logging="tree").create()
        model = {}
        for is_delete, key, value in actions:
            if is_delete:
                if tree.delete(key):
                    del model[key]
            else:
                tree.insert(key, value)
                model[key] = value
        db.crash()
        assert db.recover().ok
        reopened = BTree.attach(db, order=4)
        assert dict(reopened.items()) == model


class TestRecoveryConformance:
    @given(key_value_lists)
    @settings(max_examples=40, deadline=None)
    def test_crash_recovery_preserves_tree(self, pairs):
        db, tree, model = build(pairs)
        db.crash()
        assert db.recover().ok
        reopened = BTree.attach(db, order=4)
        assert dict(reopened.items()) == model
        assert reopened.check_invariants() == len(model)

    @given(key_value_lists, st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_online_backup_media_recovery(self, pairs, backup_at):
        """Take a backup mid-insert-stream; media recovery must yield
        the final tree."""
        db = Database(pages_per_partition=[256], policy="tree")
        tree = BTree(db, order=4, logging="tree").create()
        model = {}
        started = sealed = False
        for i, (key, value) in enumerate(pairs):
            if not started and i >= backup_at:
                db.start_backup(BackupConfig(steps=4))
                started = True
            tree.insert(key, value)
            model[key] = value
            if started and db.backup_in_progress():
                db.backup_step(8)
        if not started:
            db.start_backup(BackupConfig(steps=4))
        while db.backup_in_progress():
            db.backup_step(16)
        db.media_failure()
        outcome = db.media_recover()
        assert outcome.ok, outcome.diffs[:3]
        reopened = BTree.attach(db, order=4)
        assert dict(reopened.items()) == model
