"""Which ready write-graph node ``install_some`` installs next.

Without an ``rng`` the cache manager drains the ready index oldest first
(lowest first LSN), like a flush list ordered by oldest modification, so
the crash-redo start (the minimum recLSN) advances with every install.
With an ``rng`` each pick is ``rng.choice`` over the ready index, which
the sampling harnesses rely on to explore install orders.
"""

import random

from repro.db import Database
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite

# Written in this order, one independent write-graph node each: node i
# holds SLOTS[i] and has first LSN i + 1.
SLOTS = [5, 2, 9, 0, 7, 12, 3, 14]

# install_some(5, random.Random(3)) on loaded_db(), as rng.choice over
# the ready index has always drawn it.
PINNED_RANDOM_3 = [[0], [12], [3], [2], [7]]


def loaded_db():
    db = Database(pages_per_partition=[16], policy="general")
    for slot in SLOTS:
        db.execute(PhysicalWrite(PageId(0, slot), f"v{slot}"))
    installed = []
    install_node = db.cm.install_node

    def recording(node):
        installed.append(sorted(page.slot for page in node.vars))
        install_node(node)

    db.cm.install_node = recording
    return db, installed


class TestOldestFirst:
    def test_installs_the_lowest_first_lsn_nodes_in_order(self):
        db, installed = loaded_db()
        assert db.install_some(3) == 3
        assert installed == [[5], [2], [9]]
        assert db.install_some(2) == 2
        assert installed == [[5], [2], [9], [0], [7]]
        assert sorted(page.slot for page in db.cm.dirty_pages()) == [3, 12, 14]

    def test_each_install_advances_the_truncation_point(self):
        db, _ = loaded_db()
        assert db.cm.stable_truncation_point == 1
        for installed in range(1, len(SLOTS)):
            db.install_some(1)
            # The oldest dirty page is the next one written.
            assert db.cm.stable_truncation_point == installed + 1

    def test_oldest_node_with_a_predecessor_waits_its_turn(self):
        db = Database(pages_per_partition=[16], policy="general")
        a, b, c = PageId(0, 1), PageId(0, 2), PageId(0, 3)
        db.execute(PhysicalWrite(a, ("a1",)))                 # lsn 1
        db.execute(PhysicalWrite(b, "b1"))                    # lsn 2
        db.execute(CopyOp(a, c))                              # lsn 3
        # Rewriting a after c copied it: a's node (first LSN 1) must
        # wait for c's, so the oldest *ready* node is b's.
        db.execute(PhysiologicalWrite(a, "stamp", ("t",)))    # lsn 4
        dirty = db.cm.dirty_pages
        db.install_some(1)
        assert sorted(page.slot for page in dirty()) == [1, 3]
        db.install_some(1)
        assert sorted(page.slot for page in dirty()) == [1]
        assert db.cm.stable_truncation_point == 1
        db.install_some(1)
        assert not dirty()

    def test_count_past_the_ready_set_installs_everything(self):
        db, installed = loaded_db()
        assert db.install_some(100) == len(SLOTS)
        assert installed == [[slot] for slot in SLOTS]
        assert db.install_some(1) == 0

    def test_no_random_generator_is_built(self, monkeypatch):
        # The default order is deterministic; constructing (seeding) a
        # generator per call cost ~9 us ahead of every install.
        def forbidden(self, *args, **kwargs):
            raise AssertionError("install_some seeded a random.Random")

        db, installed = loaded_db()
        monkeypatch.setattr(random.Random, "seed", forbidden)
        assert db.install_some(2) == 2
        assert installed == [[5], [2]]


class TestCallerRng:
    def test_rng_choice_order_is_unchanged(self):
        # Pinned from the random-choice implementation this order
        # replaced as the default: a caller passing its own rng gets
        # exactly the same install sequence.
        db, installed = loaded_db()
        assert db.install_some(5, random.Random(3)) == 5
        assert installed == PINNED_RANDOM_3
