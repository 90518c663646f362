"""Integration: the bank-transfer invariant under failures.

Money moves between accounts via atomic transactions; whatever fails —
crash between transactions, crash with an unforced log tail, total
media failure during an online backup — the recovered total balance
must equal the initial total.  A partial transfer surviving recovery
would be the classic atomicity bug.
"""

import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.txn import TransactionManager

ACCOUNTS = 16
OPENING_BALANCE = 100


def account(index):
    return PageId(0, index)


def open_bank(auto_force=True):
    db = Database(
        pages_per_partition=[ACCOUNTS + 8],
        policy="general",
        auto_force_log=auto_force,
    )
    txns = TransactionManager(db)
    with txns.begin("open-accounts") as txn:
        for index in range(ACCOUNTS):
            txn.execute(PhysicalWrite(account(index), OPENING_BALANCE))
    return db, txns


def transfer(txns, src, dst, amount, name):
    with txns.begin(name) as txn:
        txn.execute(
            PhysiologicalWrite(account(src), "increment", (-amount,))
        )
        txn.execute(
            PhysiologicalWrite(account(dst), "increment", (amount,))
        )


def total_balance(state_reader):
    return sum(state_reader(account(i)) for i in range(ACCOUNTS))


class TestBankInvariant:
    @pytest.mark.parametrize("seed", range(5))
    def test_total_preserved_across_crash(self, seed):
        db, txns = open_bank()
        rng = random.Random(seed)
        for step in range(60):
            src, dst = rng.sample(range(ACCOUNTS), 2)
            transfer(txns, src, dst, rng.randrange(1, 20), f"t{step}")
            if rng.random() < 0.2:
                db.install_some(1, rng)
        db.crash()
        assert db.recover().ok
        recovered_total = total_balance(
            lambda pid: db.stable.read_page(pid).value
        )
        assert recovered_total == ACCOUNTS * OPENING_BALANCE

    def test_unforced_tail_drops_whole_transactions(self):
        """With a lazy log, a crash loses the unforced tail — but commit
        forces, so every surviving prefix is transaction-aligned."""
        db, txns = open_bank(auto_force=False)
        rng = random.Random(7)
        for step in range(20):
            src, dst = rng.sample(range(ACCOUNTS), 2)
            transfer(txns, src, dst, 10, f"t{step}")
        # Raw (non-transactional) half-transfer that never gets forced:
        db.execute(
            PhysiologicalWrite(account(0), "increment", (-50,)),
            source="raw",
        )
        lost = db.crash()
        assert lost == 1  # exactly the dangling half-transfer
        assert db.recover().ok
        total = total_balance(lambda pid: db.stable.read_page(pid).value)
        assert total == ACCOUNTS * OPENING_BALANCE

    @pytest.mark.parametrize("seed", range(3))
    def test_total_preserved_across_media_failure(self, seed):
        db, txns = open_bank()
        rng = random.Random(seed)
        db.start_backup(BackupConfig(steps=8))
        step = 0
        while db.backup_in_progress():
            db.backup_step(2)
            src, dst = rng.sample(range(ACCOUNTS), 2)
            transfer(txns, src, dst, rng.randrange(1, 20), f"t{step}")
            db.install_some(2, rng)
            step += 1
        for extra in range(10):
            src, dst = rng.sample(range(ACCOUNTS), 2)
            transfer(txns, src, dst, 5, f"post{extra}")
        db.media_failure()
        assert db.media_recover().ok
        total = total_balance(lambda pid: db.stable.read_page(pid).value)
        assert total == ACCOUNTS * OPENING_BALANCE

    def test_selective_redo_preserves_totals_of_kept_history(self):
        """Excluding a rogue teller's transfers keeps the books balanced
        — the taint closure removes whole transfers, never halves."""
        db, txns = open_bank()
        db.checkpoint()
        db.start_backup(BackupConfig(steps=4))
        backup = db.run_backup(BackupConfig(pages_per_tick=16))
        rng = random.Random(1)
        for step in range(12):
            src, dst = rng.sample(range(ACCOUNTS), 2)
            name = "rogue" if step % 3 == 0 else f"teller{step}"
            transfer(txns, src, dst, 7, name)
        result = db.selective_recover("rogue", backup=backup, transactional=True)
        assert result.ok
        total = total_balance(lambda pid: db.stable.read_page(pid).value)
        assert total == ACCOUNTS * OPENING_BALANCE
        assert result.analysis.directly_corrupt  # it did exclude some
