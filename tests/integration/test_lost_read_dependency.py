"""Pinned repro of the open silent-wrong-value bug (ROADMAP item 1).

``CopyOp(A, B)`` reads A; ``CopyOp(B, C)`` reads B.  While both are
still uninstalled, B's value is made unexposed — blindly overwritten, or
identity-installed — so the first copy's write-graph node loses its only
var, is drained as an empty node, and its read dependency on A goes with
it.  A can then be overwritten and flushed before C is.  After a crash,
redo re-executes the first copy against the *new* A and the second copy
rebuilds C from that: recovery returns a state that differs from the
oracle without quarantining anything.

All three tests are strict xfails: they document the bug, do not fix
it, and turn red (XPASS) the moment a fix lands, so whoever fixes it
deletes the markers.  The first two shrink the 60 000-op / 8 s repro of
servicebench/README.md ("Known failure") to five operations.  The third
needs neither a checkpoint, ``flush_page`` nor ``identity_install``:
six actions on the default flush path every servicebench workload uses
(``execute`` plus oldest-first ``install_some``), no backup involved.
"""

import pytest

from repro.db import Database
from repro.ids import PageId
from repro.ops.logical import CopyOp
from repro.ops.physical import PhysicalWrite
from repro.recovery.explain import diff_states

A, B, C = PageId(0, 0), PageId(0, 1), PageId(0, 2)


def crash_after(unexpose_b):
    """Run the five-op schedule, crash, recover; diffs vs the oracle."""
    db = Database([8], policy="general")
    db.execute(PhysicalWrite(A, 1))
    db.checkpoint()
    db.execute(CopyOp(A, B))  # reads A=1
    db.execute(CopyOp(B, C))  # reads B=1: C's only recovery source
    unexpose_b(db)
    db.execute(PhysicalWrite(A, 2))
    db.cm.flush_page(A)  # must not reach S before C does
    db.crash()
    outcome = db.recover(verify=False)
    assert not outcome.quarantined and not outcome.poisoned
    return diff_states(db.stable.snapshot(), db.oracle_state())


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: read dependency lost when the producer's "
    "node empties — today diffs == [(C, 2, 1)]",
)
def test_blind_overwrite_of_an_uninstalled_producers_page():
    assert crash_after(lambda db: db.execute(PhysicalWrite(B, 99))) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1, identity_install variant: the emptied "
    "producer is drained and recLSN advances past it — today "
    "diffs == [(C, None, 1)]",
)
def test_identity_install_of_an_uninstalled_producers_page():
    assert crash_after(lambda db: db.cm.identity_install(B)) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1, default flush path: B's blind overwrite "
    "empties CopyOp(A, B)'s node, so A=7 installs before C does and "
    "redo rebuilds C from it — today diffs == [(C, 7, None)]",
)
def test_oldest_first_installs_lose_the_read_dependency():
    db = Database([8], policy="general")
    db.execute(CopyOp(A, B))  # reads A's initial value
    db.execute(PhysicalWrite(A, 7))
    db.execute(CopyOp(B, C))  # reads B: C's only recovery source
    db.execute(PhysicalWrite(B, 10))
    db.install_some(1)
    db.install_some(1)
    db.crash()
    outcome = db.recover(verify=False)
    assert not outcome.quarantined and not outcome.poisoned
    assert diff_states(db.stable.snapshot(), db.oracle_state()) == []
