"""The oracle: a shadow copy of the logical database state.

The oracle applies every logged operation, in log order, to a plain
value map the moment the operation is appended.  It is the ground truth
recovery outcomes are compared against: after a crash or media failure,
correct recovery must reproduce the oracle state exactly.

It also doubles as an execution cross-check: operation effects computed by
the cache manager and by the oracle must agree (they share the operation's
pure ``compute``), so any nondeterminism in a transform would surface as
an immediate test failure rather than a confusing recovery diff.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.ids import PageId
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord


class Oracle:
    def __init__(self, log: LogManager, initial_value: Any = None):
        self._state: Dict[PageId, Any] = {}
        self._initial = initial_value
        self._applied_through = 0
        log.on_append(self.apply_record)

    def apply_record(self, record: LogRecord) -> None:
        lsn = record.lsn
        if lsn != self._applied_through + 1:
            raise AssertionError(
                f"oracle saw LSN {lsn}, expected {self._applied_through + 1}"
            )
        op = record.op
        readset = op.readset
        state = self._state
        if readset:
            get = state.get
            initial = self._initial
            reads = {pid: get(pid, initial) for pid in readset}
        else:
            reads = {}
        # ``compute`` directly rather than the checked ``apply``: the reads
        # dict is built from op.readset above (check_reads is vacuous), and
        # the cache manager validated this same record's operation against
        # its read/write sets when it executed it.
        state.update(op.compute(reads))
        self._applied_through = lsn

    def rebuild(self, log: LogManager) -> None:
        """Recompute the oracle from the log's current contents.

        Used after a crash simulation discards the unflushed log tail:
        operations that never became durable never happened.
        """
        self._state = {}
        self._applied_through = 0
        for record in log.scan():
            self.apply_record(record)

    def value(self, page: PageId) -> Any:
        return self._state.get(page, self._initial)

    def state(self) -> Dict[PageId, Any]:
        return dict(self._state)

    @property
    def applied_through(self) -> int:
        return self._applied_through


def oracle_state_at(
    log: LogManager, to_lsn: int, initial_value: Any = None
) -> Dict[PageId, Any]:
    """The logical database state after applying records 1..to_lsn.

    Standalone recomputation (no listener registration) for comparing
    recovery outcomes at historical points.
    """
    state: Dict[PageId, Any] = {}
    for record in log.scan(1, to_lsn):
        op = record.op
        reads = {pid: state.get(pid, initial_value) for pid in op.readset}
        for pid, value in op.apply(reads).items():
            state[pid] = value
    return state
