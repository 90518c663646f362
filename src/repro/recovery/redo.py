"""The redo kernel and the LSN-order replayer (sections 2.1, 2.3).

Everything that replays the log funnels through **one kernel**,
:func:`apply_record`: the LSN redo test per write-set page — an operation
with LSN ``L`` is replayed against target page X iff ``page_lsn(X) < L``;
pages already carrying the operation's effect are left alone (state is
never reset) — then one ``op.apply`` over the read set.  The kernel
neither walks a log nor owns a state; it sees pages only through the
``version_of`` callable its caller hands it.  Two thin *schedulers*
decide which record runs when and where its effect lands:

* :class:`RedoReplayer` (this module) — the slice in LSN order;
* the instant-restore slice evaluator
  (:mod:`repro.recovery.instant_restore`) — on demand, memoized, only
  the records a requested page depends on (single-page restores).

The contract of both is a serial-equivalent outcome: every page version
as if every record ran through the kernel in LSN order.

Replay is deliberately tolerant of garbage inputs: a page that was removed
from a flush set because it became *unexposed* can hold a stale value that
a replayed logical operation reads.  The framework guarantees any page
whose replayed value could be wrong is overwritten by a later logged
physical/identity record; if a transform raises anyway the target is
poisoned with :data:`POISON` and correctness is judged at the end.  A
poison value that survives to the end of replay is precisely the paper's
"B cannot be successfully recovered" outcome of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Tuple,
)

from repro.ids import NULL_LSN, PageId
from repro.obs.events import REDO_OP
from repro.obs.tracer import NULL_TRACER
from repro.storage.page import PageVersion
from repro.wal.records import LogRecord


class _Poison:
    """Sentinel marking a page whose replayed value is unrecoverable."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<POISON>"


POISON = _Poison()

#: Records pulled from the log scan per block: ``islice`` blocks consume
#: the scan generator at C speed and count ``records_seen`` per block.
REPLAY_CHUNK = 256

#: What the kernel returns for a replayed record: the ``{page: version}``
#: it rewrote (the stale write-set pages, in write-set order) and whether
#: the transform raised (every version then carries :data:`POISON`).
#: ``None`` stands for a record the redo test skipped.
Replayed = Tuple[Dict[PageId, PageVersion], bool]


def apply_record(
    record: LogRecord, version_of: Callable[[PageId], PageVersion]
) -> Optional[Replayed]:
    """Redo one record against the pages ``version_of`` exposes.

    ``version_of(page)`` must return the page's version as this record
    would observe it in LSN order.  The returned versions bypass value
    checking, so POISON and arbitrary replay results are stored as-is
    for the final verification to see.  A replay is *partial* when the
    effect is smaller than the write set.
    """
    op = record.op
    lsn = record.lsn
    stale = [page for page in op.writeset if version_of(page).page_lsn < lsn]
    if not stale:
        return None
    reads = {page: version_of(page).value for page in op.readset}
    poisoned = False
    try:
        result = op.apply(reads)
    except Exception:
        result = dict.fromkeys(stale, POISON)
        poisoned = True
    effect: Dict[PageId, PageVersion] = {}
    for page in stale:
        version = effect[page] = PageVersion.__new__(PageVersion)
        object.__setattr__(version, "value", result[page])
        object.__setattr__(version, "page_lsn", lsn)
    return effect, poisoned


#: How replay reads a page it has not written: the page's version in the
#: base image, ``None`` where the base holds nothing.
BaseLookup = Callable[[PageId], Optional[PageVersion]]


def state_reader(
    state: Mapping[PageId, PageVersion],
    initial_value: Any,
    base: Optional[BaseLookup] = None,
) -> Callable[[PageId], PageVersion]:
    """``version_of`` over a replay state the scheduler updates in place.

    A page reads through the chain *written → base → formatted cell*:
    what ``state`` holds, else what the ``base`` lookup returns, else the
    freshly formatted cell (initial value, ``NULL_LSN``).  A lookup never
    adds to ``state``, so the state only ever holds what it started with
    plus what replay wrote, and the base is never copied.
    """
    get = state.get
    formatted = PageVersion(initial_value, NULL_LSN)
    if base is None:
        return lambda page: get(page, formatted)

    def version_of(page: PageId) -> PageVersion:
        return get(page) or base(page) or formatted

    return version_of


def emit_redo_op(
    tracer, record: LogRecord, outcome: Optional[Replayed], **extra
) -> None:
    """The ``REDO_OP`` trace event for one kernel result."""
    if outcome is None:
        tracer.emit(REDO_OP, lsn=record.lsn, action="skip", **extra)
        return
    effect, poisoned = outcome
    tracer.emit(
        REDO_OP,
        lsn=record.lsn,
        action="replay",
        stale=len(effect),
        writeset=len(record.op.writeset),
        poisoned=poisoned,
        **extra,
    )


@dataclass
class ReplayStats:
    records_seen: int = 0
    ops_replayed: int = 0
    ops_skipped: int = 0
    partial_replays: int = 0
    poisoned: List[PageId] = field(default_factory=list)

    def tally(self, record: LogRecord, outcome: Optional[Replayed]) -> None:
        """Count one kernel result."""
        if outcome is None:
            self.ops_skipped += 1
            return
        effect, poisoned = outcome
        self.ops_replayed += 1
        if len(effect) < len(record.op.writeset):
            self.partial_replays += 1
        if poisoned:
            self.poisoned.extend(effect)


class RedoReplayer:
    """Replays records over a ``{PageId: PageVersion}`` state in place,
    one kernel call per record in LSN order.  Pages the state does not
    hold read through ``base`` (see :func:`state_reader`)."""

    def __init__(
        self,
        initial_value: Any = None,
        tracer=None,
        base: Optional[BaseLookup] = None,
    ):
        self._initial_value = initial_value
        self._base = base
        self.tracer = NULL_TRACER if tracer is None else tracer

    def replay(
        self,
        records: Iterable[LogRecord],
        state: MutableMapping[PageId, PageVersion],
    ) -> ReplayStats:
        stats = ReplayStats()
        # Hoisted so the replay loop pays one attribute load, not one
        # check per record, when tracing is off (the default).
        tracer = self.tracer
        trace = tracer.enabled
        version_of = state_reader(state, self._initial_value, self._base)
        source = iter(records)
        while True:
            block = list(islice(source, REPLAY_CHUNK))
            if not block:
                break
            stats.records_seen += len(block)
            for record in block:
                outcome = apply_record(record, version_of)
                if trace:
                    emit_redo_op(tracer, record, outcome)
                if outcome is not None:
                    state.update(outcome[0])
                stats.tally(record, outcome)
        return stats


def contains_poison(value: Any) -> bool:
    """True if ``value`` is, or transitively embeds, the POISON sentinel.

    An op that *raises* on a poisoned read produces a page whose value
    is POISON itself; an op that merely carries a read along (tucking it
    into a tuple) propagates the taint silently as a nested value.  Both
    are unrecoverable and both must be reported, so poison checks look
    inside containers rather than only at the top level.
    """
    if value is POISON:
        return True
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(contains_poison(item) for item in value)
    if isinstance(value, dict):
        return any(
            contains_poison(k) or contains_poison(v)
            for k, v in value.items()
        )
    return False


def surviving_poison(state: MutableMapping[PageId, PageVersion]) -> List[PageId]:
    """Pages still tainted by POISON after replay (unrecoverable)."""
    return sorted(
        page for page, ver in state.items() if contains_poison(ver.value)
    )
