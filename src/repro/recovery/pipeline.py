"""The one recovery pipeline every recovery flavour runs through.

The paper's media recovery is "restore, then roll forward with redo";
crash recovery is the same roll-forward over the surviving stable
database.  Every flavour here — crash, media, media-chain, partition,
selective, the archive tier's page rebuild — is that one sequence with a
different base image and log slice: *base → replay → classify → verify
→ install* (:func:`run_recovery`; diagram in ``docs/API.md``).  The entry
points (``run_crash_recovery``, ``run_media_recovery``, …) validate
their inputs, pick the base and the slice, and call it.  Instant restore
replays and installs single pages on demand; its drain is this sequence
again, minus the restore (S was formatted at begin) and with an install
that skips the pages traffic already restored.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.ids import NULL_LSN, PageId
from repro.obs.events import QUARANTINE, RECOVERY_PHASE, RESTORE_DROP
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome, diff_states
from repro.recovery.redo import (
    POISON,
    RedoReplayer,
    ReplayStats,
    contains_poison,
    surviving_poison,
)
from repro.storage.page import PageVersion
from repro.storage.stable_db import StableDatabase
from repro.wal.records import LogRecord

PageStream = Iterable[Tuple[PageId, PageVersion]]


def install_recovered_page(
    stable: StableDatabase,
    pid: PageId,
    version: PageVersion,
    initial_value: Any,
    tracer=None,
    metrics=None,
    kind: str = "media",
    poisoned: Optional[bool] = None,
) -> bool:
    """Install one replayed page into stable, with drop/quarantine rules.

    Out-of-layout pages (a replayed logical op can touch identifiers the
    stable layout never held, e.g. in the degrade path) are **not**
    installed — but they are never dropped silently: a ``RESTORE_DROP``
    event and ``Metrics.pages_dropped_out_of_layout`` record each one.
    Pages whose value still carries POISON are formatted to the initial
    value rather than installing garbage.  ``poisoned`` is that verdict
    when the caller already classified the page (:func:`conclude_recovery`
    did); ``None`` checks the value here.  Returns ``True`` iff the
    page's replayed value was installed as-is.
    """
    if not stable.layout.contains(pid):
        if metrics is not None:
            metrics.pages_dropped_out_of_layout += 1
        if tracer is not None and tracer.enabled:
            tracer.emit(
                RESTORE_DROP, page=str(pid), reason="out-of-layout",
                kind=kind,
            )
        return False
    if poisoned is None:
        poisoned = contains_poison(version.value)
    if poisoned:
        # Quarantined: format the cell rather than install garbage.
        stable.install_version(pid, PageVersion(initial_value, NULL_LSN))
        return False
    stable.install_version(pid, version)
    return True


def poison_seeds(seeds: Iterable[PageId]) -> Dict[PageId, PageVersion]:
    """Replay-state entries for pages whose content is lost.

    POISON propagates honestly through replay unless a later blind
    (physical/identity) record rewrites the page.
    """
    return {pid: PageVersion(POISON, NULL_LSN) for pid in seeds}


def conclude_recovery(
    kind: str,
    state: Dict[PageId, PageVersion],
    stats: ReplayStats,
    seeded: bool = False,
    expected: Optional[Mapping[PageId, Any]] = None,
    initial_value: Any = None,
    tracer=NULL_TRACER,
    base: PageStream = (),
) -> RecoveryOutcome:
    """Classify and verify a replayed ``state``: the recovery verdict.

    ``state`` is the quarantine seeds plus what replay wrote — the only
    place POISON can be, since no store ever holds it
    (:func:`install_recovered_page`).  Surviving POISON is the paper's
    "cannot be recovered" — unless damage was ``seeded``: then every
    surviving POISON traces back to the corrupted pages (the seeds replay
    could not heal plus anything their loss transitively tainted) and is
    the *quarantine* report instead, excluded from the diff against
    ``expected``.  The diff also covers the pages of ``base`` replay
    never wrote; it is consumed only when ``expected`` is given.

    POISON enters ``state`` only as a seed or from a record whose
    transform raised (``stats.poisoned``); with neither, no value can
    hold it and the verdict is empty without walking any value.
    """
    poisoned = surviving_poison(state) if seeded or stats.poisoned else []
    quarantined = []
    if seeded:
        quarantined, poisoned = poisoned, []
        if tracer.enabled:
            for pid in quarantined:
                tracer.emit(QUARANTINE, page=str(pid), kind=kind)
    diffs = []
    if expected is not None:
        lost = set(quarantined)
        recovered = dict(base)
        recovered.update(state)
        diffs = [
            d
            for d in diff_states(recovered, expected, initial_value)
            if d[0] not in lost
        ]
    return RecoveryOutcome(
        state=state,
        replayed=stats.ops_replayed,
        skipped=stats.ops_skipped,
        poisoned=poisoned,
        diffs=diffs,
        kind=kind,
        quarantined=quarantined,
    )


def run_recovery(
    kind: str,
    base: Union[StableDatabase, Mapping[PageId, PageVersion], PageStream],
    records: Iterable[LogRecord],
    *,
    stable: Optional[StableDatabase],
    restore: Optional[Callable[[PageStream, Any], None]] = None,
    seeds: Sequence[PageId] = (),
    expected: Optional[Mapping[PageId, Any]] = None,
    initial_value: Any = None,
    tracer=None,
    metrics=None,
    phase_fields: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> RecoveryOutcome:
    """Base → replay → classify → verify → install.

    The base image is *looked up*, never copied: replay reads a page it
    has not written from whatever already holds the image.  Without
    ``restore`` that is ``base`` itself — the surviving store (crash) or
    a ``{page: version}`` mapping.  With ``restore`` (the media
    flavours) ``base`` is a page stream that ``restore(pages,
    initial_value)`` — ``StableDatabase.restore_from`` or a like of it —
    lays onto the failed ``stable``, which then holds the base: from
    there on every flavour is crash recovery over S.  ``seeds`` are
    pages whose content is lost: kept out of the restore, replayed as
    POISON.  Pages the base does not hold read as the formatted cell.

    The replay state — ``RecoveryOutcome.state`` — is therefore the
    seeds plus the pages replay wrote, and classify and install walk
    only that: recovery costs what replay wrote, not the database.
    Only verification (``expected``, the state to diff against, itself
    O(database)) walks the base's pages too.

    ``records`` is the log slice to redo.  ``stable`` is the install
    target; ``None`` computes the recovered state without touching any
    store.  ``phase_fields`` adds flavour-specific fields to the
    ``restore`` / ``redo`` ``RECOVERY_PHASE`` events.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    span = "recovery." + kind.replace("-", "_")
    phase_fields = phase_fields or {}
    verifying = expected is not None
    held: PageStream = ()  # the base's pages, for the diff
    if restore is not None:
        if seeds:
            lost = set(seeds)
            base = (entry for entry in base if entry[0] not in lost)
        if verifying:
            base = held = list(base)
        with tracer.span(span + ".restore"):
            restore(base, initial_value)
        if tracer.enabled:
            tracer.emit(RECOVERY_PHASE, kind=kind, phase="restore",
                        **phase_fields.get("restore", {}))
        base = stable
    elif verifying:
        held = (
            base.iter_pages() if isinstance(base, StableDatabase)
            else base.items()
        )
    lookup = base.cell if isinstance(base, StableDatabase) else base.get
    state = poison_seeds(seeds)

    replayer = RedoReplayer(
        initial_value=initial_value, tracer=tracer, base=lookup
    )
    with tracer.span(span + ".redo"):
        stats = replayer.replay(records, state)
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind=kind, phase="redo",
                    replayed=stats.ops_replayed, skipped=stats.ops_skipped,
                    **phase_fields.get("redo", {}))

    with tracer.span(span + ".classify"):
        outcome = conclude_recovery(
            kind, state, stats, bool(seeds), expected, initial_value,
            tracer, held,
        )
    if verifying and tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind=kind, phase="verify",
                    diffs=len(outcome.diffs),
                    poisoned=len(outcome.poisoned),
                    quarantined=len(outcome.quarantined))
    if stable is not None:
        with tracer.span(span + ".install"):
            # Classify already decided every value's POISON verdict.
            tainted = set(outcome.poisoned).union(outcome.quarantined)
            for pid, version in state.items():
                install_recovered_page(
                    stable, pid, version, initial_value, tracer, metrics,
                    kind, poisoned=pid in tainted,
                )
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind=kind, phase="complete",
                    ok=outcome.ok, quarantined=len(outcome.quarantined))
    return outcome
