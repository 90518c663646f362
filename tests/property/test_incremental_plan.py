"""Property: the set-driven incremental plan is the serial walk in closed form.

An incremental ``copy_some`` used to walk every frontier position in
round-robin order, testing each against a ``PageId`` set.  The run now
plans from per-partition sorted slot lists and computes the walk's stop
point, cursors, skips and spans by arithmetic.  The walk lives on here
as the reference (``WalkRun``): random layouts of 1–6 partitions, copy
sets that stray outside the layout, budgets, step counts, and flushes
that extend the copy set between ``copy_some`` calls drive both runs
side by side.  Every call must leave identical cursors, D/P, skip
counts and spans (in emission order), and the sealed images must match
in content and copy order.
"""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import backup_engine
from repro.core.backup_engine import BackupRun
from repro.db import Database
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite


class SpanLog(BackupRun):
    """The production run, logging each recorded span in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spans = []

    def _record_span(self, span, entries):
        self.spans.append(span)
        super()._record_span(span, entries)


class WalkRun(SpanLog):
    """The reference: a ``PageId`` copy set and the per-position walk."""

    def __init__(self, cm, backup, steps, update_set=None, **kwargs):
        super().__init__(cm, backup, steps, update_set=update_set, **kwargs)
        self.copy_set = set(update_set)

    def will_copy(self, page_id):
        if page_id in self.copy_set:
            return True
        if not self.dynamic_extend:
            return False
        progress = self.cm.progress[page_id.partition]
        if progress.active and page_id.slot >= progress.pending:
            self.copy_set.add(page_id)
            return True
        return False

    def _holds(self, partition, slot):
        return PageId(partition, slot) in self.copy_set

    def _plan_incremental(self, budget, spans):
        num_partitions = self.layout.num_partitions
        sizes = [self.layout.partition_size(p) for p in range(num_partitions)]
        open_spans = {}
        copied = 0
        while copied < budget and self._remaining_total > 0:
            advanced = False
            for partition in range(num_partitions):
                if copied >= budget:
                    break
                pos = self._cursor[partition]
                if pos >= sizes[partition]:
                    continue
                if pos >= self.cm.progress[partition].pending:
                    self._advance_step(partition)
                if PageId(partition, pos) in self.copy_set:
                    span = open_spans.get(partition)
                    if span is not None and span[1] == pos:
                        span[1] = pos + 1
                    else:
                        if span is not None:
                            spans.append((partition, span[0], span[1]))
                        open_spans[partition] = [pos, pos + 1]
                    copied += 1
                else:
                    self.skipped_pages += 1
                self._cursor[partition] = pos + 1
                self._remaining_total -= 1
                advanced = True
            if not advanced:
                break
        for partition, span in open_spans.items():
            spans.append((partition, span[0], span[1]))
        return copied


def drive(run_class, layout, steps, update_set, dynamic_extend, batched,
          calls):
    """One incremental sweep under ``run_class``; returns what it did."""
    db = Database(pages_per_partition=list(layout), policy="general")
    for page_id in db.layout.all_pages():
        db.execute(PhysicalWrite(page_id, ("base", page_id.slot)))
    db.checkpoint()
    with mock.patch.object(backup_engine, "BackupRun", run_class):
        run = db.engine.start_backup(
            steps=steps, update_set=update_set,
            dynamic_extend=dynamic_extend, batched=batched,
        )
    trace = []
    calls = list(calls) + [(7, [])] * 1000
    for stamp, (budget, writes) in enumerate(calls):
        if db.engine.active is None:
            break
        for p, s in writes:
            partition = p % len(layout)
            page_id = PageId(partition, s % layout[partition])
            db.execute(PhysicalWrite(page_id, ("w", stamp)))
            db.flush_page(page_id)
        before = len(run.spans)
        copied = db.engine.copy_some(budget)
        trace.append((
            copied,
            dict(run._cursor),
            [(db.cm.progress[p].done, db.cm.progress[p].pending)
             for p in range(len(layout))],
            run.skipped_pages,
            run.spans[before:],
        ))
    backup = db.engine.completed[-1]
    metrics = db.metrics
    return (
        trace,
        backup.pages(),
        backup.copy_order(),
        (metrics.backup_pages_copied, metrics.backup_bulk_reads,
         metrics.iwof_during_backup),
    )


layouts = st.lists(st.integers(1, 24), min_size=1, max_size=6)
# One membership bitmap per partition; partition 6 and slots 24..25
# lie past every generated layout.
bitmaps = st.lists(st.lists(st.booleans(), max_size=26), max_size=7)
writes = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 23)), max_size=3
)
call_lists = st.lists(
    st.tuples(st.integers(0, 40), writes), min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(layout=layouts, steps=st.integers(1, 6), bitmaps=bitmaps,
       dynamic_extend=st.booleans(), batched=st.booleans(),
       calls=call_lists)
def test_plan_matches_position_walk(layout, steps, bitmaps, dynamic_extend,
                                    batched, calls):
    update_set = {
        PageId(p, s)
        for p, bitmap in enumerate(bitmaps)
        for s, member in enumerate(bitmap)
        if member
    }
    args = (layout, steps, update_set, dynamic_extend, batched, calls)
    assert drive(SpanLog, *args) == drive(WalkRun, *args)


def test_closed_runs_keep_walk_order():
    """A run closes when the walk meets its partition's next copy, not
    at its own end: P1's first run (ends at 5, next copy at 6) is
    emitted before P0's (ends at 3, next copy at 10)."""
    update_set = {PageId(0, s) for s in (0, 1, 2, 10)} | {
        PageId(1, s) for s in (0, 1, 2, 3, 4, 6)
    }
    args = ([16, 16], 2, update_set, True, True, [(100, [])])
    trace, _pages, order, _counts = drive(SpanLog, *args)
    assert trace[0][4] == [(1, 0, 5), (0, 0, 3), (0, 10, 11), (1, 6, 7)]
    assert drive(WalkRun, *args)[2] == order
