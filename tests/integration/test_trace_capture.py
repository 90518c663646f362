"""Trace capture end-to-end: an unrecovered scenario must yield a trace
naming the injected fault point and the recovery phase that observed it.

This is the observability layer's acceptance path: faultsweep records
every unrecovered case, ``dump_failure_traces`` replays each with a
recording tracer, and the JSONL output answers "which injection broke
which recovery" without re-running the sweep under a debugger.
"""

import pytest

from repro.cli import main
from repro.core.config import BackupConfig
from repro.db import Database
from repro.harness import faultsweep as fs
from repro.harness.faultsweep import (
    FailureCase,
    ScenarioResult,
    SweepReport,
    capture_failure_trace,
    dump_failure_traces,
)
from repro.ids import PageId
from repro.obs import events as ev
from repro.obs.tracer import Tracer, load_jsonl
from repro.ops.physical import PhysicalWrite
from repro.recovery.explain import render_timeline
from repro.sim.faults import FaultKind, FaultPlane, FaultSpec, IOPoint


def _sabotaged_recovery_trace():
    """Drive a run into a crash fault, then sabotage the truncation point
    so crash recovery skips the needed redo and verifiably fails."""
    from repro.errors import SimulatedCrash

    tracer = Tracer()
    db = Database(pages_per_partition=[32], tracer=tracer)
    db.attach_faults(FaultPlane([
        FaultSpec(FaultKind.CRASH, point=IOPoint.STABLE_MULTI_WRITE,
                  at_io=2),
    ]))
    with pytest.raises(SimulatedCrash):
        for i in range(32):
            db.execute(PhysicalWrite(PageId(0, i % 16), ("v", i)))
            db.install_some(2)
    db.crash()
    # Sabotage: pretend S already holds everything, skipping redo.
    db.cm.stable_truncation_point = db.log.end_lsn + 1
    with db.faults.suspended():
        outcome = db.recover()
    return tracer, outcome


class TestUnrecoveredScenarioTrace:
    def test_trace_names_fault_point_and_observing_phase(self):
        tracer, outcome = _sabotaged_recovery_trace()
        assert not outcome.ok, "sabotage should have broken recovery"

        faults = tracer.find(ev.FAULT_INJECTED)
        assert faults, "the injected fault must appear in the trace"
        assert faults[0].get("point") == IOPoint.STABLE_MULTI_WRITE
        assert faults[0].get("kind") == FaultKind.CRASH

        verifies = [
            e for e in tracer.find(ev.RECOVERY_PHASE)
            if e.get("phase") == "verify"
        ]
        assert verifies, "the verify phase must appear in the trace"
        assert verifies[0].get("kind") == "crash"
        assert verifies[0].get("diffs", 0) > 0

        completes = [
            e for e in tracer.find(ev.RECOVERY_PHASE)
            if e.get("phase") == "complete"
        ]
        assert completes and completes[0].get("ok") is False

    def test_timeline_links_the_fault_to_the_failed_phase(self):
        tracer, _ = _sabotaged_recovery_trace()
        text = render_timeline(tracer.events)
        assert f"crash at {IOPoint.STABLE_MULTI_WRITE}" in text
        assert "observed by crash recovery phase 'verify'" in text


class TestFaultsweepCapture:
    def _failing_report(self):
        specs = (FaultSpec(FaultKind.CRASH, point=IOPoint.ANY, at_io=6),)
        result = ScenarioResult("crash-sweep-serial")
        result.record_failure("at_io=6", specs, seed=0, batched=False)
        return SweepReport(seed=0, results=[result])

    def test_capture_replays_case_with_header(self):
        report = self._failing_report()
        events = capture_failure_trace(report.failures[0])
        assert events[0].kind == ev.TRACE_HEADER
        assert events[0].get("scenario") == "crash-sweep-serial"
        assert events[0].get("label") == "at_io=6"
        assert events[0].get("specs")[0]["at_io"] == 6
        assert any(e.kind == ev.FAULT_INJECTED for e in events)
        assert any(e.kind == ev.RECOVERY_PHASE for e in events)

    def test_dump_writes_tagged_jsonl(self, tmp_path):
        report = self._failing_report()
        path = tmp_path / "failures.jsonl"
        assert dump_failure_traces(report, str(path)) == 1
        events = load_jsonl(str(path))
        assert events and all(e.get("case") == 0 for e in events)
        assert events[0].kind == ev.TRACE_HEADER

    def test_record_failure_collects_cases(self):
        report = self._failing_report()
        assert len(report.failures) == 1
        case = report.failures[0]
        assert isinstance(case, FailureCase)
        assert case.scenario == "crash-sweep-serial"
        assert not report.results[0].ok
        assert "at_io=6:FAILED" in report.results[0].detail


def _events_of(event_kind, **fields):
    def check(events):
        return [
            e for e in events
            if e.kind == event_kind
            and all(e.get(k) == v for k, v in fields.items())
        ]
    return check


#: family -> (scenario run that records failures, events its replay
#: must carry, how many at least).
REPLAY_FAMILIES = {
    "drive": (
        lambda: fs._crash_sweep_scenario(0, True, stride=10**6),
        _events_of(ev.FAULT_INJECTED, kind=FaultKind.CRASH), 1,
    ),
    "bitrot": (
        lambda: next(r for r in fs._bitrot_scenarios(0, True, samples=1)
                     if r.name.startswith("bitrot-logtail")),
        _events_of(ev.FAULT_INJECTED, kind=FaultKind.BITROT), 1,
    ),
    "after-recovery": (
        lambda: fs._logtail_after_recovery_scenario(0),
        _events_of(ev.CRASH), 2,
    ),
    "instant": (
        lambda: fs._instant_scenarios(0, True, read_all=False),
        _events_of(ev.RESTORE_PROGRESS, phase="begin"), 1,
    ),
    "archive-bitrot": (
        lambda: fs._archive_bitrot_scenario(0),
        _events_of(ev.CHAIN_HEAL), 1,
    ),
    "archive-compaction": (
        lambda: fs._archive_compaction_crash_scenario(0),
        _events_of(ev.COMPACTION), 1,
    ),
    "archive-pitr": (
        lambda: fs._archive_pitr_scenario(0),
        _events_of(ev.GENERATION_SEALED), 3,
    ),
}


class TestReplayDispatch:
    """A failure replays through its own scenario's run body.

    The verdict is forced to "unrecovered" so every family records a
    case; the replayed trace must then carry that family's events, not
    a plain workload drive's.
    """

    @pytest.mark.parametrize("family", sorted(REPLAY_FAMILIES))
    def test_replay_runs_the_failing_program(self, family, monkeypatch):
        run, events_of, at_least = REPLAY_FAMILIES[family]
        tally = ScenarioResult.tally
        with monkeypatch.context() as patch:
            patch.setattr(
                ScenarioResult, "tally",
                lambda self, ok, *case, **fields: tally(
                    self, False, *case, **fields
                ),
            )
            result = run()
        case = result.failures[0]
        events = capture_failure_trace(case)
        assert not [e for e in events[1:] if e.kind == ev.TRACE_HEADER], (
            "the replay died"
        )
        assert len(events_of(events)) >= at_least


class TestTraceCli:
    def _write_trace(self, tmp_path):
        report = TestFaultsweepCapture()._failing_report()
        path = tmp_path / "failures.jsonl"
        dump_failure_traces(report, str(path))
        return str(path)

    def test_trace_command_summarizes(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "events by kind" in out
        assert "faults injected" in out

    def test_trace_command_timeline(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["trace", path, "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "causality:" in out

    def test_trace_command_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1

    def test_faultsweep_trace_flag_skips_on_pass(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        code = main(["faultsweep", "--quick", "--stride", "64",
                     "--trace", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert not path.exists()
        assert "not written" in out


class TestTracedSweepStaysGreen:
    def test_normal_backup_recovery_unaffected_by_tracing(self):
        """A traced run and an untraced run produce identical outcomes."""
        def run(tracer):
            db = Database(pages_per_partition=[32], tracer=tracer)
            for i in range(16):
                db.execute(PhysicalWrite(PageId(0, i), (i,)))
            db.start_backup(BackupConfig(steps=4))
            db.run_backup(BackupConfig(pages_per_tick=8))
            db.media_failure()
            return db.media_recover()

        untraced = run(None)
        traced = run(Tracer())
        assert untraced.ok and traced.ok
        assert untraced.replayed == traced.replayed
        assert untraced.skipped == traced.skipped
