"""Unit tests for the exhaustive interleaving explorer."""

import math

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.sim.explorer import InterleavingExplorer, merges


class TestMerges:
    def test_single_track(self):
        assert list(merges([[1, 2, 3]])) == [(1, 2, 3)]

    def test_count_is_multinomial(self):
        tracks = [[1, 2], ["a", "b", "c"], ["x"]]
        expected = math.factorial(6) // (
            math.factorial(2) * math.factorial(3) * math.factorial(1)
        )
        assert len(list(merges(tracks))) == expected

    def test_all_unique(self):
        out = list(merges([[1, 2], ["a", "b"]]))
        assert len(out) == len(set(out))

    def test_no_tracks(self):
        assert list(merges([])) == [()]


class TestExplorer:
    def _trivial_scenario(self):
        def factory():
            db = Database(pages_per_partition=[8], policy="general")
            track = [
                lambda: db.execute(PhysicalWrite(PageId(0, 0), "a")),
                lambda: db.execute(PhysicalWrite(PageId(0, 1), "b")),
            ]

            def finish(database):
                database.checkpoint()
                database.start_backup(BackupConfig(steps=2))
                return database.run_backup()

            return db, [track, [lambda: None]], finish

        return factory

    def test_counts_and_recovers(self):
        explorer = InterleavingExplorer(self._trivial_scenario())
        result = explorer.explore()
        assert result.interleavings == 3  # C(3,1)
        assert result.all_recovered

    def test_max_interleavings_cap(self):
        explorer = InterleavingExplorer(self._trivial_scenario())
        result = explorer.explore(max_interleavings=2)
        assert result.interleavings == 2

    def test_exceptions_recorded_as_failures(self):
        def factory():
            db = Database(pages_per_partition=[8], policy="general")
            track = [lambda: (_ for _ in ()).throw(RuntimeError("boom"))]

            def finish(database):
                return None

            return db, [track], finish

        result = InterleavingExplorer(factory).explore()
        assert not result.all_recovered
        assert "RuntimeError" in result.failures[0][1]

    def test_fault_specs_transient_absorbed(self):
        from repro.sim.faults import FaultKind, FaultSpec, IOPoint

        specs = [FaultSpec(FaultKind.TRANSIENT, point=IOPoint.LOG_APPEND,
                           at_io=1, times=2)]
        explorer = InterleavingExplorer(self._trivial_scenario(),
                                        fault_specs=specs)
        result = explorer.explore()
        assert result.interleavings == 3
        assert result.all_recovered

    def test_fault_specs_crash_turns_into_crash_recovery(self):
        from repro.sim.faults import FaultKind, FaultSpec

        # Crash at the 3rd I/O of every interleaving: each run must
        # survive via crash recovery instead of the media path.
        specs = [FaultSpec(FaultKind.CRASH, at_io=3)]
        explorer = InterleavingExplorer(self._trivial_scenario(),
                                        fault_specs=specs)
        result = explorer.explore()
        assert result.interleavings == 3
        assert result.all_recovered
