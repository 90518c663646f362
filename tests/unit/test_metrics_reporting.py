"""Metrics-reporting bugfix regressions: snapshot coverage and the
phantom step-0 bug in ``record_decision``."""

import dataclasses

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.physical import PhysicalWrite
from repro.sim.metrics import Metrics


class TestSnapshotCoverage:
    def test_snapshot_covers_every_scalar_field(self):
        """Every int/float field of Metrics must appear in snapshot().

        ``snapshot()`` used to hand-list its keys and silently omitted
        newer counters (simulated_backoff_s, backups_aborted,
        backup_bulk_reads, identity_installs, multi_page_installs,
        linked_flushes, cache_hits, cache_misses).  It now enumerates
        ``dataclasses.fields``; this test pins that.
        """
        metrics = Metrics()
        snap = metrics.snapshot()
        scalar_fields = {
            spec.name
            for spec in dataclasses.fields(metrics)
            if isinstance(getattr(metrics, spec.name), (int, float))
        }
        missing = scalar_fields - set(snap)
        assert missing == set()

    def test_snapshot_includes_previously_omitted_counters(self):
        metrics = Metrics()
        metrics.simulated_backoff_s = 0.25
        metrics.backups_aborted = 2
        metrics.backup_bulk_reads = 3
        metrics.identity_installs = 4
        metrics.multi_page_installs = 5
        metrics.linked_flushes = 6
        metrics.cache_hits = 7
        metrics.cache_misses = 8
        snap = metrics.snapshot()
        assert snap["simulated_backoff_s"] == 0.25
        assert snap["backups_aborted"] == 2
        assert snap["backup_bulk_reads"] == 3
        assert snap["identity_installs"] == 4
        assert snap["multi_page_installs"] == 5
        assert snap["linked_flushes"] == 6
        assert snap["cache_hits"] == 7
        assert snap["cache_misses"] == 8

    def test_snapshot_keeps_derived_quantities(self):
        metrics = Metrics()
        metrics.record_decision("done", True, step=2)
        metrics.faults_injected["torn"] = 3
        snap = metrics.snapshot()
        assert snap["extra_logging_fraction"] == 1.0
        assert snap["faults_injected"] == 3


class TestStepAttribution:
    def test_record_decision_requires_step(self):
        """The step=0 default silently created a phantom step; the
        argument is now required."""
        with pytest.raises(TypeError):
            Metrics().record_decision("done", True)

    def test_backup_run_never_attributes_to_phantom_step_zero(self):
        """A real backup's flush decisions land in steps >= 1.

        ``PartitionProgress.steps_taken`` is 1-based once the backup has
        begun; a decision recorded at step 0 means a call site dropped
        the argument and §5's step fractions get a phantom row.
        """
        db = Database(pages_per_partition=[48])
        for i in range(24):
            db.execute(PhysicalWrite(PageId(0, i), (i,)))
        db.start_backup(BackupConfig(steps=6))
        counter = 0
        while db.backup_in_progress():
            db.backup_step(4)
            db.execute(PhysicalWrite(PageId(0, counter % 24), ("u", counter)))
            db.install_some(4)
            counter += 1
        assert db.metrics.flush_decisions_during_backup > 0
        assert 0 not in db.metrics.decisions_by_step
        assert 0 not in db.metrics.iwof_by_step
        assert all(step >= 1 for step in db.metrics.step_fractions())
