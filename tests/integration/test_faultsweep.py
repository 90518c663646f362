"""The fault sweep must report 100% recovered (the acceptance pin).

``python -m repro faultsweep --seed 0`` is the CLI form of
:func:`repro.harness.faultsweep.run_faultsweep`; this test pins the
seed-0 matrix at full recovery so a regression in any I/O-boundary
handling (retry, torn-span resume, doublewrite rollback, crash
recovery) fails the build.
"""

import pytest

from repro.harness.faultsweep import run_faultsweep


class TestFaultsweep:
    def test_seed0_quick_sweep_fully_recovers(self):
        report = run_faultsweep(seed=0, quick=True)
        assert report.total > 0
        assert report.recovered == report.total
        assert report.all_recovered
        names = {r.name for r in report.results}
        # The matrix covers every fault class for both copy engines.
        assert {
            "transient-serial", "transient-batched",
            "torn-install-serial", "torn-install-batched",
            "crash-sweep-serial", "crash-sweep-batched",
            "seeded-mix-serial", "seeded-mix-batched",
            "torn-backup-span",
            "instant-restore-serial", "instant-restore-batched",
            "instant-restore-4part", "instant-restore-lazy-drain",
            "transient-4part", "crash-sweep-4part", "torn-backup-span-4part",
            "bitrot-logtail-after-recovery",
        } <= names
        # The deleted fan-out modes are gone from the matrix.
        assert not [n for n in names
                    if "parallel" in n or "multistream" in n]
        # Every instant family finishes one restore through a crash.
        for result in report.results:
            if result.name.startswith("instant-restore-"):
                assert result.total == 4, result.name

    def test_faults_actually_fired(self):
        report = run_faultsweep(seed=0, quick=True)
        by_name = {r.name: r for r in report.results}
        assert by_name["transient-serial"].io_retries > 0
        assert by_name["crash-sweep-serial"].faults_injected > 0
        assert by_name["seeded-mix-serial"].faults_injected > 0
        assert "resumed" in by_name["torn-backup-span"].detail

    @pytest.mark.slow
    def test_seed0_exhaustive_sweep_fully_recovers(self):
        report = run_faultsweep(seed=0, stride=1)
        assert report.all_recovered

    def test_file_backend_smoke_fully_recovers(self, tmp_path):
        """The pinned file-backend smoke matrix: every fault class over
        the batched engine over one and four partitions on real files,
        100% recovered."""
        report = run_faultsweep(seed=0, backend="file",
                                data_dir=str(tmp_path))
        assert report.total > 0
        assert report.all_recovered
        names = {r.name for r in report.results}
        assert {
            "transient-batched-file", "torn-install-batched-file",
            "crash-sweep-batched-file", "seeded-mix-batched-file",
            "bitrot-stable-batched-file",
            "transient-4part-file", "crash-sweep-4part-file",
            "torn-backup-span-file",
            "instant-restore-batched-file", "instant-restore-4part-file",
            "instant-restore-lazy-drain-file",
            "bitrot-logtail-after-recovery-file",
        } <= names

    def test_cli_exit_code_and_output(self, capsys):
        from repro.cli import main

        code = main(["faultsweep", "--seed", "0", "--quick",
                     "--stride", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "faultsweep PASS" in out
        assert "crash-sweep-batched" in out

    def test_deterministic_in_seed(self):
        a = run_faultsweep(seed=3, quick=True)
        b = run_faultsweep(seed=3, quick=True)
        assert [(r.name, r.total, r.recovered, r.faults_injected)
                for r in a.results] == [
            (r.name, r.total, r.recovered, r.faults_injected)
            for r in b.results
        ]
