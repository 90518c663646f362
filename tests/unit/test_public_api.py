"""The public API surface: ``__all__``, star import, and doctests."""

import doctest

import repro
import repro.core.config
import repro.db
import repro.kvstore


class TestPublicSurface:
    def test_star_import_matches_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        imported = sorted(k for k in namespace if k != "__builtins__")
        assert imported == sorted(repro.__all__)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_key_types_exported(self):
        # The documented public surface of the API redesign.
        for name in (
            "Database", "BackupConfig", "RecoveryOutcome", "CrashPlan",
            "IOFaultPlan", "FaultPlane", "FaultSpec", "FailureInjector",
            "SimulatedCrash", "TransientIOError", "TornWriteError",
        ):
            assert name in repro.__all__, name

    def test_package_doctest(self):
        failures, tested = doctest.testmod(repro, verbose=False)
        assert tested > 0
        assert failures == 0

    def test_config_doctest(self):
        failures, tested = doctest.testmod(repro.core.config, verbose=False)
        assert tested > 0
        assert failures == 0

    def test_db_doctest(self):
        failures, tested = doctest.testmod(repro.db, verbose=False)
        assert tested > 0
        assert failures == 0

    def test_kvstore_doctest(self):
        failures, tested = doctest.testmod(repro.kvstore, verbose=False)
        assert tested > 0
        assert failures == 0
