"""Unit tests for pages and page versions."""

import pytest

from repro.ids import NULL_LSN
from repro.storage.page import PageVersion, check_value


class TestCheckValue:
    def test_accepts_immutables(self):
        for value in (None, 1, 1.5, "s", b"b", (1, 2), frozenset({1})):
            assert check_value(value) == value

    @pytest.mark.parametrize("bad", [[1], {"a": 1}, {1, 2}, bytearray(b"x")])
    def test_rejects_mutables(self, bad):
        with pytest.raises(TypeError):
            check_value(bad)


class TestPageVersion:
    def test_defaults_to_null_lsn(self):
        assert PageVersion("v").page_lsn == NULL_LSN

    def test_with_update_returns_new_version(self):
        v1 = PageVersion("a", 1)
        v2 = v1.with_update("b", 2)
        assert (v1.value, v1.page_lsn) == ("a", 1)
        assert (v2.value, v2.page_lsn) == ("b", 2)

    def test_negative_lsn_rejected(self):
        with pytest.raises(ValueError):
            PageVersion("v", -1)

