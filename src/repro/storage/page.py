"""Page objects: the paper's recoverable objects.

A page couples a *value* with the LSN of the last logged operation whose
effect on the page the value reflects (``page_lsn``).  The LSN is what the
LSN-based redo test of section 2 consults: an operation with LSN ``L`` must
be replayed against page ``X`` iff ``X.page_lsn < L``.

Values are arbitrary immutable Python objects (tuples, bytes, frozensets,
ints, strings).  Mutability is rejected defensively for lists/dicts/sets at
construction, because sharing a mutable value between the cache, S and B
would silently break the simulation's fidelity.

This module also defines the **integrity envelope**: a CRC32 checksum
over a page version's canonical encoding (:func:`page_checksum`).  Page
stores stamp the checksum at write time and verify it on read, so silent
corruption (bit rot, a misdirected write) surfaces as a typed
:class:`~repro.errors.CorruptPageError` instead of propagating garbage
into replay — validated page reads are the precondition single-pass REDO
recovery relies on.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any

from repro.ids import LSN, NULL_LSN, PageId

_MUTABLE_TYPES = (list, dict, set, bytearray)

#: Marker prefix for a deliberately rotted value (see :func:`rot_value`).
BITROT_MARKER = "☠bitrot"


def page_checksum(value: Any, page_lsn: LSN) -> int:
    """CRC32 integrity envelope over a page's canonical encoding.

    The checksum covers both the value and its LSN stamp, so a
    misdirected write (right value, wrong LSN epoch) is detected too.
    ``bytes`` payloads — the shape real page images have — take a fast
    path: the CRC runs directly over a :class:`memoryview` of the
    payload, seeded with the LSN prefix, so no intermediate encoding or
    concatenation is allocated.  Structured values go through the shared
    codec; values it cannot encode (e.g. the replayer's POISON sentinel)
    fall back to ``repr`` — stable within a process, which is the
    lifetime of an in-memory store.
    """
    if type(value) is bytes:
        return zlib.crc32(memoryview(value), zlib.crc32(b"%d|" % page_lsn))

    from repro.codec import CodecError, encode_value

    try:
        payload = json.dumps(
            encode_value(value), sort_keys=True, separators=(",", ":")
        )
    except CodecError:
        payload = repr(value)
    return zlib.crc32(f"{page_lsn}|{payload}".encode("utf-8"))


def rot_value(value: Any) -> Any:
    """A deterministic "bit-flipped" replacement for a page value.

    Page values are structured Python objects, so bit rot is simulated
    by substituting a marked tuple that is never equal to the original —
    the stale checksum then fails verification exactly as a flipped bit
    in a real page image would.
    """
    return (BITROT_MARKER, repr(value))


def check_value(value: Any) -> Any:
    """Reject obviously mutable page values; return the value unchanged."""
    if isinstance(value, _MUTABLE_TYPES):
        raise TypeError(
            f"page values must be immutable; got {type(value).__name__}. "
            "Use a tuple / frozenset / bytes instead."
        )
    return value


@dataclass(frozen=True)
class PageVersion:
    """An immutable (value, page_lsn) snapshot of a page."""

    value: Any
    page_lsn: LSN = NULL_LSN

    def __post_init__(self):
        check_value(self.value)
        if self.page_lsn < NULL_LSN:
            raise ValueError(f"page_lsn must be >= {NULL_LSN}")

    def with_update(self, value: Any, lsn: LSN) -> "PageVersion":
        """Return a new version carrying ``value`` stamped with ``lsn``."""
        return PageVersion(check_value(value), lsn)

    def checksum(self) -> int:
        """This version's CRC32 integrity envelope (computed once).

        Versions are immutable, so the envelope is cached on the
        instance: a page that flows cache → stable → backup pays for
        one encoding, not one per hop.  Simulated rot replaces the
        version object wholesale (:func:`rot_value`), so a rotted cell
        recomputes from scratch and fails verification against the
        stale envelope its store recorded at install time.
        """
        crc = getattr(self, "_crc", None)
        if crc is None:
            crc = page_checksum(self.value, self.page_lsn)
            object.__setattr__(self, "_crc", crc)
        return crc

