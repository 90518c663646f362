"""Log serialization: operations, records, and whole logs as JSON.

With the backup archive this completes the cross-machine story: a node
can ship its log as a file and a replacement can reconstruct a working
:class:`~repro.wal.log_manager.LogManager` from it.

Operations serialize to *specs* keyed by structural family, not by
Python class: a ``BTreeSplitRemove`` round-trips as a physiological
operation with transform ``btree_remove_high`` — replay-equivalent by
construction, because compute always dispatches through the transform
registry.  Families:

* ``physical``      — target + logged value (+ identity flag);
* ``physiological`` — target + transform + args;
* ``logical``       — reads + writes + transform + args + per_target;
* ``write_new``     — old + new + transform + args (tree class);
* ``checkpoint``    — the dirty-page table;
* ``app_step`` / ``app_feed`` / ``app_emit`` / ``app_read`` — the
  application-runtime forms (resolved back to their exact classes so
  successor metadata is preserved).
"""

from __future__ import annotations

import json
import os
import re
import zlib
from typing import Any, Dict

from repro.codec import decode_value, encode_value
from repro.errors import CorruptLogRecordError, LogError
from repro.ids import PageId
from repro.ops.base import Operation
from repro.ops.identity import IdentityWrite
from repro.ops.logical import GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.ops.tree import WriteNew
from repro.wal.checkpoint import CheckpointOp
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, RecordFlag

FORMAT_VERSION = 1


def _pid_spec(page: PageId):
    return [page.partition, page.slot]


def _pid_from(spec) -> PageId:
    return PageId(spec[0], spec[1])


def op_to_spec(op: Operation) -> Dict[str, Any]:
    """Serialize one operation to a JSON-safe spec."""
    from repro.appfs.application import AppRead
    from repro.appfs.runtime import AppEmit, AppFeed, AppStep

    if isinstance(op, CheckpointOp):
        return {
            "kind": "checkpoint",
            "table": [
                [pid.partition, pid.slot, lsn]
                for pid, lsn in sorted(op.dirty_table.items())
            ],
        }
    if isinstance(op, AppStep):
        return {
            "kind": "app_step",
            "app": _pid_spec(op.app_page),
            "logic": op.logic_name,
        }
    if isinstance(op, AppFeed):
        return {
            "kind": "app_feed",
            "source": _pid_spec(op.source),
            "app": _pid_spec(op.app_page),
        }
    if isinstance(op, AppEmit):
        return {
            "kind": "app_emit",
            "app": _pid_spec(op.app_page),
            "target": _pid_spec(op.target),
        }
    if isinstance(op, AppRead):
        return {
            "kind": "app_read",
            "source": _pid_spec(op.source),
            "app": _pid_spec(op.app_page),
        }
    if isinstance(op, IdentityWrite):
        return {
            "kind": "physical",
            "target": _pid_spec(op.target),
            "value": encode_value(op.value),
            "identity": True,
        }
    if isinstance(op, PhysicalWrite):
        return {
            "kind": "physical",
            "target": _pid_spec(op.target),
            "value": encode_value(op.value),
            "identity": False,
        }
    if isinstance(op, WriteNew):
        return {
            "kind": "write_new",
            "old": _pid_spec(op.old),
            "new": _pid_spec(op.new),
            "transform": op.transform,
            "args": encode_value(tuple(op.args)),
        }
    if isinstance(op, PhysiologicalWrite):
        return {
            "kind": "physiological",
            "target": _pid_spec(op.target),
            "transform": op.transform,
            "args": encode_value(tuple(op.args)),
        }
    if isinstance(op, GeneralLogicalOp):
        return {
            "kind": "logical",
            "reads": [_pid_spec(p) for p in sorted(op.readset)],
            "writes": [_pid_spec(p) for p in sorted(op.writeset)],
            "transform": op.transform,
            "args": encode_value(tuple(op.args)),
            "per_target": op.per_target,
        }
    raise LogError(
        f"cannot serialize operation of type {type(op).__name__}"
    )


def op_from_spec(spec: Dict[str, Any]) -> Operation:
    """Reconstruct a replay-equivalent operation from a spec."""
    from repro.appfs.application import AppRead
    from repro.appfs.runtime import AppEmit, AppFeed, AppStep

    kind = spec.get("kind")
    if kind == "checkpoint":
        return CheckpointOp(
            {PageId(p, s): lsn for p, s, lsn in spec["table"]}
        )
    if kind == "app_step":
        return AppStep(_pid_from(spec["app"]), spec["logic"])
    if kind == "app_feed":
        return AppFeed(_pid_from(spec["source"]), _pid_from(spec["app"]))
    if kind == "app_emit":
        return AppEmit(_pid_from(spec["app"]), _pid_from(spec["target"]))
    if kind == "app_read":
        return AppRead(_pid_from(spec["source"]), _pid_from(spec["app"]))
    if kind == "physical":
        cls = IdentityWrite if spec.get("identity") else PhysicalWrite
        return cls(_pid_from(spec["target"]), decode_value(spec["value"]))
    if kind == "write_new":
        return WriteNew(
            _pid_from(spec["old"]),
            _pid_from(spec["new"]),
            spec["transform"],
            decode_value(spec["args"]),
        )
    if kind == "physiological":
        return PhysiologicalWrite(
            _pid_from(spec["target"]),
            spec["transform"],
            decode_value(spec["args"]),
        )
    if kind == "logical":
        return GeneralLogicalOp(
            [_pid_from(p) for p in spec["reads"]],
            [_pid_from(p) for p in spec["writes"]],
            spec["transform"],
            decode_value(spec["args"]),
            per_target=spec["per_target"],
        )
    raise LogError(f"unknown operation spec kind {kind!r}")


def spec_checksum(spec: Dict[str, Any]) -> int:
    """CRC32 integrity envelope over a record spec's canonical form.

    Covers the LSN, flags, source and the full operation spec (the
    ``crc`` key itself is excluded).  Computed over the spec dict rather
    than the reconstructed record, so verification does not depend on
    operation round-trip stability.
    """
    body = {
        "lsn": spec["lsn"],
        "flags": spec["flags"],
        "source": spec.get("source", ""),
        "op": spec["op"],
    }
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(payload.encode("utf-8"))


def record_checksum(record: LogRecord) -> int:
    """The integrity envelope :class:`LogManager` stamps at append time.

    Operations the serializer does not know (test fakes) are covered via
    their ``repr`` — stable within a process, which is the lifetime of
    an in-memory log.
    """
    try:
        op_spec = op_to_spec(record.op)
    except LogError:
        op_spec = {"kind": "opaque", "repr": repr(record.op)}
    return spec_checksum(
        {
            "lsn": record.lsn,
            "flags": record.flags.value,
            "source": record.source,
            "op": op_spec,
        }
    )


def record_to_spec(record: LogRecord) -> Dict[str, Any]:
    spec = {
        "lsn": record.lsn,
        "flags": record.flags.value,
        "source": record.source,
        "op": op_to_spec(record.op),
    }
    spec["crc"] = record.crc if record.crc is not None else spec_checksum(spec)
    return spec


def record_from_spec(spec: Dict[str, Any]) -> LogRecord:
    crc = spec.get("crc")
    if crc is not None and crc != spec_checksum(spec):
        raise CorruptLogRecordError(spec.get("lsn", "?"))
    return LogRecord(
        lsn=spec["lsn"],
        op=op_from_spec(spec["op"]),
        flags=RecordFlag(spec["flags"]),
        source=spec.get("source", ""),
        crc=crc,
    )


def save_log(log: LogManager, path: str) -> int:
    """Serialize the retained, durable portion of a log to a file.

    Streams one record spec at a time rather than materializing the spec
    list for the whole log, so peak memory is a single record regardless
    of log length.  The bytes written are identical to a single
    ``json.dumps`` of the full envelope with ``separators=(",", ":")``.
    """
    dumps = json.dumps
    with open(path, "w") as handle:
        write = handle.write
        write(
            '{"format":%s,"first_lsn":%s,"flushed_lsn":%s,"records":['
            % (
                dumps(FORMAT_VERSION),
                dumps(log.first_retained_lsn),
                dumps(log.flushed_lsn),
            )
        )
        first = True
        for record in log.durable_scan(log.first_retained_lsn):
            if first:
                first = False
            else:
                write(",")
            write(dumps(record_to_spec(record), separators=(",", ":")))
        write("]}")
    return os.path.getsize(path)


_HEADER_RE = re.compile(
    r'^\{"format":\s*(-?\d+),\s*"first_lsn":\s*(-?\d+),'
    r'\s*"flushed_lsn":\s*(-?\d+),\s*"records":\s*\['
)


def _salvage_specs(text: str, pos: int):
    """Yield record specs decoded one at a time from ``text``.

    Stops (without raising) at the first position that is not a
    decodable JSON object — the boundary of the surviving prefix of a
    damaged file.
    """
    decoder = json.JSONDecoder()
    length = len(text)
    while True:
        while pos < length and text[pos] in ", \t\r\n":
            pos += 1
        if pos >= length or text[pos] != "{":
            return
        try:
            spec, pos = decoder.raw_decode(text, pos)
        except ValueError:
            return
        yield spec


def load_log(path: str, repair_tail: bool = False) -> LogManager:
    """Reconstruct a LogManager (with original LSNs) from a file.

    With ``repair_tail=False`` (the default) any damage — invalid JSON,
    a checksum-failed record, an out-of-sequence LSN — raises.  With
    ``repair_tail=True`` the loader is tolerant: records are decoded one
    at a time and the log is truncated at the first record that cannot
    be decoded or fails its integrity check, yielding the longest clean
    prefix (torn-tail repair for shipped log files).  The number of
    records dropped is exposed as ``log.tail_repair_dropped``.
    """
    with open(path) as handle:
        text = handle.read()
    envelope = None
    try:
        envelope = json.loads(text)
    except ValueError:
        if not repair_tail:
            raise LogError(f"log file {path} is not valid JSON") from None
    if envelope is not None:
        fmt = envelope.get("format")
        if fmt != FORMAT_VERSION:
            raise LogError(f"unsupported log format {fmt!r}")
        first_lsn = envelope["first_lsn"]
        claimed_flushed = envelope["flushed_lsn"]
        specs = iter(envelope["records"])
    else:
        header = _HEADER_RE.match(text)
        if header is None or int(header.group(1)) != FORMAT_VERSION:
            raise LogError(
                f"log file {path}: header unreadable, nothing salvageable"
            )
        first_lsn = int(header.group(2))
        claimed_flushed = int(header.group(3))
        specs = _salvage_specs(text, header.end())
    log = LogManager(auto_force=True)
    log._first_lsn = first_lsn  # noqa: SLF001
    for spec in specs:
        try:
            record = record_from_spec(spec)
            if record.lsn != log.next_lsn:
                raise LogError(
                    f"log file out of sequence at LSN {record.lsn} "
                    f"(expected {log.next_lsn})"
                )
        except (LogError, KeyError, TypeError, ValueError):
            if repair_tail:
                break  # everything from here on is untrustworthy
            raise
        log._records.append(record)  # noqa: SLF001
        log._admit(record)  # noqa: SLF001
    log.force()
    # How many records the file claimed beyond what survived.
    log.tail_repair_dropped = max(0, claimed_flushed - (log.next_lsn - 1))
    return log
