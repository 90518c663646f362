"""Structured tracing with a cheap no-op default.

Two tracer types share one duck-typed interface:

* :data:`NULL_TRACER` (a :class:`NullTracer`) — the default wired into
  every component.  ``enabled`` is ``False``, ``emit`` is a no-op, and
  ``span`` returns a shared do-nothing context manager, so instrumented
  hot paths cost one attribute load and a branch
  (``if tracer.enabled:``) when tracing is off.  The benchmark suite
  (``python -m repro bench``) holds this overhead under 5%.
* :class:`Tracer` — the recording tracer.  Events are appended to an
  in-memory list with a monotone sequence number and a timestamp
  relative to the tracer's creation; ``span(name)`` times a block and
  (when the tracer carries a :class:`~repro.sim.metrics.Metrics`) feeds
  the per-phase timing histograms.

Traces serialize to JSONL — one flat object per event — via
:meth:`Tracer.write_jsonl` / :func:`load_jsonl`, the format consumed by
``python -m repro trace`` and
:func:`repro.recovery.explain.render_timeline`.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


@dataclass
class TraceEvent:
    """One emitted event: sequence number, relative time, kind, fields."""

    seq: int
    t: float  # seconds since the tracer was created
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def to_dict(self) -> Dict[str, Any]:
        # The event kind serializes under the reserved key "ev", NOT
        # "kind": several event schemas carry their own "kind" field
        # (fault kind, recovery kind) which must survive the flattening.
        out: Dict[str, Any] = {
            "seq": self.seq, "t": round(self.t, 6), "ev": self.kind
        }
        out.update(self.fields)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        fields = dict(data)
        seq = fields.pop("seq", 0)
        t = fields.pop("t", 0.0)
        kind = fields.pop("ev", "")
        return cls(seq=seq, t=t, kind=kind, fields=fields)

    def __repr__(self):
        inner = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"<{self.seq} +{self.t * 1000:.3f}ms {self.kind} {inner}>"


class _NullSpan:
    """Do-nothing context manager shared by every no-op ``span`` call."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The cheap default: tracing off, every call a no-op."""

    __slots__ = ()

    enabled = False
    events: tuple = ()
    metrics = None

    def emit(self, kind: str, /, **fields: Any) -> None:
        return None

    def span(self, name: str, /, **fields: Any) -> _NullSpan:
        return _NULL_SPAN


#: The shared no-op tracer every component defaults to.
NULL_TRACER = NullTracer()


class _Span:
    """Times one block: ``span_begin`` on entry, ``span_end`` (with
    ``ms`` and ``ok``) on exit; feeds the tracer's metrics histograms."""

    __slots__ = ("_tracer", "_name", "_fields", "_t0")

    def __init__(self, tracer: "Tracer", name: str, fields: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._fields = fields

    def __enter__(self):
        from repro.obs.events import SPAN_BEGIN

        tracer = self._tracer
        self._t0 = tracer._clock()
        tracer.emit(SPAN_BEGIN, span=self._name, **self._fields)
        return self

    def __exit__(self, exc_type, exc, tb):
        from repro.obs.events import SPAN_END

        tracer = self._tracer
        elapsed = tracer._clock() - self._t0
        tracer.emit(
            SPAN_END,
            span=self._name,
            ms=round(elapsed * 1000.0, 4),
            ok=exc_type is None,
            **self._fields,
        )
        if tracer.metrics is not None:
            tracer.metrics.observe_phase(self._name, elapsed)
        return False


class Tracer:
    """Recording tracer: an in-memory, optionally bounded event stream.

    ``capacity`` (when given) keeps only the most recent N events — a
    ring buffer for long runs where only the tail matters.  ``metrics``
    receives per-span timings into its phase histograms.

    Concurrency contract: ``emit`` is safe from any thread.  The thread
    that created the tracer (the *owner*) appends directly — no lock on
    the single-thread path.  Other threads (one backup thread beside the
    service, whose fault-plane checks may emit) append to lock-free
    per-thread buffers; the owner flushes them in emit order — merged by
    timestamp, sequence numbers assigned at flush — the next time it
    emits or reads the stream (:meth:`drain`).  Span timers feed
    ``metrics`` on exit and should only be opened on the owner thread.
    """

    enabled = True

    def __init__(
        self,
        metrics: Optional[Any] = None,
        capacity: Optional[int] = None,
        clock=time.perf_counter,
    ):
        self.metrics = metrics
        self.capacity = capacity
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self.events: List[TraceEvent] = []
        self._owner = threading.get_ident()
        # Per-thread pending buffers for non-owner emits.  Each such
        # thread appends to its own list (list.append is atomic), so the
        # registry lock is only taken once per thread, at registration.
        self._local = threading.local()
        self._buffers: List[List[TraceEvent]] = []
        self._registry_lock = threading.Lock()

    def emit(self, kind: str, /, **fields: Any) -> TraceEvent:
        event = TraceEvent(0, self._clock() - self._t0, kind, fields)
        if threading.get_ident() != self._owner:
            buffer = getattr(self._local, "buffer", None)
            if buffer is None:
                buffer = self._local.buffer = []
                with self._registry_lock:
                    self._buffers.append(buffer)
            buffer.append(event)
            return event
        if self._buffers:
            self._flush_pending()
        self._append(event)
        return event

    def _append(self, event: TraceEvent) -> None:
        self._seq += 1
        event.seq = self._seq
        events = self.events
        events.append(event)
        capacity = self.capacity
        if capacity is not None and len(events) > capacity:
            del events[: len(events) - capacity]

    def _flush_pending(self) -> None:
        """Merge other threads' buffers into the stream in emit order."""
        pending: List[TraceEvent] = []
        with self._registry_lock:
            for buffer in self._buffers:
                while buffer:
                    pending.append(buffer.pop(0))
        pending.sort(key=lambda event: event.t)
        for event in pending:
            self._append(event)

    def drain(self) -> None:
        """Flush any other threads' buffers (owner thread only).

        Called implicitly by owner-thread emits and by the stream
        readers below; call explicitly before touching ``events``
        directly after multi-threaded activity.
        """
        if self._buffers:
            self._flush_pending()

    def span(self, name: str, /, **fields: Any) -> _Span:
        return _Span(self, name, fields)

    def clear(self) -> None:
        self.drain()
        self.events.clear()

    def find(self, kind: str) -> List[TraceEvent]:
        """Events of one kind, in emission order (test/report helper)."""
        self.drain()
        return [e for e in self.events if e.kind == kind]

    def write_jsonl(
        self, path: str, mode: str = "w", extra: Optional[Dict[str, Any]] = None
    ) -> int:
        """Dump the event stream, one JSON object per line.

        ``extra`` keys are merged into every line (harnesses tag events
        with their scenario).  Returns the number of lines written.
        """
        self.drain()
        return write_jsonl(self.events, path, mode=mode, extra=extra)

    def __len__(self) -> int:
        self.drain()
        return len(self.events)

    def __repr__(self):
        return f"Tracer(events={len(self.events)}, seq={self._seq})"


def write_jsonl(
    events: Iterable[TraceEvent],
    path: str,
    mode: str = "w",
    extra: Optional[Dict[str, Any]] = None,
) -> int:
    written = 0
    with open(path, mode, encoding="utf-8") as fh:
        for event in events:
            line = event.to_dict()
            if extra:
                line.update(extra)
            fh.write(json.dumps(line, sort_keys=False, default=str))
            fh.write("\n")
            written += 1
    return written


def load_jsonl(path: str) -> List[TraceEvent]:
    """Parse a JSONL trace file back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events
