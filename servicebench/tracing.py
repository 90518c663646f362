"""Span recording from outside the program.

The benchmark wraps public bound methods on the live instances
(instance attributes, so classes under ``src/`` stay untouched) and
records one span per call: name, start, end, and the span that caused
it.  Spans are kept in memory as parallel arrays and reduced — or
written out — after the pass ends.

A layer's *self* time is its span's duration minus the part of that
interval its direct children cover.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        # (object, attribute) of every wrapper currently installed.
        self._wrapped: List[Tuple[Any, str]] = []

    # ------------------------------------------------------------- recording

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        stack = self._stack
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: Optional[str],
        consume: bool = False,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording instance attribute.

        ``consume=True`` drains a returned generator inside the span (a
        generator call returns before the work is done).  ``after`` sees
        the result, for wrapping objects the call creates.  Wrapping the
        same attribute twice is a no-op, so instrumenting is idempotent
        across the instances a crash replaces.
        """
        if attr in vars(obj):
            return
        fn = getattr(obj, attr)
        if name is None:  # no span of its own: only the ``after`` hook
            wrapper = fn
        else:
            wrapper = self._recording(fn, name, consume)
        if after is not None:
            inner = wrapper

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                after(result)
                return result

        setattr(obj, attr, wrapper)
        self._wrapped.append((obj, attr))

    def _recording(self, fn: Callable, name: str, consume: bool) -> Callable:
        # begin()/finish() inlined: this runs around every wrapped call.
        nid = self._id(name)
        stack = self._stack
        name_ids, parents = self.name_id, self.parent
        starts, ends = self.start, self.end

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
                return result
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return wrapper

    def unwrap_all(self) -> None:
        for obj, attr in self._wrapped:
            vars(obj).pop(attr, None)
        self._wrapped.clear()

    # -------------------------------------------------------------- reduction

    def self_times(self, root_prefix: str) -> Dict[str, Tuple[int, float]]:
        """``{name: (calls, self seconds)}`` over the spans under a root.

        Roots are the parentless spans whose name starts with
        ``root_prefix`` (the harness opens one around each timed
        region); spans outside any root — verification reads between
        timed regions — are left out.
        """
        n = len(self.start)
        start, end, parent, name_id = (
            self.start, self.end, self.parent, self.name_id
        )
        root_ids = {
            i for i, name in enumerate(self.names)
            if name.startswith(root_prefix)
        }
        counted = [False] * n
        child = [0.0] * n
        for i in range(n):  # a parent always precedes its children
            p = parent[i]
            if p < 0:
                counted[i] = name_id[i] in root_ids
            elif counted[p]:
                counted[i] = True
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            if counted[i]:
                nid = name_id[i]
                calls[nid] += 1
                self_s[nid] += end[i] - start[i] - child[i]
        return {
            name: (calls[i], self_s[i])
            for i, name in enumerate(self.names) if calls[i]
        }

    def write_jsonl(self, path: str, limit: int) -> int:
        """Write the first ``limit`` spans, one JSON object per line; a
        longer recording ends with a ``{"truncated": <total>}`` line."""
        names = self.names
        total = len(self.start)
        t0 = self.start[0] if total else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(min(total, limit)):
                fh.write(json.dumps({
                    "id": i,
                    "name": names[self.name_id[i]],
                    "start_us": round((self.start[i] - t0) * 1e6, 1),
                    "end_us": round((self.end[i] - t0) * 1e6, 1),
                    "parent": self.parent[i],
                }))
                fh.write("\n")
            if total > limit:
                fh.write(json.dumps({"truncated": total}) + "\n")
        return total
