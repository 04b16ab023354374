"""In-memory spans recorded from the benchmark's own code.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that was open when it started, and a trace id shared by every span
of one traced operation.  :meth:`Tracer.instrument` wraps the public
functions of the program's modules, so calls the program makes between its
own layers are recorded too; :meth:`Tracer.restore` undoes it.  Spans are
written out only at the end, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("span_id", "parent_id", "trace_id", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent_id, trace_id, name, start, attrs=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs=None) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._trace_id, name, time.perf_counter(), attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span; at the outermost level it starts a new trace."""
        if not self._stack:
            self._trace_id += 1
        span = self._open(name, attrs or None)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def instrument(self, package: str, only: set[str] | None = None) -> None:
        """Wrap every public function defined in ``package`` (or those named in
        ``only``), wherever it is bound."""
        wrappers: dict[int, object] = {}
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if only is not None and value.__name__ not in only:
                    continue
                origin = value.__module__ or ""
                if not (origin == package or origin.startswith(package + ".")):
                    continue
                if id(value) not in wrappers:
                    layer = origin.rsplit(".", 1)[-1]
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}")
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds.

        Self time is a span's duration minus its children's; spans of one
        thread never overlap, so the children's durations add up.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent_id is not None:
                child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child_time.get(s.span_id, 0.0)
        return table

    def write(self, path: Path) -> None:
        """Write all spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                record = {
                    "trace_id": s.trace_id,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "start_s": round(s.start - origin, 9),
                    "end_s": round(s.end - origin, 9),
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                fh.write(json.dumps(record) + "\n")
