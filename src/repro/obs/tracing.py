"""Structured trace spans with a pluggable event sink.

Event schema (one JSON object per line in the JSONL sink):

* every event carries ``t`` — seconds since the tracer's monotonic
  origin — and ``type``;
* ``span_start``: ``id`` (int, unique per tracer), ``parent`` (id or
  null), ``name``, plus caller attributes;
* ``span_end``: ``id``, ``name``, ``dur`` (seconds), plus attributes
  attached via ``Span.set`` (e.g. a verdict known only at exit);
* ``phase``: ``name``, ``seconds`` — aggregated time attributed to a
  named kernel phase (canonicalise, expand, …) without per-occurrence
  span overhead; ``span`` links it to the enclosing span;
* ``progress``: throttled live counters (see ``obs.progress``);
* ``meta``: one-off annotations (command line, protocol, config).

Spans nest per-thread via a thread-local stack.  The JSONL sink batches
writes and fsyncs per batch, so a kill loses at most one unflushed
batch.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Optional

__all__ = ["JsonlTraceSink", "NullSink", "Span", "Tracer"]


def _safe(value):
    """Coerce an attribute to something JSON-serialisable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _safe(v) for k, v in value.items()}
    return str(value)


class NullSink:
    """Swallows events; lets a tracer exist without a trace file."""

    path = None

    def __init__(self) -> None:
        self.events_written = 0

    def emit(self, event: dict) -> None:
        self.events_written += 1

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlTraceSink:
    """Append-only JSONL sink with batched, fsynced writes.

    Events buffer in memory and hit disk every ``flush_every`` events
    (and on ``flush``/``close``); each disk write ends with an fsync so
    a SIGKILL loses at most one unflushed batch.
    """

    def __init__(self, path, flush_every: int = 128) -> None:
        self.path = str(path)
        self.events_written = 0
        self._flush_every = max(1, int(flush_every))
        self._buffer = []
        self._lock = threading.Lock()
        self._handle = open(self.path, "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        line = json.dumps(event, separators=(",", ":"), default=str)
        with self._lock:
            self._buffer.append(line)
            self.events_written += 1
            if len(self._buffer) >= self._flush_every:
                self._drain()

    def _drain(self) -> None:
        if not self._buffer or self._handle.closed:
            return
        self._handle.write("\n".join(self._buffer) + "\n")
        self._buffer.clear()
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def flush(self) -> None:
        with self._lock:
            self._drain()

    def close(self) -> None:
        with self._lock:
            self._drain()
            if not self._handle.closed:
                self._handle.close()


class Span:
    """Context manager for one traced interval."""

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent", "_start", "_end_attrs",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = None
        self.parent = None
        self._start = 0.0
        self._end_attrs = None

    def set(self, **attrs) -> None:
        """Attach attributes reported on the span_end event."""
        if self._end_attrs is None:
            self._end_attrs = {}
        self._end_attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = next(tracer._ids)
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        self._start = tracer.clock()
        event = {
            "t": round(self._start - tracer.origin, 6),
            "type": "span_start",
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
        }
        for key, value in self.attrs.items():
            event[key] = _safe(value)
        tracer.sink.emit(event)
        stack.append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        now = tracer.clock()
        stack = tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        event = {
            "t": round(now - tracer.origin, 6),
            "type": "span_end",
            "id": self.span_id,
            "name": self.name,
            "dur": round(now - self._start, 6),
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self._end_attrs:
            for key, value in self._end_attrs.items():
                event[key] = _safe(value)
        tracer.sink.emit(event)


class Tracer:
    """Emits span/phase/progress/meta events against a monotonic origin."""

    def __init__(self, sink=None, clock=time.monotonic) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.clock = clock
        self.origin = clock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def event(self, type_: str, **fields) -> None:
        event = {
            "t": round(self.clock() - self.origin, 6),
            "type": type_,
            "span": self.current_span(),
        }
        for key, value in fields.items():
            event[key] = _safe(value)
        self.sink.emit(event)

    def phase(self, name: str, seconds: float, **fields) -> None:
        """Report aggregate time spent in a named phase."""
        self.event("phase", name=name, seconds=round(seconds, 6), **fields)

    def meta(self, **fields) -> None:
        self.event("meta", **fields)

    @property
    def events_written(self) -> int:
        return self.sink.events_written

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()
