"""Tests for trace spans, event schema, and the JSONL sink."""

import json
import threading

import pytest

from repro.obs.statsview import load_events
from repro.obs.tracing import JsonlTraceSink, NullSink, Tracer


class RecordingSink:
    path = None

    def __init__(self):
        self.events = []
        self.events_written = 0

    def emit(self, event):
        self.events.append(event)
        self.events_written += 1

    def flush(self):
        pass

    def close(self):
        pass


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestSpans:
    def test_span_start_end_schema(self):
        sink, clock = RecordingSink(), FakeClock()
        tracer = Tracer(sink, clock=clock)
        with tracer.span("explore", protocol="msi") as span:
            clock.now += 2.5
            span.set(verdict="success")
        start, end = sink.events
        assert start["type"] == "span_start"
        assert start["name"] == "explore"
        assert start["protocol"] == "msi"
        assert start["parent"] is None
        assert start["t"] == pytest.approx(0.0)
        assert end["type"] == "span_end"
        assert end["id"] == start["id"]
        assert end["dur"] == pytest.approx(2.5)
        assert end["verdict"] == "success"

    def test_nesting_sets_parent(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        starts = [e for e in sink.events if e["type"] == "span_start"]
        assert starts[1]["parent"] == outer.span_id
        assert inner.parent == outer.span_id

    def test_spans_nest_per_thread(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        with tracer.span("root"):

            def worker():
                with tracer.span("child"):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        child_start = [
            e for e in sink.events
            if e["type"] == "span_start" and e["name"] == "child"
        ][0]
        assert child_start["parent"] is None

    def test_spans_nest_inside_a_worker_thread(self):
        sink = RecordingSink()
        tracer = Tracer(sink)

        spans = {}

        def worker():
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    spans.update(outer=outer, inner=inner)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert spans["outer"].parent is None
        assert spans["inner"].parent == spans["outer"].span_id
        starts = {
            e["name"]: e for e in sink.events if e["type"] == "span_start"
        }
        assert starts["outer"]["parent"] is None
        assert starts["inner"]["parent"] == starts["outer"]["id"]

    def test_exception_records_error(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        end = sink.events[-1]
        assert end["error"] == "ValueError"

    def test_phase_and_meta_events(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        tracer.phase("canonicalise", 0.125, states=10)
        tracer.meta(command="verify msi")
        phase, meta = sink.events
        assert phase["type"] == "phase"
        assert phase["name"] == "canonicalise"
        assert phase["seconds"] == pytest.approx(0.125)
        assert phase["states"] == 10
        assert meta["type"] == "meta"
        assert meta["command"] == "verify msi"

    def test_unserialisable_attrs_coerced(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        with tracer.span("s", thing=object(), seq=(1, 2)):
            pass
        start = sink.events[0]
        assert isinstance(start["thing"], str)
        assert start["seq"] == [1, 2]
        json.dumps(sink.events)  # everything JSON-clean


class TestJsonlSink:
    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceSink(path))
        with tracer.span("run", n=1):
            tracer.phase("expand", 0.5)
        tracer.close()
        events = load_events(path)
        assert [e["type"] for e in events] == [
            "span_start", "phase", "span_end",
        ]
        assert tracer.events_written == 3

    def test_batching_defers_disk_until_flush(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path, flush_every=1000)
        sink.emit({"type": "meta"})
        assert path.read_text() == ""  # buffered
        sink.flush()
        assert json.loads(path.read_text())["type"] == "meta"
        sink.close()

    def test_flush_every_triggers_drain(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path, flush_every=2)
        sink.emit({"n": 1})
        sink.emit({"n": 2})  # second event crosses the batch boundary
        assert len(path.read_text().splitlines()) == 2
        sink.close()

    def test_null_sink_counts_without_files(self):
        sink = NullSink()
        sink.emit({"type": "meta"})
        assert sink.events_written == 1
        assert sink.path is None
