"""``repro.obs`` — zero-dependency observability: metrics, traces, progress.

The :class:`Telemetry` facade bundles the three concerns behind one
handle that plumbs through every layer (kernel, engine, backends,
CLI).  The disabled path is the :data:`NULL_TELEMETRY`
singleton: ``enabled`` is False and every method is a no-op, so
instrumented call sites decide once at setup time and the hot loops
pay at most a predicate check per state.

Construction::

    tele = Telemetry.create(trace_path="run.jsonl", progress=True)
    with tele.span("synth", skeleton="msi-small"):
        ...
    tele.close()

or from a :class:`~repro.core.engine.SynthesisConfig` via
:meth:`Telemetry.from_config` — which is what the engines do when the
config enables telemetry and the caller did not hand one down.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.metrics import MetricsRegistry, diff_snapshots
from repro.obs.progress import ProgressReporter
from repro.obs.statsview import build_stats, load_events, render_stats
from repro.obs.tracing import JsonlTraceSink, NullSink, Tracer

__all__ = [
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "ProgressReporter",
    "Telemetry",
    "Tracer",
    "build_stats",
    "diff_snapshots",
    "load_events",
    "render_stats",
]


class _NullSpan:
    """Shared no-op context manager returned by the null telemetry."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class _NullTelemetry:
    """Disabled telemetry: one shared instance, every path a no-op."""

    __slots__ = ()

    enabled = False
    metrics = None
    tracer = None
    progress = None
    trace_path = None

    def span(self, name, **attrs):
        return _NULL_SPAN

    def event(self, type_, **fields):
        pass

    def phase(self, name, seconds, **fields):
        pass

    def meta(self, **fields):
        pass

    @property
    def events_written(self):
        return 0

    def write_metrics(self, path):
        pass

    def flush(self):
        pass

    def close(self):
        pass


NULL_TELEMETRY = _NullTelemetry()


class Telemetry:
    """Live telemetry: a metrics registry, a tracer, optional progress."""

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(NullSink())
        self.progress = progress
        self.trace_path = self.tracer.sink.path

    @classmethod
    def create(
        cls,
        trace_path=None,
        progress: bool = False,
        progress_interval: float = 1.0,
        stream=None,
        verbose: bool = False,
    ) -> "Telemetry":
        """Build a live telemetry bundle.

        ``verbose`` routes through :func:`~repro.util.logging.
        enable_verbose_logging`, making the telemetry config the single
        switchboard for run visibility.
        """
        if verbose:
            from repro.util.logging import enable_verbose_logging

            enable_verbose_logging()
        sink = JsonlTraceSink(trace_path) if trace_path else NullSink()
        tracer = Tracer(sink)
        reporter = None
        if progress:
            reporter = ProgressReporter(
                interval=progress_interval, stream=stream, tracer=tracer
            )
        return cls(tracer=tracer, progress=reporter)

    @classmethod
    def from_config(cls, config, stream=None, worker_id=None) -> "Telemetry":
        """Build from a ``SynthesisConfig``'s telemetry fields.

        Workers pass ``worker_id`` to get a private sink next to the
        coordinator's (``<trace_path>.worker-<id>``); worker progress is
        always off — interleaved stderr from N processes is noise.
        """
        trace_path = config.trace_path
        if trace_path and worker_id is not None:
            trace_path = f"{trace_path}.worker-{worker_id}"
        return cls.create(
            trace_path=trace_path,
            progress=bool(config.progress) and worker_id is None,
            progress_interval=config.progress_interval,
            stream=stream,
        )

    # -- delegation -----------------------------------------------------

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs)

    def event(self, type_, **fields):
        self.tracer.event(type_, **fields)

    def phase(self, name, seconds, **fields):
        self.tracer.phase(name, seconds, **fields)

    def meta(self, **fields):
        self.tracer.meta(**fields)

    @property
    def events_written(self) -> int:
        return self.tracer.events_written

    def write_metrics(self, path) -> None:
        """Dump the metrics snapshot as pretty JSON (``--metrics-out``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.metrics.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def flush(self) -> None:
        self.tracer.flush()

    def close(self) -> None:
        if self.progress is not None:
            self.progress.finish()
        self.tracer.close()
