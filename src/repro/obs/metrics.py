"""Metrics registry: named counters, gauges, and histograms.

Design constraints, in order of importance:

* **Hot-loop cheap.** Call sites bind a handle once (``counter = registry.
  counter("mc_states_visited")``) and then call ``handle.inc()`` — a single
  attribute store, no dict lookup, no lock.  Handles are plain objects with
  ``__slots__``; the registry lock guards only registration and snapshots.
* **Mergeable.** ``snapshot()`` produces a plain-dict, JSON- and
  pickle-safe view; ``merge()`` folds a snapshot back into a registry.
  This is how the distributed coordinator aggregates per-batch deltas
  shipped in ``BatchResult`` — counters and histograms add, gauges take
  the maximum (every gauge in this codebase is a high-water mark).
* **Zero dependencies.** Standard library only.

Thread-safety note: handle updates are *not* individually locked.  Every
hot-path update in this repo comes from a single thread (the sequential
backend is single-threaded; the process backend merges snapshots in the
coordinator), so per-update locking would buy nothing and cost plenty.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
]

#: Default histogram bucket upper bounds (seconds-flavoured, exponential).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """Monotonic counter.  ``inc`` is the only mutator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value with high-water-mark merge semantics."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def track_max(self, value) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram of observed values (typically seconds)."""

    __slots__ = ("buckets", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.buckets:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _label_key(labels: Mapping[str, object]) -> str:
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class _Family:
    """All series of one metric name: label-key -> handle."""

    __slots__ = ("name", "kind", "help", "label_names", "series", "buckets")

    def __init__(self, name, kind, help_text, label_names, buckets):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = tuple(label_names)
        self.series: Dict[str, object] = {}
        self.buckets = buckets

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or DEFAULT_BUCKETS)
        return _KINDS[self.kind]()

    def child(self, key: str):
        handle = self.series.get(key)
        if handle is None:
            handle = self.series[key] = self._make()
        return handle


class MetricsRegistry:
    """Factory and aggregation point for metric handles.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the same handle (and raises if the kind or
    label names disagree — that is a programming error worth surfacing).
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------

    def _family(self, name, kind, help_text, label_names, buckets=None):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, label_names, buckets)
                self._families[name] = family
            elif family.kind != kind or family.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names!r}"
                )
            return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        family = self._family(name, "counter", help, sorted(labels))
        return family.child(_label_key(labels))

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        family = self._family(name, "gauge", help, sorted(labels))
        return family.child(_label_key(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        family = self._family(name, "histogram", help, sorted(labels), buckets)
        return family.child(_label_key(labels))

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict view: name -> {kind, help, series: {labelkey: data}}."""
        with self._lock:
            families = list(self._families.values())
        out: Dict[str, dict] = {}
        for family in families:
            series = {}
            for key, handle in family.series.items():
                if family.kind == "histogram":
                    series[key] = {
                        "count": handle.count,
                        "total": handle.total,
                        "min": handle.minimum,
                        "max": handle.maximum,
                        "buckets": list(handle.buckets),
                        "counts": list(handle.counts),
                    }
                else:
                    series[key] = handle.value
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def merge(self, snapshot: Mapping[str, dict]) -> None:
        """Fold a ``snapshot()`` (or ``diff_snapshots``) into this registry.

        Counters and histograms accumulate; gauges keep the maximum,
        so worker high-water marks survive aggregation.
        """
        for name, family_data in snapshot.items():
            kind = family_data["kind"]
            family = self._family(
                name, kind, family_data.get("help", ""),
                _label_names_of(family_data),
            )
            for key, data in family_data["series"].items():
                if kind == "histogram" and family.buckets is None:
                    family.buckets = tuple(data["buckets"])
                handle = family.child(key)
                if kind == "counter":
                    handle.inc(data)
                elif kind == "gauge":
                    handle.track_max(data)
                else:
                    handle.count += data["count"]
                    handle.total += data["total"]
                    if data["min"] is not None:
                        if handle.minimum is None or data["min"] < handle.minimum:
                            handle.minimum = data["min"]
                    if data["max"] is not None:
                        if handle.maximum is None or data["max"] > handle.maximum:
                            handle.maximum = data["max"]
                    if list(handle.buckets) == data["buckets"]:
                        for i, c in enumerate(data["counts"]):
                            handle.counts[i] += c

    def render(self) -> str:
        """Human-readable one-line-per-series text dump, sorted by name."""
        lines = []
        for name, family in sorted(self.snapshot().items()):
            for key, data in sorted(family["series"].items()):
                label = f"{{{key}}}" if key else ""
                if family["kind"] == "histogram":
                    mean = data["total"] / data["count"] if data["count"] else 0.0
                    value = (
                        f"count={data['count']} total={data['total']:.4f}s "
                        f"mean={mean * 1000:.3f}ms"
                    )
                else:
                    value = str(data)
                lines.append(f"{name}{label} {value}")
        return "\n".join(lines)


def _label_names_of(family_data: Mapping[str, dict]) -> Iterable[str]:
    for key in family_data["series"]:
        if key:
            return [part.split("=", 1)[0] for part in key.split(",")]
        return []
    return []


def diff_snapshots(
    before: Mapping[str, dict], after: Mapping[str, dict]
) -> Dict[str, dict]:
    """``after - before``, suitable for shipping as a per-batch delta.

    Counters and histogram counts subtract; gauges keep the ``after``
    value (a high-water mark never regresses).  Families or series
    absent from ``before`` pass through unchanged.
    """
    out: Dict[str, dict] = {}
    for name, family_after in after.items():
        family_before = before.get(name)
        kind = family_after["kind"]
        series_out = {}
        for key, data in family_after["series"].items():
            prior = (family_before or {"series": {}})["series"].get(key)
            if prior is None:
                series_out[key] = data
            elif kind == "counter":
                delta = data - prior
                if delta:
                    series_out[key] = delta
            elif kind == "gauge":
                series_out[key] = data
            else:
                count = data["count"] - prior["count"]
                if count:
                    series_out[key] = {
                        "count": count,
                        "total": data["total"] - prior["total"],
                        "min": data["min"],
                        "max": data["max"],
                        "buckets": data["buckets"],
                        "counts": [
                            c - p for c, p in zip(data["counts"], prior["counts"])
                        ],
                    }
        if series_out:
            out[name] = {
                "kind": kind,
                "help": family_after.get("help", ""),
                "series": series_out,
            }
    return out
