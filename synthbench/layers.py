"""Per-layer timing for the benchmark: wrappers, spans, and the split.

The traced repeat's child calls :func:`install` after importing ``repro``
and before building anything.  It replaces public functions and methods
of each layer with wrappers that record a span in memory: name, start,
end, the innermost open span on the same thread as parent, and a few
counts read from the call's arguments or result.  The program itself is
not modified and its own telemetry stays off.  Per-state and per-pattern
calls (codec encode, ``PruningPattern.subsumes``) are never wrapped; their
counts come from wrapper arguments and public counters instead.

With the fork start method the processes backend's workers inherit the
wrappers.  The wrapped ``worker_main`` writes each worker's spans to
``spans-<pid>.jsonl`` in the trace directory when the worker returns, the
child writes its own file after the timed section, and the driver merges
every file of the directory with :func:`layer_metrics`.

A layer's self time is its spans' duration minus the part of it that
child spans cover, so the self times of every span under a root add up to
the root's duration; ``trace.self_sum_error_frac`` checks that they do.
"""

from __future__ import annotations

import collections
import json
import math
import os
import resource
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

#: Which end-to-end metric each layer should move, on which workloads,
#: and on which workloads it must do no work at all (the bypass side).
LAYER_MOVES: Dict[str, dict] = {
    "setup": {
        "moves": [("setup_s", ("synth-cold", "store-record", "store-replay",
                               "synth-processes", "verify-zoo", "synth-fuzz"))],
        "idle_on": (),
        "idle_metric": None,
    },
    "engine": {
        "moves": [("wall_s", ("synth-cold", "store-record", "store-replay")),
                  ("throughput_per_s", ("synth-cold", "store-record",
                                        "store-replay"))],
        "idle_on": ("verify-zoo",),
        "idle_metric": "engine.evaluated",
    },
    "pruning": {
        "moves": [("wall_s", ("synth-cold", "store-record", "store-replay",
                              "synth-processes"))],
        "idle_on": ("verify-zoo",),
        "idle_metric": "pruning.table_add_calls",
    },
    "prefix": {
        "moves": [("wall_s", ("synth-cold", "store-record")),
                  ("peak_rss_mb", ("synth-cold",))],
        "idle_on": ("store-replay", "verify-zoo"),
        "idle_metric": "prefix.builds",
    },
    "kernel": {
        "moves": [("throughput_per_s", ("verify-zoo",)),
                  ("wall_s", ("verify-zoo", "synth-cold", "synth-fuzz"))],
        "idle_on": ("store-replay",),
        "idle_metric": "kernel.checks",
    },
    "packed": {
        "moves": [("wall_s", ("synth-fuzz", "verify-zoo"))],
        "idle_on": ("store-replay",),
        "idle_metric": "packed.states_interned",
    },
    "store": {
        "moves": [("wall_s", ("store-record", "store-replay")),
                  ("setup_s", ("store-replay",))],
        "idle_on": ("synth-cold", "synth-processes", "verify-zoo",
                    "synth-fuzz"),
        "idle_metric": "store.lookups",
    },
    "dist": {
        "moves": [("wall_s", ("synth-processes",)),
                  ("cpu_s", ("synth-processes",))],
        "idle_on": ("synth-cold", "store-record", "store-replay",
                    "verify-zoo", "synth-fuzz"),
        "idle_metric": "dist.batches",
    },
}

#: Spans that start a tree: the timed section and each worker's lifetime.
ROOTS = ("run", "dist.worker")


class Tracer:
    """In-memory span recorder, one per process.

    A span is ``[name, start, end, parent, info]``; ``parent`` indexes the
    same list (``-1`` for a root) and times are ``time.monotonic()``, which
    on Linux is one clock for every process, so worker spans line up with
    the coordinator's.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: packed runtimes the wrapped ``PackedSpec.runtime`` handed out,
        #: by identity, so their counters can be read after the run
        self.runtimes: Dict[int, object] = {}
        #: every system a kernel ran on, by identity (first-run detection)
        self.systems: Dict[int, object] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, info=None) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [name, time.monotonic(), 0.0, stack[-1] if stack else -1, info]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def reset(self) -> None:
        """Forget everything inherited across a fork."""
        self.spans = []
        self.runtimes = {}
        self.systems = {}
        self._local = threading.local()

    def packed_counters(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for runtime in self.runtimes.values():
            for key, value in runtime.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def dump(self, trace_dir: str, role: str) -> None:
        """Write this process's spans to ``spans-<pid>.jsonl``."""
        header = {
            "pid": os.getpid(),
            "role": role,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "packed": self.packed_counters(),
        }
        path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, owner, attr: str, name: str,
          before=None, after=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``before(*args)`` runs ahead of the call and ``after(args, result,
    early)`` after it; what ``after`` returns becomes the span's ``info``.
    """
    original = getattr(owner, attr)

    def traced(*args, **kwargs):
        early = before(*args) if before is not None else None
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            tracer.spans[index][4] = after(args, result, early)
        return result

    setattr(owner, attr, traced)


def install(tracer: Tracer, trace_dir: str) -> None:
    """Wrap each layer's public entry points (call before any build)."""
    from repro.core import engine, pruning
    from repro.dist import coordinator, wire, worker
    from repro.mc import kernel, packed
    from repro.store import journal, projection, store

    _wrap(tracer, engine.SynthesisCore, "evaluate", "engine.evaluate")
    _wrap(tracer, engine.SynthesisCore, "handle_result", "engine.handle_result")
    _wrap(tracer, pruning.PruningTable, "add", "pruning.table_add",
          before=lambda table, pattern: len(table),
          after=lambda args, accepted, scanned: [scanned, bool(accepted)])
    # The engine calls the generaliser through its own module binding.
    _wrap(tracer, engine, "generalise_failure", "pruning.generalise")
    _wrap(tracer, pruning.DfsMatcher, "push", "pruning.matcher")
    _wrap(tracer, pruning.DfsMatcher, "pop", "pruning.matcher")

    def kernel_info(args, result, _early):
        explorer, stats = args[0], result.stats
        system = explorer.system
        # Holding each system keeps its id from being reused by a later one.
        first = id(system) not in tracer.systems
        tracer.systems[id(system)] = system
        return [first, stats.states_visited, stats.prefix_states_reused,
                stats.transitions_fired]

    _wrap(tracer, kernel.ExplorationKernel, "run", "kernel.run",
          after=kernel_info)

    def remember_runtime(_args, runtime, _early):
        tracer.runtimes[id(runtime)] = runtime

    _wrap(tracer, packed.PackedSpec, "runtime", "packed.runtime",
          after=remember_runtime)
    _wrap(tracer, store.VerdictStore, "__init__", "store.open")
    _wrap(tracer, store.VerdictStore, "lookup", "store.lookup",
          after=lambda args, hit, _early: hit is not None)
    _wrap(tracer, store.VerdictStore, "record", "store.record")
    _wrap(tracer, journal.VerdictJournal, "append", "store.append")
    _wrap(tracer, projection.SqliteProjection, "catch_up", "store.catch_up")
    _wrap(tracer, worker.BatchRunner, "run_batch", "dist.batch")
    _wrap(tracer, wire.WireSolution, "to_solution", "dist.inflate")

    worker_main = coordinator.worker_main

    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        index = tracer.open("dist.worker")
        try:
            worker_main(*args, **kwargs)
        finally:
            tracer.close(index)
            tracer.dump(trace_dir, role="worker")

    coordinator.worker_main = traced_worker_main


# -- analysis (driver side) ----------------------------------------------------


def load_processes(trace_dir: str) -> List[Tuple[dict, List[list]]]:
    """Every process's ``(header, spans)`` from a trace directory."""
    processes = []
    for entry in sorted(os.listdir(trace_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
            continue
        with open(os.path.join(trace_dir, entry)) as handle:
            header = json.loads(handle.readline())
            spans = [json.loads(line) for line in handle if line.strip()]
        processes.append((header, spans))
    return processes


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _self_times(spans: List[list]) -> List[float]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _union(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def _classify(spans: List[list]) -> List[str]:
    """Span names with each kernel run labelled as a check or a prefix build.

    ``SynthesisCore.evaluate`` builds any missing prefix checkpoints first
    and model checks the candidate last, so inside one evaluate every
    kernel run but the last builds a checkpoint.  Kernel runs outside an
    evaluate (``api.verify``) are checks.
    """
    names = [span[0] for span in spans]
    last_run: Dict[int, int] = {}
    for index, span in enumerate(spans):
        if span[0] == "kernel.run":
            last_run[span[3]] = index
    for index, span in enumerate(spans):
        if span[0] != "kernel.run":
            continue
        parent = span[3]
        build = (
            parent >= 0
            and spans[parent][0] == "engine.evaluate"
            and last_run[parent] != index
        )
        names[index] = "prefix.build" if build else "kernel.check"
    return names


def _percentile_ms(durations: List[float], share: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1] * 1000.0


def layer_metrics(
    processes: List[Tuple[dict, List[list]]],
    child: dict,
    untraced_wall_s: Optional[float],
    reference_evaluated: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced repeat.

    ``child`` is the traced child's result line (timestamps and outcome
    counts), ``untraced_wall_s`` the median timed section of the same
    workload's untraced repeats, and ``reference_evaluated`` the
    sequential evaluated count the processes backend is compared with.
    """
    outcome = collections.defaultdict(int, child["outcome"])
    durations: Dict[str, List[float]] = {}
    self_s: Dict[str, float] = {}
    first_run = 0.0
    busy_by_pid: Dict[int, float] = {}
    worker_lifetime = 0.0
    worker_rss_kb = 0
    packed_totals: Dict[str, int] = {}
    table_scanned = table_accepted = 0
    lookups_hit = 0
    kernel_states = kernel_transitions = 0
    batch_starts: List[float] = []
    root = None
    root_self = 0.0
    self_sum_error = 0.0
    for header, spans in processes:
        pid = header["pid"]
        for key, value in header["packed"].items():
            packed_totals[key] = packed_totals.get(key, 0) + value
        if header["role"] == "worker":
            worker_rss_kb = max(worker_rss_kb, header["maxrss_kb"])
        names = _classify(spans)
        own = _self_times(spans)
        totals: Dict[int, float] = {}
        for index, span in enumerate(spans):
            name = names[index]
            duration = span[2] - span[1]
            durations.setdefault(name, []).append(duration)
            self_s[name] = self_s.get(name, 0.0) + own[index]
            top = index
            while spans[top][3] >= 0:
                top = spans[top][3]
            totals[top] = totals.get(top, 0.0) + own[index]
            info = span[4]
            if name in ("kernel.check", "prefix.build") and info[0]:
                first_run += duration
            if name == "pruning.table_add":
                table_scanned += info[0]
                table_accepted += info[1]
            elif name == "store.lookup":
                lookups_hit += info
            elif name == "kernel.check":
                kernel_states += info[1] - info[2]
                kernel_transitions += info[3]
            elif name == "dist.batch":
                busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + duration
                batch_starts.append(span[1])
            elif name == "dist.worker":
                worker_lifetime += duration
            elif name == "run":
                root = span
                root_self = own[index]
        for top, total in totals.items():
            if spans[top][0] in ROOTS:
                duration = spans[top][2] - spans[top][1]
                error = abs(total - duration) / duration if duration else 0.0
                self_sum_error = max(self_sum_error, error)

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def count(name: str) -> int:
        return len(durations.get(name, ()))

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    wall = root[2] - root[1] if root is not None else 0.0
    evaluated = outcome["evaluated"]
    model_checks = outcome["model_checks"]
    checks = count("kernel.check")
    check_s = total("kernel.check")
    busy = sum(busy_by_pid.values())
    processes_run = bool(busy_by_pid)
    hits = packed_totals.get("pack_fire_memo_hits", 0)
    misses = packed_totals.get("pack_fire_memo_misses", 0)
    evaluate = durations.get("engine.evaluate", [])
    batches = durations.get("dist.batch", [])
    metrics = {
        "setup.import_s": child["import_s"],
        "setup.build_s": child["build_s"],
        "engine.evaluated": evaluated,
        "engine.model_checks": model_checks,
        "engine.model_check_frac": ratio(model_checks, evaluated),
        "engine.evaluated_frac": ratio(evaluated, outcome["candidate_space"]),
        "engine.evaluate_s": sum(evaluate),
        "engine.evaluate_p50_ms": _percentile_ms(evaluate, 0.5),
        "engine.evaluate_p99_ms": _percentile_ms(evaluate, 0.99),
        "engine.handle_result_self_s": self_s.get("engine.handle_result", 0.0),
        "engine.walk_self_s": root_self,
        "engine.self_s": layer_self("engine"),
        "pruning.table_add_calls": count("pruning.table_add"),
        "pruning.table_add_s": total("pruning.table_add"),
        "pruning.table_add_scanned": table_scanned,
        "pruning.table_add_accept_frac": ratio(
            table_accepted, count("pruning.table_add")),
        "pruning.generalise_calls": count("pruning.generalise"),
        "pruning.generalise_s": total("pruning.generalise"),
        "pruning.matcher_calls": count("pruning.matcher"),
        "pruning.matcher_s": total("pruning.matcher"),
        "pruning.patterns": outcome["failure_patterns"],
        "pruning.pruned": outcome["pruned"],
        "pruning.self_s": layer_self("pruning"),
        "prefix.builds": outcome["prefix_builds"],
        "prefix.build_s": total("prefix.build"),
        "prefix.hits": outcome["prefix_hits"],
        "prefix.hit_frac": ratio(outcome["prefix_hits"], model_checks),
        "prefix.states_reused": outcome["prefix_states_reused"],
        "prefix.self_s": layer_self("prefix"),
        "kernel.checks": checks,
        "kernel.check_s": check_s,
        "kernel.check_p50_ms": _percentile_ms(
            durations.get("kernel.check", []), 0.5),
        "kernel.check_p99_ms": _percentile_ms(
            durations.get("kernel.check", []), 0.99),
        "kernel.states": kernel_states,
        "kernel.transitions": kernel_transitions,
        "kernel.states_per_s": ratio(kernel_states, check_s),
        "kernel.first_run_s": first_run,
        "kernel.self_s": layer_self("kernel"),
        "packed.runtime_s": total("packed.runtime"),
        "packed.states_interned": packed_totals.get("pack_states_interned", 0),
        "packed.fire_memo_hit_frac": ratio(hits, hits + misses),
        "packed.decode_calls": packed_totals.get("pack_decode_calls", 0),
        "packed.self_s": layer_self("packed"),
        "store.open_s": total("store.open"),
        "store.lookups": count("store.lookup"),
        "store.lookup_s": total("store.lookup"),
        "store.lookup_p99_ms": _percentile_ms(
            durations.get("store.lookup", []), 0.99),
        "store.hit_frac": ratio(lookups_hit, count("store.lookup")),
        "store.records": count("store.record"),
        "store.record_s": total("store.record"),
        "store.append_s": total("store.append"),
        "store.catch_up_calls": count("store.catch_up"),
        "store.catch_up_s": total("store.catch_up"),
        "store.journal_bytes": outcome["journal_bytes"],
        "store.self_s": layer_self("store"),
        "dist.batches": len(batches),
        "dist.batch_p50_ms": _percentile_ms(batches, 0.5),
        "dist.worker_busy_s": busy,
        "dist.worker_idle_s": worker_lifetime - busy if processes_run else 0.0,
        "dist.worker_busy_frac": ratio(busy, worker_lifetime),
        "dist.busy_imbalance": (
            ratio(max(busy_by_pid.values()), min(busy_by_pid.values()))
            if processes_run else 0.0
        ),
        "dist.first_batch_s": (
            min(batch_starts) - root[1] if processes_run and root else 0.0
        ),
        "dist.coord_self_s": root_self if processes_run else 0.0,
        "dist.wire_inflate_s": total("dist.inflate"),
        "dist.extra_evaluated_frac": (
            evaluated / reference_evaluated - 1.0 if processes_run else 0.0
        ),
        "dist.worker_peak_rss_mb": worker_rss_kb / 1024.0,
        "trace.overhead_frac": (
            wall / untraced_wall_s - 1.0 if untraced_wall_s else 0.0
        ),
        "trace.attributed_frac": ratio(wall - root_self, wall),
        "trace.self_sum_error_frac": self_sum_error,
    }
    return metrics
