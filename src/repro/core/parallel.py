"""Parallel synthesis (Section II, "Parallel Synthesis").

Distinct protocol candidates are model checked independently; the engine
splits each pass's candidate index space into contiguous ranges, one per
worker thread.  Exactly as in the paper:

* the *initial* run is dispatched on a single thread to discover the first
  set of holes;
* a global candidate vector (:class:`~repro.core.discovery.HoleRegistry`)
  registers newly discovered holes; its read path is lock-free;
* the pruning-pattern table is shared, so every worker benefits from
  patterns registered by the others as soon as it next looks — which is why
  multi-threaded runs evaluate slightly *fewer* candidates than sequential
  ones (compare Table I rows 2 vs 3 and 5 vs 6);
* when all workers finish the current pass, the global vector provides the
  next pass's (larger) candidate space.

**This backend is an algorithmic reproduction only.**  The paper uses C++
threads and reports 1.5x (MSI-small) / 2.5x (MSI-large) wall-clock speedups
at 4 threads; CPython's GIL serialises our pure-Python model checking, so
this thread backend reproduces the algorithmic effects (work splitting,
shared-pattern savings, evaluated-candidate counts) but *not* the wall-clock
speedups — at 4 threads it is typically no faster than sequential.  For real
multi-core speedups use the process backend
(:class:`repro.dist.DistributedSynthesisEngine`, CLI
``--backend processes``), which shards candidate batches across worker
processes and exchanges pruning patterns at batch boundaries.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.core.engine import (
    FAIL_TAG,
    SUCCESS_TAG,
    SynthesisConfig,
    SynthesisCore,
    SynthesisObserver,
    _PassWalker,
    _StopSynthesis,
    resolve_telemetry,
)
from repro.core.report import SynthesisReport
from repro.mc.system import TransitionSystem
from repro.obs import Telemetry
from repro.util.itertools2 import product_size, split_ranges
from repro.util.timing import Stopwatch


class ParallelSynthesisEngine:
    """Pass-parallel synthesis driver over a shared pruning table."""

    def __init__(
        self,
        system: TransitionSystem,
        config: Optional[SynthesisConfig] = None,
        threads: int = 4,
        observer: Optional[SynthesisObserver] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.system = system
        self.config = config or SynthesisConfig()
        self.threads = threads
        self.telemetry, self._owns_telemetry = resolve_telemetry(
            self.config, telemetry
        )
        # The verdict store is consulted read-only here: evaluations run
        # outside the shared lock, so recording would race the registry
        # snapshot taken around each model-checker run.  Thread runs still
        # replay verdicts recorded by sequential/process runs.
        self.core = SynthesisCore(
            system, self.config, observer, telemetry=self.telemetry,
            store_readonly=True,
        )
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def run(self) -> SynthesisReport:
        """Run the thread-parallel synthesis and return the report."""
        core = self.core
        report = SynthesisReport(
            system_name=self.system.name,
            pruning=self.config.pruning,
            threads=self.threads,
            backend="threads",
            explorer=self.config.explorer,
        )
        watch = Stopwatch.started()
        tele = self.telemetry
        with tele.span(
            "synthesis", system=self.system.name, backend="threads",
            threads=self.threads,
        ) as span:
            if tele.enabled:
                # Worker threads start with empty span stacks; parent
                # their evaluate spans under the run's root span.
                tele.tracer.default_parent = span.span_id
            try:
                core.run_initial()
            except _StopSynthesis:
                self._stop.set()
            if not self._stop.is_set():
                self._run_passes(report)
            if tele.enabled:
                tele.tracer.default_parent = None
                span.set(
                    evaluated=core.evaluated, solutions=len(core.solutions)
                )
        report.elapsed_seconds = watch.elapsed
        report = core.finalize_report(report)
        core.close_store()
        if self._owns_telemetry:
            tele.close()
        return report

    def _run_passes(self, report: SynthesisReport) -> None:
        core = self.core
        previous_count = 0
        while not self._stop.is_set():
            holes = core.registry.holes
            if len(holes) == previous_count:
                break
            if (
                self.config.max_passes is not None
                and report.passes >= self.config.max_passes
            ):
                core.stopped_early = True
                break
            first_new = previous_count
            previous_count = len(holes)
            report.passes += 1
            core.observer.on_pass_started(report.passes, holes)
            radices = [hole.arity for hole in holes]
            total = product_size(radices)
            ranges = split_ranges(total, self.threads)
            workers: List[threading.Thread] = []
            errors: List[BaseException] = []

            def work(start: int, end: int) -> None:
                try:
                    self._walk_range(radices, start, end, first_new, report)
                except _StopSynthesis:
                    self._stop.set()
                except BaseException as exc:  # surface worker crashes
                    errors.append(exc)
                    self._stop.set()

            for start, end in ranges:
                thread = threading.Thread(
                    target=work, args=(start, end), name=f"verc3-worker-{start}"
                )
                workers.append(thread)
                thread.start()
            for thread in workers:
                thread.join()
            if errors:
                raise errors[0]

    def _walk_range(self, radices: List[int], start: int, end: int,
                    first_new: int, report: SynthesisReport) -> None:
        core = self.core
        walker = _PassWalker(core, radices, start, end)
        try:
            for digits in walker.enumerator:
                if self._stop.is_set():
                    raise _StopSynthesis()
                core.process_candidate(walker, digits, first_new, lock=self._lock)
        finally:
            counters = walker.counters
            with self._lock:
                report.covered += counters.covered
                report.pruned_failure += counters.skipped.get(FAIL_TAG, 0)
                report.skipped_success += counters.skipped.get(SUCCESS_TAG, 0)
