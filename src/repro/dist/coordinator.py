"""Coordinator side of distributed synthesis.

:class:`DistributedSynthesisEngine` is the process backend: it shards each
enumeration pass's candidate index space into batches, dispatches them to a
pool of worker processes, and merges the returned deltas into the
authoritative :class:`~repro.core.engine.SynthesisCore`.  Worker
processes model check truly concurrently (CPython's GIL would serialise
threads), which is what recovers the paper's multi-worker wall-clock
speedups on multi-core hosts.

Design points:

* **Work stealing beats static splitting.**  Each pass is cut into
  roughly ``workers x batches_per_worker`` shard-aligned ranges
  (:func:`plan_shard_batches`) and the batches go on **one shared task queue**
  every worker pulls from; a worker that drew cheap (heavily pruned)
  ranges immediately steals the next pending batch instead of idling
  behind a fixed assignment (a static one-range-per-worker split suffers
  exactly that).
* **Pattern exchange by broadcast.**  With a shared queue the coordinator
  cannot know which worker runs the next batch, so newly accepted pruning
  patterns are broadcast to every worker's control queue
  (:class:`~repro.dist.messages.PatternUpdate`) as soon as the producing
  batch merges, tracked by a global version watermark.  Every worker
  prunes with (slightly stale) global knowledge; evaluated-candidate
  counts therefore vary slightly run to run, exactly like the paper's
  855-vs-825 threads column — solutions do not.
* **Packed wire format.**  Candidate and verdict traffic is integer
  codes and hole-digit tuples (:mod:`repro.dist.wire`): tasks are index
  ranges, patterns are constraint tuples, solutions come home as
  :class:`~repro.dist.wire.WireSolution` digit tuples that the
  coordinator re-renders against its canonical hole snapshot.
* **Deterministic aggregation.**  Solutions and newly discovered holes
  are buffered per batch and merged in batch index order at the pass
  boundary, so the reported solution order and the canonical hole order
  are independent of batch *completion* order.  (Pattern-arrival timing
  can still, in principle, decide whether a discovery-bearing candidate
  is evaluated or pruned, so hole order is reproducible only as far as
  skeletons discover their holes robustly — the bundled ones do, which
  the backend-equivalence tests pin down.)
* **Coordinator owns stop conditions.**  Workers run with the solution
  limit and global evaluation cap stripped; the coordinator stops
  dispatching when a merged limit trips, drains in-flight batches, and
  truncates deterministically.  The solution limit is exact (excess
  solutions are dropped before the observer sees them);
  ``max_evaluations`` is a *safety net*, enforced coarsely — each
  in-flight batch is granted the budget remaining at dispatch time, so
  the cap can overshoot by what the ``workers x max_inflight`` in-flight
  batches evaluate before the first trip reaches the coordinator.
  Splitting the grant instead would either idle workers or silently skip
  parts of a batch's range, both worse trades for a safety net.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from collections import deque
from math import prod
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.core.engine import (
    FAIL_TAG,
    SUCCESS_TAG,
    SynthesisConfig,
    SynthesisCore,
    SynthesisObserver,
    _StopSynthesis,
    resolve_telemetry,
)
from repro.core.pruning import PruningPattern
from repro.core.report import SynthesisReport
from repro.dist.messages import (
    BatchResult,
    BatchTask,
    HoleSpec,
    PassStart,
    PatternUpdate,
    Shutdown,
    SystemSpec,
    WorkerCrash,
)
from repro.dist.worker import worker_main
from repro.errors import SynthesisError
from repro.obs import Telemetry
from repro.util.timing import Stopwatch

#: Safety net: a worker silent for this long with no live process is fatal.
_RESULT_POLL_SECONDS = 1.0


def plan_batches(
    total: int,
    workers: int,
    batches_per_worker: int = 4,
    min_batch_size: int = 16,
) -> List[Tuple[int, int]]:
    """Cut ``range(total)`` into contiguous dispatch batches.

    The heuristic balances two pressures: more batches mean better load
    balance and more frequent cross-worker pattern exchange; fewer batches
    mean less IPC and fewer matcher rebuilds.  ``workers x
    batches_per_worker`` batches of at least ``min_batch_size`` indices
    each is a good middle ground (pruned subtrees make index ranges cheap
    to cover, so the floor only matters for tiny passes).
    """
    if total <= 0:
        return []
    target = max(1, workers * batches_per_worker)
    size = max(min_batch_size, -(-total // target))
    return [(start, min(start + size, total)) for start in range(0, total, size)]


def plan_shard_batches(
    radices,
    workers: int,
    batches_per_worker: int = 4,
    min_batch_size: int = 16,
) -> List[Tuple[int, int]]:
    """Cut the candidate index space into *shard-aligned* dispatch batches.

    A shard fixes the leading holes and spans every completion of the
    rest: a contiguous block of ``prod(radices[k:])`` indices in the
    lexicographic candidate order.  ``k`` is the first position at which
    the leading product reaches ``workers x batches_per_worker`` (or the
    end, when the space is too small).  Consecutive shards coalesce up to
    the :func:`plan_batches` size floor, so batches keep its count/size
    guarantees and their boundaries fall on shared-prefix subtrees.
    """
    target = max(1, workers * batches_per_worker)
    shards = 1
    position = 0
    while shards < target and position < len(radices):
        shards *= radices[position]
        position += 1
    shard_size = prod(radices[position:])
    total = shards * shard_size
    if total <= 0:
        return []
    floor = max(min_batch_size, -(-total // target))
    step = shard_size * max(1, -(-floor // shard_size))
    return [(start, min(start + step, total)) for start in range(0, total, step)]


class DistributedSynthesisEngine:
    """Process-parallel synthesis driver (the ``processes`` backend).

    Args:
        spec: a :class:`SystemSpec` (or bare catalog name) identifying the
            skeleton.  A spec — not a built system — is required because
            worker processes rebuild the system locally; see
            :mod:`repro.protocols.catalog`.
        config: synthesis knobs, shared verbatim with workers (minus
            global stop conditions, which the coordinator enforces).
        workers: number of worker processes (defaults to 4, the paper's
            testbed width).
        observer: coordinator-side observer.  ``on_prune``/``on_run`` fire
            only for the initial run (per-candidate events happen inside
            workers); pass, pattern, and solution callbacks fire normally.
        batches_per_worker / min_batch_size: chunking heuristic, see
            :func:`plan_batches`.
        max_inflight: batches queued per worker before the first result
            returns (2 hides dispatch latency without hoarding work).
        start_method: multiprocessing start method; defaults to ``fork``
            where available (cheap on Linux) else ``spawn``.
    """

    def __init__(
        self,
        spec: Union[SystemSpec, str],
        config: Optional[SynthesisConfig] = None,
        workers: int = 4,
        observer: Optional[SynthesisObserver] = None,
        batches_per_worker: int = 4,
        min_batch_size: int = 16,
        max_inflight: int = 2,
        start_method: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if isinstance(spec, str):
            spec = SystemSpec(spec)
        if not isinstance(spec, SystemSpec):
            raise SynthesisError(
                "DistributedSynthesisEngine needs a SystemSpec (or catalog "
                "name), not a built TransitionSystem: worker processes must "
                "rebuild the system from its spec"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.spec = spec
        self.system = spec.build()
        self.config = config or SynthesisConfig()
        self.workers = workers
        self.batches_per_worker = batches_per_worker
        self.min_batch_size = min_batch_size
        self.max_inflight = max_inflight
        if start_method is None:
            start_method = os.environ.get("REPRO_DIST_START_METHOD")
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._start_method = start_method
        # Workers derive their own telemetry from the shipped config
        # (per-worker sinks); this bundle is the coordinator's, and the
        # aggregation point for the metric deltas batches bring home.
        self.telemetry, self._owns_telemetry = resolve_telemetry(
            self.config, telemetry
        )
        self.core = SynthesisCore(
            self.system, self.config, observer, telemetry=self.telemetry
        )
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._tasks = None
        self._control_queues: List = []
        self._results = None

    # -- worker lifecycle ---------------------------------------------------

    def _ensure_workers(self) -> None:
        if self._processes:
            return
        ctx = multiprocessing.get_context(self._start_method)
        self._results = ctx.Queue()
        # One shared task queue (the work-stealing pool) plus a private
        # FIFO control queue per worker for the ordered messages
        # (PassStart, PatternUpdate, Shutdown).
        self._tasks = ctx.Queue()
        for worker_id in range(self.workers):
            control = ctx.Queue()
            process = ctx.Process(
                target=worker_main,
                args=(worker_id, self.spec, self.config, self._tasks,
                      control, self._results),
                name=f"repro-dist-{worker_id}",
                daemon=True,
            )
            process.start()
            self._control_queues.append(control)
            self._processes.append(process)

    def _shutdown_workers(self) -> None:
        # One Shutdown per worker on the shared queue stops workers
        # blocked stealing; one per control queue stops workers blocked
        # waiting for a pass to catch up.
        if self._tasks is not None:
            for _ in self._processes:
                try:
                    self._tasks.put(Shutdown())
                except (OSError, ValueError):
                    pass
        for control in self._control_queues:
            try:
                control.put(Shutdown())
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=5)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1)
        if self._results is not None:
            self._results.cancel_join_thread()
        if self._tasks is not None:
            self._tasks.cancel_join_thread()
        for control in self._control_queues:
            control.cancel_join_thread()
        self._processes = []
        self._tasks = None
        self._control_queues = []
        self._results = None

    def _next_result(self, outstanding: int) -> Union[BatchResult, WorkerCrash]:
        """Next batch result, watching for hard-killed workers.

        With a shared task queue the coordinator no longer knows which
        worker holds which batch, so the safety net is collective: if any
        worker process is dead while batches are outstanding and several
        consecutive polls come back empty, the stolen batch is presumed
        lost with it.  Crashes with a traceback arrive as ordinary
        :class:`WorkerCrash` messages, not here.
        """
        empty_polls = 0
        while True:
            try:
                return self._results.get(timeout=_RESULT_POLL_SECONDS)
            except queue_module.Empty:
                dead = [
                    process.name
                    for process in self._processes
                    if not process.is_alive()
                ]
                if not dead or not outstanding:
                    continue
                empty_polls += 1
                # Give live workers a few grace polls: a dead *idle*
                # worker is harmless while the others chew a long batch.
                if empty_polls >= 3:
                    raise SynthesisError(
                        f"worker process(es) died mid-batch: "
                        f"{', '.join(dead)}"
                    ) from None

    # -- run ---------------------------------------------------------------

    def run(self) -> SynthesisReport:
        """Run the distributed synthesis and return the merged report."""
        core = self.core
        report = SynthesisReport(
            system_name=self.system.name,
            pruning=self.config.pruning,
            threads=self.workers,
            backend="processes",
        )
        watch = Stopwatch.started()
        tele = self.telemetry
        with tele.span(
            "synthesis", system=self.system.name, backend="processes",
            workers=self.workers,
        ) as span:
            try:
                core.run_initial()
                self._run_passes(report)
            except _StopSynthesis:
                pass
            finally:
                self._shutdown_workers()
            if tele.enabled:
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
        while True:
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
            with self.telemetry.span(
                "pass", index=report.passes, holes=len(holes)
            ):
                self._run_pass(report, holes, first_new)

    def _run_pass(self, report: SynthesisReport, holes, first_new: int) -> None:
        core = self.core
        config = self.config
        radices = [hole.arity for hole in holes]
        batches = plan_shard_batches(
            radices, self.workers, self.batches_per_worker,
            self.min_batch_size,
        )
        self._ensure_workers()

        pass_start = PassStart(
            pass_index=report.passes,
            first_new=first_new,
            hole_specs=tuple(HoleSpec.from_hole(hole) for hole in holes),
            fail_patterns=core.fail_table.constraints_since(),
            success_patterns=core.success_table.constraints_since(),
        )
        # PassStart goes on the control queues *before* any task enters
        # the shared queue: each control queue is FIFO, so a worker that
        # steals a task from this pass is guaranteed to find the matching
        # PassStart when it blocks to catch up.
        for control in self._control_queues:
            control.put(pass_start)
        # One global pattern watermark (the broadcast reaches everyone).
        fail_seen = core.fail_table.version
        success_seen = core.success_table.version

        pending: Deque[Tuple[int, int]] = deque(batches)
        outstanding = 0
        next_batch_id = 0
        pass_base_evaluated = core.evaluated
        solutions_by_batch: Dict[int, Tuple] = {}
        holes_by_batch: Dict[int, Tuple[HoleSpec, ...]] = {}
        evaluated_by_batch: Dict[int, int] = {}
        stop_dispatch = False
        budget_tripped = False

        def merged_solution_count() -> int:
            buffered = sum(len(sols) for sols in solutions_by_batch.values())
            return len(core.solutions) + buffered

        def dispatch() -> None:
            nonlocal outstanding, next_batch_id
            if stop_dispatch or not pending:
                return
            start, end = pending.popleft()
            budget = None
            if config.max_evaluations is not None:
                budget = max(0, config.max_evaluations - core.evaluated)
            task = BatchTask(
                batch_id=next_batch_id,
                start=start,
                end=end,
                eval_budget=budget,
                pass_index=report.passes,
            )
            next_batch_id += 1
            self._tasks.put(task)
            outstanding += 1

        def broadcast_patterns() -> None:
            nonlocal fail_seen, success_seen
            fail_delta = core.fail_table.constraints_since(fail_seen)
            success_delta = core.success_table.constraints_since(success_seen)
            if not fail_delta and not success_delta:
                return
            fail_seen = core.fail_table.version
            success_seen = core.success_table.version
            update = PatternUpdate(
                pass_index=report.passes,
                fail_delta=fail_delta,
                success_delta=success_delta,
            )
            for control in self._control_queues:
                control.put(update)

        # Prime the shared queue with enough work to keep every worker's
        # pipeline full; one more batch enters per result merged.
        for _ in range(min(len(pending), self.workers * self.max_inflight)):
            dispatch()

        tele = self.telemetry
        instrumented = tele.enabled
        tick = (
            tele.progress.tick
            if instrumented and tele.progress is not None
            else None
        )
        wait_seconds = 0.0
        while outstanding:
            if instrumented:
                wait_begin = time.perf_counter()
                result = self._next_result(outstanding)
                wait_seconds += time.perf_counter() - wait_begin
            else:
                result = self._next_result(outstanding)
            outstanding -= 1
            if isinstance(result, WorkerCrash):
                raise SynthesisError(
                    f"distributed worker {result.worker_id} crashed:\n"
                    f"{result.traceback_text}"
                )
            self._merge_batch(report, result, holes)
            solutions_by_batch[result.start] = result.solutions
            holes_by_batch[result.start] = result.new_holes
            evaluated_by_batch[result.start] = result.evaluated
            if result.inherent_failure:
                core.inherent_failure = True
                core.inherent_failure_message = result.inherent_failure_message
                stop_dispatch = True
            if result.budget_exhausted:
                budget_tripped = True
                stop_dispatch = True
            if (
                config.max_evaluations is not None
                and core.evaluated >= config.max_evaluations
            ):
                budget_tripped = True
                stop_dispatch = True
            if (
                config.solution_limit is not None
                and merged_solution_count() >= config.solution_limit
            ):
                stop_dispatch = True
            if tick is not None:
                tick(
                    evaluated=core.evaluated,
                    solutions=merged_solution_count(),
                    patterns=len(core.fail_table),
                    peak_states=core.peak_states,
                )
            if not stop_dispatch:
                broadcast_patterns()
                dispatch()

        if instrumented and wait_seconds:
            # Coordinator idle time spent blocked on worker results this
            # pass — the distributed analogue of a kernel phase.
            tele.phase("wait_workers", wait_seconds, index=report.passes)

        self._merge_pass_end(
            holes,
            pass_base_evaluated,
            solutions_by_batch,
            holes_by_batch,
            evaluated_by_batch,
        )

        if core.inherent_failure:
            raise _StopSynthesis()
        if (
            config.solution_limit is not None
            and len(core.solutions) >= config.solution_limit
        ):
            del core.solutions[config.solution_limit:]
            core.stopped_early = True
            raise _StopSynthesis()
        if budget_tripped:
            core.stopped_early = True
            raise _StopSynthesis()
        if pending:
            # Dispatch stopped early but no terminal condition fired on
            # merge: treat as an early stop rather than silently undercover.
            core.stopped_early = True
            raise _StopSynthesis()

    # -- merging ------------------------------------------------------------

    def _merge_batch(self, report: SynthesisReport, result: BatchResult,
                     holes) -> None:
        core = self.core
        report.covered += result.covered
        report.pruned_failure += result.skipped.get(FAIL_TAG, 0)
        report.skipped_success += result.skipped.get(SUCCESS_TAG, 0)
        core.evaluated += result.evaluated
        core.deduplicated += result.deduplicated
        core.merged_prefix_counters[0] += result.prefix_cache_hits
        core.merged_prefix_counters[1] += result.prefix_cache_builds
        core.merged_prefix_counters[2] += result.prefix_states_reused
        if result.peak_states > core.peak_states:
            core.peak_states = result.peak_states
        core.store_hits += result.store_hits
        core.store_writes += result.store_writes
        if (
            result.metrics
            and core.telemetry.enabled
            and core.telemetry.metrics is not None
        ):
            # Fold the worker's per-batch registry delta into the
            # coordinator's registry.  Counter/histogram merges commute,
            # gauges take the max, so the aggregate is independent of
            # batch completion order.
            core.telemetry.metrics.merge(result.metrics)
        for verdict, count in result.verdict_counts.items():
            core.verdict_counts[verdict] = (
                core.verdict_counts.get(verdict, 0) + count
            )
        for constraints in result.new_fail_patterns:
            pattern = PruningPattern(constraints)
            if core.fail_table.add(pattern):
                core.observer.on_pattern(pattern, holes)
        for constraints in result.new_success_patterns:
            core.success_table.add(PruningPattern(constraints))

    def _merge_pass_end(
        self,
        holes,
        pass_base_evaluated: int,
        solutions_by_batch: Dict[int, Tuple],
        holes_by_batch: Dict[int, Tuple[HoleSpec, ...]],
        evaluated_by_batch: Dict[int, int],
    ) -> None:
        """Fold buffered per-batch results in batch index order.

        Sorting by batch start index makes solution order, run indices,
        and the canonical hole order independent of completion order —
        the deterministic-aggregation half of the design.
        """
        core = self.core
        limit = self.config.solution_limit
        run_base = pass_base_evaluated
        for start in sorted(evaluated_by_batch):
            for wire in solutions_by_batch.get(start, ()):
                if limit is not None and len(core.solutions) >= limit:
                    break  # excess solutions are dropped, never observed
                # Inflate the wire form against the canonical pass hole
                # snapshot (digit positions match the worker's by
                # construction), rebasing the run index in the same step.
                rebased = wire.to_solution(
                    holes, run_index=run_base + wire.run_index
                )
                core.solutions.append(rebased)
                core.observer.on_solution(rebased, holes)
            run_base += evaluated_by_batch[start]
        for start in sorted(holes_by_batch):
            for spec in holes_by_batch[start]:
                # reserve() is idempotent per name, so holes reported by
                # several batches merge once, in batch index order.
                core.registry.reserve(spec.placeholder())

