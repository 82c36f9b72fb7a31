"""Worker side of distributed synthesis.

A worker process rebuilds the skeleton from its :class:`SystemSpec`, then
serves one :class:`BatchTask` at a time: walk the assigned candidate-index
range with the same subtree-skipping enumerator and the same
:meth:`~repro.core.engine.SynthesisCore.process_candidate` verdict path as
the sequential engine, against a pass-local :class:`SynthesisCore` seeded
from the coordinator's pattern snapshot.  Whatever the batch produced —
new pruning patterns, new holes, solutions, counters — is shipped back as
a compact delta (:class:`BatchResult`).

Hole identity across processes
------------------------------

Hole objects are compared by identity and discovered lazily during model
checking, so a worker's locally rebuilt hole objects are *different
objects* from the coordinator's.  :class:`WorkerHoleRegistry` bridges the
gap: canonical holes (broadcast as :class:`HoleSpec` name/arity pairs in
:class:`PassStart`) are *reserved* position-by-position as placeholders,
and the first time the model checker encounters the worker's real hole of
the same name it is bound to the reserved position.  Holes beyond the
canonical prefix append in local discovery order and are reported back;
the coordinator merges them in batch order at the pass boundary.
"""

from __future__ import annotations

import traceback
from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.core.engine import (
    PrefixCache,
    SynthesisConfig,
    SynthesisCore,
    _PassWalker,
    _StopSynthesis,
)
from repro.core.discovery import HoleRegistry
from repro.core.hole import Hole
from repro.core.pruning import PruningPattern
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
from repro.dist.wire import WireSolution
from repro.errors import SynthesisError
from repro.mc.system import TransitionSystem
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.metrics import diff_snapshots
from repro.store import VerdictStore


class WorkerHoleRegistry(HoleRegistry):
    """A hole registry whose leading positions are reserved by name.

    Reserved positions hold placeholder holes until the model checker
    encounters the corresponding real (process-local) hole object, which
    is then bound to the reserved position by name.  Unreserved holes
    append after the canonical prefix, exactly like the base registry.
    """

    def __init__(self, specs: Sequence[HoleSpec] = ()) -> None:
        super().__init__()
        #: name -> the real (model-checker-encountered) hole bound to it;
        #: binding a *second* distinct real object to a name is the same
        #: modelling error the base registry rejects.
        self._bound: dict = {}
        for spec in specs:
            placeholder = spec.placeholder()
            position = len(self._holes)
            self._holes.append(placeholder)
            self._positions[placeholder] = position
            self._names[placeholder.name] = placeholder

    def position_of(self, hole: Hole, register: bool = True) -> Optional[int]:
        """Resolve a hole to its canonical position, binding by name."""
        position = self._positions.get(hole)  # lock-free fast path
        if position is not None:
            return position
        with self._lock:
            position = self._positions.get(hole)
            if position is not None:
                return position
            known = self._names.get(hole.name)
            if known is not None:
                if self._bound.get(hole.name) is not None:
                    raise SynthesisError(
                        f"two distinct holes share the name {hole.name!r}"
                    )
                if known.arity != hole.arity:
                    raise SynthesisError(
                        f"hole {hole.name!r} has arity {hole.arity} here but "
                        f"{known.arity} in the canonical registry — skeleton "
                        f"rebuild is not deterministic"
                    )
                position = self._positions[known]
                self._positions[hole] = position  # bind the real object
                self._holes[position] = hole
                self._bound[hole.name] = hole
                return position
            if not register:
                return None
            position = len(self._holes)
            self._holes.append(hole)
            self._positions[hole] = position
            self._names[hole.name] = hole
            self._bound[hole.name] = hole
            return position


class BatchRunner:
    """Pass- and batch-level synthesis logic, independent of any process.

    Tests drive this class inline; :func:`worker_main` wraps it in a queue
    loop.  The runner's config is neutered of *global* stop conditions
    (solution limit, evaluation cap) — those belong to the coordinator,
    which enforces them across workers; the per-batch ``eval_budget``
    bounds overshoot instead.
    """

    def __init__(self, system: TransitionSystem, config: SynthesisConfig,
                 worker_id: int = -1, telemetry=None) -> None:
        self.system = system
        self.worker_id = worker_id
        #: the worker's own telemetry bundle (per-worker trace sink; the
        #: coordinator aggregates metrics from the per-batch deltas)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._config = replace(config, solution_limit=None, max_evaluations=None)
        # One store handle outlives passes; each pass-local core borrows
        # it rather than owning it.
        self._store: Optional[VerdictStore] = (
            None if config.store_path is None else VerdictStore(config.store_path)
        )
        self.core: Optional[SynthesisCore] = None
        #: index of the pass the runner is currently configured for; used
        #: to pair stolen tasks with their PassStart and to drop stale
        #: PatternUpdate messages
        self.pass_index = -1
        self._radices: Tuple[int, ...] = ()
        self._first_new = 0
        # One prefix cache for the worker's lifetime: checkpoints stay
        # valid across passes (and their pass-local cores) because the
        # canonical hole order only appends and the rebuilt system — hole
        # objects included — is owned by this process throughout.
        self._prefix_cache: Optional[PrefixCache] = (
            PrefixCache() if config.pruning else None
        )

    def start_pass(self, msg: PassStart) -> None:
        """Reset the pass-local core from the coordinator's snapshot."""
        core = SynthesisCore(
            self.system,
            replace(self._config),
            registry=WorkerHoleRegistry(msg.hole_specs),
            prefix_cache=self._prefix_cache,
            telemetry=self.telemetry,
            store=self._store,
        )
        for constraints in msg.fail_patterns:
            core.fail_table.add(PruningPattern(constraints))
        for constraints in msg.success_patterns:
            core.success_table.add(PruningPattern(constraints))
        self.core = core
        self.pass_index = msg.pass_index
        self._radices = tuple(spec.arity for spec in msg.hole_specs)
        self._first_new = msg.first_new

    def apply_patterns(self, msg: PatternUpdate) -> None:
        """Fold a mid-pass pattern broadcast into the pass tables.

        Updates from a pass the runner already left (or has not reached)
        are dropped: the next PassStart snapshot carries those patterns.
        """
        core = self.core
        if core is None or msg.pass_index != self.pass_index:
            return
        for constraints in msg.fail_delta:
            core.fail_table.add(PruningPattern(constraints))
        for constraints in msg.success_delta:
            core.success_table.add(PruningPattern(constraints))

    def run_batch(self, task: BatchTask) -> BatchResult:
        """Walk one candidate range and return the mergeable deltas."""
        core = self.core
        if core is None:
            raise SynthesisError("BatchTask received before PassStart")
        fail_seen = core.fail_table.version
        success_seen = core.success_table.version
        holes_seen = len(core.registry)
        solutions_seen = len(core.solutions)
        evaluated_seen = core.evaluated
        deduplicated_seen = core.deduplicated
        verdicts_seen = dict(core.verdict_counts)
        prefix_seen = (
            core.prefix_cache.counters()
            if core.prefix_cache is not None
            else (0, 0, 0)
        )
        store_hits_seen = core.store_hits
        store_writes_seen = core.store_writes
        if task.eval_budget is not None:
            core.config.max_evaluations = core.evaluated + task.eval_budget
        else:
            core.config.max_evaluations = None

        tele = self.telemetry
        metrics_before = (
            tele.metrics.snapshot()
            if tele.enabled and tele.metrics is not None
            else None
        )
        walker = _PassWalker(core, self._radices, task.start, task.end)
        budget_exhausted = False
        span = (
            tele.span("batch", batch=task.batch_id,
                      start=task.start, end=task.end)
            if tele.enabled
            else None
        )
        try:
            if span is not None:
                span.__enter__()
            for digits in walker.enumerator:
                core.process_candidate(walker, digits, self._first_new)
        except _StopSynthesis:
            budget_exhausted = core.stopped_early and not core.inherent_failure
            core.stopped_early = False
        finally:
            if span is not None:
                span.set(evaluated=core.evaluated - evaluated_seen)
                span.__exit__(None, None, None)
        metrics_delta = (
            diff_snapshots(metrics_before, tele.metrics.snapshot())
            if metrics_before is not None
            else {}
        )

        holes = core.registry.holes
        prefix_now = (
            core.prefix_cache.counters()
            if core.prefix_cache is not None
            else (0, 0, 0)
        )
        return BatchResult(
            worker_id=self.worker_id,
            batch_id=task.batch_id,
            start=task.start,
            end=task.end,
            covered=walker.counters.covered,
            evaluated=core.evaluated - evaluated_seen,
            deduplicated=core.deduplicated - deduplicated_seen,
            skipped=dict(walker.counters.skipped),
            verdict_counts={
                verdict: count - verdicts_seen.get(verdict, 0)
                for verdict, count in core.verdict_counts.items()
                if count - verdicts_seen.get(verdict, 0)
            },
            new_fail_patterns=core.fail_table.constraints_since(fail_seen),
            new_success_patterns=core.success_table.constraints_since(success_seen),
            new_holes=tuple(
                HoleSpec.from_hole(hole) for hole in holes[holes_seen:]
            ),
            solutions=tuple(
                WireSolution.from_solution(
                    solution, run_index=solution.run_index - evaluated_seen
                )
                for solution in core.solutions[solutions_seen:]
            ),
            prefix_cache_hits=prefix_now[0] - prefix_seen[0],
            prefix_cache_builds=prefix_now[1] - prefix_seen[1],
            prefix_states_reused=prefix_now[2] - prefix_seen[2],
            peak_states=core.peak_states,
            metrics=metrics_delta,
            store_hits=core.store_hits - store_hits_seen,
            store_writes=core.store_writes - store_writes_seen,
            budget_exhausted=budget_exhausted,
            inherent_failure=core.inherent_failure,
            inherent_failure_message=core.inherent_failure_message,
        )

    def close(self) -> None:
        """Release the runner's lifetime resources (the verdict store)."""
        if self._store is not None:
            self._store.close()
            self._store = None


def worker_main(worker_id: int, spec: SystemSpec, config: SynthesisConfig,
                task_queue, control_queue, result_queue) -> None:
    """Process entry point: steal BatchTasks until Shutdown.

    ``task_queue`` is shared by all workers (the work-stealing pool);
    ``control_queue`` is this worker's private FIFO carrying the ordered
    messages — :class:`PassStart`, :class:`PatternUpdate`,
    :class:`Shutdown`.  A stolen task may belong to a pass whose
    PassStart this worker has not read yet, so before running it the
    worker drains its control queue (blocking) until its pass index
    catches up with the task's; the coordinator enqueues every PassStart
    before that pass's tasks, so the wait always terminates.  Pattern
    updates already queued are drained opportunistically so a freshly
    stolen batch prunes with the newest broadcast tables.

    When the shipped config enables telemetry the worker opens its own
    bundle — with a private trace sink at ``<trace_path>.worker-<id>``
    when a trace path is set, progress always off (N processes sharing
    one stderr is noise) — and its metrics travel home as per-batch
    snapshot deltas in :class:`BatchResult`.
    """
    import queue as queue_module

    telemetry = None
    runner = None
    try:
        if config.telemetry_active:
            telemetry = Telemetry.from_config(config, worker_id=worker_id)
        runner = BatchRunner(
            spec.build(), config, worker_id=worker_id, telemetry=telemetry
        )

        def handle_control(message) -> bool:
            """Apply one control message; True means Shutdown."""
            if isinstance(message, Shutdown):
                return True
            if isinstance(message, PassStart):
                runner.start_pass(message)
            elif isinstance(message, PatternUpdate):
                runner.apply_patterns(message)
            return False

        while True:
            task = task_queue.get()
            if isinstance(task, Shutdown):
                return
            while runner.pass_index < task.pass_index:
                if handle_control(control_queue.get()):
                    return
            while True:  # opportunistic drain: newest patterns, no block
                try:
                    message = control_queue.get_nowait()
                except queue_module.Empty:
                    break
                if handle_control(message):
                    return
            result_queue.put(runner.run_batch(task))
    except BaseException:
        result_queue.put(WorkerCrash(worker_id, traceback.format_exc()))
    finally:
        if runner is not None:
            runner.close()
        if telemetry is not None:
            telemetry.close()
