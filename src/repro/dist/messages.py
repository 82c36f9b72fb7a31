"""Wire types of the distributed synthesis protocol.

The coordinator (:mod:`repro.dist.coordinator`) and the worker processes
(:mod:`repro.dist.worker`) exchange only compact, picklable values:

* **system specs** — a :class:`SystemSpec` names a skeleton in the protocol
  catalog; workers *rebuild* the transition system locally because rule
  bodies are closures and cannot cross a process boundary;
* **hole specs** — a :class:`HoleSpec` is (name, ordered action names);
  hole *objects* are identity-compared and process-local, so positions are
  correlated across processes by name (see
  :class:`~repro.dist.worker.WorkerHoleRegistry`);
* **pattern digits** — pruning patterns travel as their constraint tuples
  ``((position, action_index), ...)``;
* **verdict counters and solutions** — per-batch deltas the coordinator
  merges into the authoritative :class:`~repro.core.engine.SynthesisCore`.

Message flow, per enumeration pass::

    coordinator                          worker (xN)
    -----------                          -----------
    control:  PassStart(holes, tables) ->  reset pass-local core
    shared:   BatchTask(range)         ->  any idle worker steals it
                                      <-   BatchResult(deltas)
    control:  PatternUpdate(deltas)    ->  fold into pass tables
    ... until the pass's batches drain; new holes merge at the pass
    boundary, new patterns merge (and rebroadcast) at batch boundaries.

Work stealing: :class:`BatchTask` messages go on **one shared queue** all
workers pull from, so a worker that drew cheap (heavily pruned) ranges
immediately picks up the next pending batch instead of idling behind a
fixed per-worker plan.  Per-worker FIFO *control* queues carry the
ordered messages (:class:`PassStart`, :class:`PatternUpdate`,
:class:`Shutdown`); a worker that steals a task from a newer pass first
drains its control queue until its pass catches up with the task's
``pass_index``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.hole import Hole
from repro.core.action import Action
from repro.dist.wire import WireSolution
from repro.mc.system import TransitionSystem
from repro.protocols.catalog import build_skeleton

#: A pruning pattern on the wire: its sorted (position, action) constraints.
Constraints = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class SystemSpec:
    """A rebuildable reference to a skeleton.

    Either a catalog name + replica count (the default), or — when
    ``fuzz_payload`` is set — a serialised fuzz protocol spec
    (:func:`repro.fuzz.spec.spec_payload` output) that workers rebuild
    without touching the catalog.  Payloads exist so generated protocols
    can cross the process boundary: they are plain JSON strings, which
    pickle trivially, while built systems (closures) do not.
    """

    name: str
    replicas: int = 2
    fuzz_payload: Optional[str] = None

    def build(self) -> TransitionSystem:
        """Rebuild the referenced system locally."""
        if self.fuzz_payload is not None:
            # Imported lazily: the fuzz package is optional equipment for
            # the distributed layer, not a dependency of it.
            from repro.fuzz.spec import build_system_from_payload

            return build_system_from_payload(self.fuzz_payload)
        return build_skeleton(self.name, self.replicas)


@dataclass(frozen=True)
class HoleSpec:
    """A hole as (name, ordered action names) — enough to correlate
    positions across processes and to render solution assignments."""

    name: str
    actions: Tuple[str, ...]

    @classmethod
    def from_hole(cls, hole: Hole) -> "HoleSpec":
        """The wire spec of a local hole object."""
        return cls(hole.name, tuple(action.name for action in hole.domain))

    def placeholder(self) -> Hole:
        """A stand-in Hole carrying the right name/arity/action names.

        Placeholders live in registries that never resolve them against a
        rule body (the coordinator's, and reserved-but-not-yet-encountered
        slots in a worker's), so the actions carry no callables.
        """
        return Hole(self.name, tuple(Action(name) for name in self.actions))

    @property
    def arity(self) -> int:
        """Number of candidate actions."""
        return len(self.actions)


@dataclass(frozen=True)
class PassStart:
    """Reset a worker for one enumeration pass.

    Carries the canonical hole order (the pass enumerates over the prefix
    ``hole_specs``, first-discovered hole most significant) and a full
    snapshot of both pattern tables.
    """

    pass_index: int
    first_new: int
    hole_specs: Tuple[HoleSpec, ...]
    fail_patterns: Tuple[Constraints, ...]
    success_patterns: Tuple[Constraints, ...]


@dataclass(frozen=True)
class BatchTask:
    """One contiguous slice of the pass's candidate index space.

    ``eval_budget`` caps model-checker runs within the batch (global
    ``max_evaluations`` minus runs already merged).
    """

    batch_id: int
    start: int
    end: int
    eval_budget: Optional[int] = None
    #: which pass this task belongs to.  Tasks ride the shared queue, so a
    #: worker may steal one before reading its own PassStart; it blocks on
    #: its control queue until its pass catches up with this index.
    pass_index: int = 0


@dataclass(frozen=True)
class PatternUpdate:
    """Mid-pass pruning-pattern broadcast on the control queues.

    With a shared task queue the coordinator no longer knows which worker
    will run the next batch, so pattern deltas cannot ride the tasks
    per-recipient; instead every accepted pattern is broadcast to all
    workers as soon as the producing batch merges.  Stale updates (from a
    pass the worker already left) are ignored.
    """

    pass_index: int
    fail_delta: Tuple[Constraints, ...] = ()
    success_delta: Tuple[Constraints, ...] = ()


@dataclass
class BatchResult:
    """Everything one batch produced, as mergeable deltas."""

    worker_id: int
    batch_id: int
    start: int
    end: int
    covered: int = 0
    evaluated: int = 0
    deduplicated: int = 0
    #: tag -> candidates skipped (analytically or at a leaf) in this batch
    skipped: Dict[str, int] = field(default_factory=dict)
    verdict_counts: Dict[str, int] = field(default_factory=dict)
    new_fail_patterns: Tuple[Constraints, ...] = ()
    new_success_patterns: Tuple[Constraints, ...] = ()
    #: holes first encountered in this batch, in local discovery order
    new_holes: Tuple[HoleSpec, ...] = ()
    #: solutions in packed wire form (digit tuples + counters, no name
    #: pairs — the coordinator rebuilds assignments from its pass hole
    #: snapshot); run_index is 1-based *within this batch* (rebased on
    #: merge)
    solutions: Tuple[WireSolution, ...] = ()
    #: prefix-cache deltas (hits, checkpoint builds, states reused) — the
    #: worker's cache outlives batches and passes, so these are per-batch
    #: differences of its counters, mergeable like every other field here
    prefix_cache_hits: int = 0
    prefix_cache_builds: int = 0
    prefix_states_reused: int = 0
    #: largest single-run visited-state count seen by this worker so far
    #: (merged by max on the coordinator — a high-water mark, not a delta)
    peak_states: int = 0
    #: per-batch metrics-registry delta (``repro.obs.metrics.diff_snapshots``
    #: output; empty dict when the worker runs without telemetry) — the
    #: coordinator folds it into its own registry, so aggregated metrics
    #: match a single-process run
    metrics: Dict[str, dict] = field(default_factory=dict)
    #: verdict-store deltas: evaluations replayed from / runs appended to
    #: the worker's store during this batch (0 when no store is attached)
    store_hits: int = 0
    store_writes: int = 0
    budget_exhausted: bool = False
    inherent_failure: bool = False
    inherent_failure_message: str = ""


@dataclass(frozen=True)
class Shutdown:
    """Terminate the worker loop."""


@dataclass
class WorkerCrash:
    """A worker's last words: the formatted traceback of a fatal error."""

    worker_id: int
    traceback_text: str
