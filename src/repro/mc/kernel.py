"""The exploration kernel (DESIGN: shared verdict semantics).

:class:`ExplorationKernel` is the package's one explorer: a breadth-first
search over a FIFO frontier, with rules tried at each state in declaration
order.  It owns state interning and canonicalisation on the system's
:class:`~repro.mc.packed.PackedRuntime`, invariant and coverage
evaluation, the parent/trace store, wildcard bookkeeping, deadlock
classification, hole-path tracking, and
:class:`~repro.mc.result.RunStats`.

Breadth-first order is what makes counterexample traces *minimal*
(footnote 1 of the paper: minimality matters because a short trace
touches few holes, which is what makes candidate pruning effective).

There is one exploration path.  Every state the loop touches is a slab id
of the system's packed runtime (:meth:`TransitionSystem.packed_runtime
<repro.mc.system.TransitionSystem.packed_runtime>`): the system's codec
when it has one, and otherwise a whole-state codec derived from its
``canonicalize``.  Rule firing, traces and counterexample replay still go
through real state objects (``PackedRuntime.state_of``).

Verdict semantics pinned down here (the synthesis layer depends on every
clause):

* Invariants are checked on every state as it is generated (including
  initial states); a violation stops exploration with a FAILURE and trace.
* A rule firing that resolves a wildcard hole is aborted (its successors
  are discarded) and the run is marked; a state whose enabled firings were
  all wildcard-cut is *not* a deadlock.
* Deadlock: a state from which no rule produced any successor (visited
  successors count) and that the deadlock policy does not accept as
  quiescent, provided no wildcard cut occurred at that state.
* Coverage properties are evaluated over all visited states after a
  complete exploration: unmet coverage is a FAILURE only when the run was
  wildcard-free and not truncated; with wildcards the verdict is UNKNOWN.
* Hitting an exploration limit (``max_states`` at a pop, ``max_depth`` at
  an expansion) marks the run truncated and yields UNKNOWN — unless a
  definite failure was found first.

Prefix checkpoints (the synthesis layer's exploration cache)
------------------------------------------------------------

A run whose resolver assigns only a *prefix* of the candidate vector cuts
every execution branch that resolves an unassigned hole.  The states such a
run visits — and the verdict-relevant classification of each — are
therefore shared by **every** candidate extending the prefix: firings that
completed without a wildcard touched only prefix holes and behave
identically under any extension.  ``collect_checkpoint=True`` captures that
shared work as an :class:`ExplorationCheckpoint` (visited set, parent
store, the wildcard-cut states, pending coverage, counters) once the
frontier drains without a definite failure; ``resume_from=checkpoint``
seeds a later run with it, so only genuinely new states are explored.
:class:`~repro.core.engine.PrefixCache` chains these checkpoints digit by
digit across sibling candidates.

The seam re-fires only the rules that were cut.  For each cut state the
checkpoint keeps the cut rule indices, whether a non-cut firing there
produced a successor, and the hole mask of its successor-less non-cut
firings.  A resumed run fires just the cut rules at that state and folds
the other two values into its deadlock test: the non-cut firings resolved
only prefix holes, so re-firing them would re-register known successors
and add nothing to the frontier.

Resumption is exact: the resumed run reports the same verdict, the same
``states_visited`` and ``transitions_fired``, the same executed holes,
and the same wildcard/coverage classification a from-scratch run of the
full candidate would.  ``rules_attempted`` and ``wildcard_cuts`` count
the cut rules a resumed run re-tries a second time, and counterexample
traces through inherited states reuse the prefix run's parent edges,
which are valid but not always depth-minimal.
``RunStats.prefix_states_reused`` records how many states a run
inherited instead of re-exploring.

Holes are tracked as int masks over the resolver's positions (see
:mod:`repro.mc.context`): executed holes per firing and per run, each
state's discovery-path holes, and a checkpoint's masks.  A run's
:class:`~repro.mc.result.VerificationResult` carries the masks and their
hole-object views, built once per run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ModelError
from repro.mc.context import ExecutionContext
from repro.mc.result import FailureKind, RunStats, Verdict, VerificationResult
from repro.mc.system import TransitionSystem
from repro.mc.trace import Trace, TraceStep


@dataclass(frozen=True)
class ExplorationLimits:
    """Caps on exploration effort; ``None`` means unlimited."""

    max_states: Optional[int] = None
    max_depth: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_states", "max_depth"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ModelError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class ExplorationCheckpoint:
    """The reusable outcome of a completed prefix exploration.

    Everything here is immutable (or treated as such): resuming copies the
    containers into kernel-local state, so one checkpoint can seed many
    runs.

    Attributes:
        visited: canonical slab id -> state id for every state the prefix
            run interned (all of which passed the invariants).
        originals: state id -> slab id of the state as first discovered.
        parents: state id -> ``(parent_sid, rule_name)`` discovery edge, or
            ``None`` for initial states.
        cut_states: ``(sid, depth, cut_rules, produced, dead_end_holes)``
            for every state where a rule firing was wildcard-cut, in
            ascending depth order.  These are the only inherited states a
            resumed run re-expands: their classification (successors?
            deadlock?) depends on holes the prefix left unassigned.
            ``cut_rules`` are the rule indices cut there, in firing order
            (the only rules a resumed run re-fires); ``produced`` says
            whether a non-cut firing there produced a successor; and
            ``dead_end_holes`` is the position mask of the holes its
            successor-less non-cut firings executed.
        pending_coverage: names of coverage properties no visited state
            satisfied yet.
        states_visited / transitions / attempts / max_depth: counter
            seeds, so resumed stats match a from-scratch run.
        executed_holes: position mask of the holes resolved during the
            prefix run (a subset of the prefix; seeds the resumed run's
            executed mask).
        hole_paths: per-sid discovery-path position masks.

    Slab ids are only meaningful against the same in-process
    :class:`~repro.mc.packed.PackedRuntime`, and the masks against the
    producing resolver's positions on the prefix: a resuming resolver
    must number those holes the same way (the synthesis resolvers do,
    through the registry's append-only discovery order).  The prefix
    cache and both backends keep runtime and checkpoints within one
    process, so a checkpoint never crosses a process boundary.
    """

    visited: Dict[Any, int]
    originals: Tuple[Any, ...]
    parents: Tuple[Optional[Tuple[int, str]], ...]
    cut_states: Tuple[Tuple[int, int, Tuple[int, ...], bool, int], ...]
    pending_coverage: Tuple[str, ...]
    states_visited: int
    transitions: int
    attempts: int
    max_depth: int
    executed_holes: int
    hole_paths: Tuple[int, ...]


class ExplorationKernel:
    """One-shot breadth-first explorer for a transition system.

    Args:
        system: the transition system to explore.
        resolver: hole resolver handed to the execution context; ``None``
            means the system must be hole-free.
        limits: optional exploration caps.
        resume_from: an :class:`ExplorationCheckpoint` from a run whose
            assignment this run's resolver extends; inherited states are
            not re-explored (see the module docstring).  The caller is
            responsible for the extension relationship and for a resolver
            that numbers the prefix holes as the producer's did.

    Every run records, per state, the mask of holes executed on its
    discovery path, and reports a failure's conflict holes in
    ``VerificationResult.failure_mask`` (and its ``failure_holes`` view);
    the synthesis engine's conflict generalisation reads the mask (an
    extension over the paper; see :mod:`repro.core.pruning`).
        collect_checkpoint: capture :attr:`checkpoint` when the frontier
            drains without truncation and without an invariant/deadlock
            failure; it stays ``None`` otherwise.  A COVERAGE failure —
            which is only definite on a complete, wildcard-free
            exploration — *does* checkpoint, deliberately: such a prefix
            explores the identical space as every extension, so resumed
            runs (empty cut set) return the same verdict immediately.
        telemetry: a ``repro.obs.Telemetry`` for phase attribution and
            per-run ``pack_*`` counter deltas, or ``None``.
    """

    def __init__(
        self,
        system: TransitionSystem,
        resolver: Any = None,
        limits: Optional[ExplorationLimits] = None,
        resume_from: Optional[ExplorationCheckpoint] = None,
        collect_checkpoint: bool = False,
        telemetry: Any = None,
    ) -> None:
        self.system = system
        #: the system's shared :class:`~repro.mc.packed.PackedRuntime`
        self.packed_runtime = system.packed_runtime()
        self.ctx = ExecutionContext(resolver)
        self.limits = limits or ExplorationLimits()
        self.resume_from = resume_from
        self.collect_checkpoint = collect_checkpoint
        #: populated by :meth:`run` when ``collect_checkpoint`` was set and
        #: the exploration drained without truncation or a counterexample
        #: (COVERAGE failures still checkpoint; see the constructor docs)
        self.checkpoint: Optional[ExplorationCheckpoint] = None
        #: canonical slab id -> state id, filled during :meth:`run`
        self.visited_states: Dict[Any, int] = {}
        #: a ``repro.obs.Telemetry`` (or ``None``); the enabled/disabled
        #: decision is taken once in :meth:`run`, not per state
        self.telemetry = telemetry
        #: phase name -> seconds, populated per run when instrumented
        self.phase_seconds: Dict[str, float] = {}

    def run(self) -> VerificationResult:
        """Explore and return the verdict."""
        system = self.system
        ctx = self.ctx
        limits = self.limits
        visited = self.visited_states
        rt = self.packed_runtime
        all_rules = tuple(system.rules)
        tele = self.telemetry
        instrumented = tele is not None and tele.enabled
        clock = time.perf_counter
        #: mutable cells so nested closures can accumulate without
        #: nonlocal plumbing; only touched when instrumented
        canon_acc = [0.0]
        canon_seed = [0.0]
        expand_acc = [0.0]
        resume_acc = [0.0]
        checkpoint_acc = [0.0]
        parents: List[Optional[Tuple[int, str]]] = []
        originals: List[int] = []
        hole_paths: List[int] = []
        pending_coverage = list(system.coverage)
        cut_states: List[Tuple[int, int, Tuple[int, ...], bool, int]] = []
        fire = rt.fire

        states_visited = 0
        transitions = 0
        attempts = 0
        wildcard_cuts = 0
        max_depth = 0
        truncated = False

        resume = self.resume_from
        states_reused = 0
        resume_begin = clock() if instrumented and resume is not None else 0.0
        if resume is not None:
            visited.update(resume.visited)
            originals.extend(resume.originals)
            parents.extend(resume.parents)
            hole_paths.extend(resume.hole_paths)
            pending = set(resume.pending_coverage)
            pending_coverage = [p for p in pending_coverage if p.name in pending]
            states_visited = resume.states_visited
            states_reused = resume.states_visited
            transitions = resume.transitions
            attempts = resume.attempts
            max_depth = resume.max_depth
            ctx.run_executed |= resume.executed_holes
            if instrumented:
                resume_acc[0] += clock() - resume_begin

        #: packed-runtime counter snapshot, for per-run pack_* metric deltas
        pack_base = rt.counters() if instrumented else None

        frontier: deque = deque()

        def register(rid: int, parent: Optional[Tuple[int, str]], depth: int,
                     path_holes: int) -> Tuple[int, bool]:
            """Canonicalise, dedup, property-check, and enqueue a slab id.

            The visited set is keyed by the canonical slab id
            (:meth:`~repro.mc.packed.PackedRuntime.canon_id`).

            Returns ``(state_id, is_new)``.
            """
            nonlocal states_visited
            if instrumented:
                canon_begin = clock()
                canon = rt.canon_id(rid)
                canon_acc[0] += clock() - canon_begin
            else:
                canon = rt.canon_id(rid)
            known = visited.get(canon)
            if known is not None:
                return known, False
            sid = len(originals)
            visited[canon] = sid
            originals.append(rid)
            parents.append(parent)
            hole_paths.append(path_holes)
            states_visited += 1
            if pending_coverage:
                satisfied = rt.coverage_names(rid)
                for prop in list(pending_coverage):
                    if prop.name in satisfied:
                        pending_coverage.remove(prop)
            frontier.append((rid, sid, depth))
            return sid, True

        def build_trace(sid: int) -> Trace:
            steps: List[TraceStep] = []
            cursor: Optional[int] = sid
            while cursor is not None:
                parent = parents[cursor]
                steps.append(
                    TraceStep(
                        parent[1] if parent else None,
                        rt.state_of(originals[cursor]),
                    )
                )
                cursor = parent[0] if parent else None
            steps.reverse()
            return Trace(steps)

        telemetry_done = [False]

        def finish_telemetry() -> None:
            """Report phase attribution; runs once, on every exit path.

            ``stats()`` is called exactly once per run — every
            ``VerificationResult`` construction goes through it — which
            makes it the single choke point covering early failure
            returns as well as the drained-frontier exits.
            """
            if telemetry_done[0]:
                return
            telemetry_done[0] = True
            canon_in_expand = canon_acc[0] - canon_seed[0]
            phases = {
                "canonicalise": canon_acc[0],
                "expand": max(0.0, expand_acc[0] - canon_in_expand),
            }
            if resume is not None:
                phases["resume_seed"] = resume_acc[0]
            if checkpoint_acc[0]:
                phases["checkpoint"] = checkpoint_acc[0]
            self.phase_seconds = phases
            for name, seconds in phases.items():
                tele.phase(name, seconds)
            metrics = tele.metrics
            for name, value in rt.counters().items():
                delta = value - pack_base[name]
                if delta:
                    metrics.counter(
                        name, "packed-kernel counter (run delta)"
                    ).inc(delta)

        def stats() -> RunStats:
            if instrumented:
                finish_telemetry()
            return RunStats(
                states_visited=states_visited,
                transitions_fired=transitions,
                rules_attempted=attempts,
                wildcard_cuts=wildcard_cuts,
                max_depth=max_depth,
                truncated=truncated,
                prefix_states_reused=states_reused,
            )

        holes_in = ctx.resolver.holes_in

        def outcome(verdict: Verdict, failure_mask: Optional[int] = None,
                    **fields: Any) -> VerificationResult:
            """The run's result, with the hole views built from the masks."""
            executed = ctx.run_executed
            return VerificationResult(
                verdict=verdict,
                stats=stats(),
                executed_holes=holes_in(executed),
                executed_mask=executed,
                failure_holes=(
                    None if failure_mask is None else holes_in(failure_mask)
                ),
                failure_mask=failure_mask,
                **fields,
            )

        def failure(kind: FailureKind, message: str, sid: int,
                    extra_holes: int = 0) -> VerificationResult:
            return outcome(
                Verdict.FAILURE,
                failure_mask=hole_paths[sid] | extra_holes,
                failure_kind=kind,
                message=message,
                trace=build_trace(sid),
                wildcard_encountered=ctx.run_wildcard_encountered,
            )

        #: sid -> (cut rules, produced, dead-end holes) of an inherited cut
        #: state still to re-expand (see ExplorationCheckpoint.cut_states)
        seam: Dict[int, Tuple[Tuple[int, ...], bool, int]] = {}
        if resume is not None:
            # Inherited states already passed the invariants; only the
            # wildcard-cut states need re-expansion, and only their cut
            # rules re-fire (those resolve holes this run now assigns).
            for sid, depth, cut_rules, produced, dead_ends in resume.cut_states:
                seam[sid] = (cut_rules, produced, dead_ends)
                frontier.append((originals[sid], sid, depth))
        else:
            # Seed with initial states (checking invariants on them too).
            for state in system.initial_states():
                rid = rt.intern(state)
                sid, is_new = register(rid, None, 0, 0)
                if not is_new:
                    continue
                violated = rt.invariant_violation(rid)
                if violated is not None:
                    return failure(
                        FailureKind.INVARIANT,
                        f"invariant {violated!r} violated in an "
                        f"initial state",
                        sid,
                    )

        canon_seed[0] = canon_acc[0]  # canon time spent seeding, not expanding
        tick = None
        if instrumented and tele.progress is not None:
            tick = tele.progress.tick

        while frontier:
            if limits.max_states is not None and states_visited >= limits.max_states:
                truncated = True
                break
            rid, sid, depth = frontier.popleft()
            if tick is not None:
                tick(states=states_visited, frontier=len(frontier), depth=depth)
            if depth > max_depth:
                max_depth = depth
            if limits.max_depth is not None and depth >= limits.max_depth:
                truncated = True
                continue
            path_holes = hole_paths[sid]
            if seam and sid in seam:
                enabled, produced_successor, holes_at_state = seam.pop(sid)
            else:
                produced_successor = False
                holes_at_state = 0
                # The enabled rule indices (ascending, i.e. declaration
                # order) are memoised per interned state, so re-visits
                # skip the guard calls.
                enabled = rt.enabled_rules(rid)
            cut_rules: Tuple[int, ...] = ()

            if instrumented:
                expand_begin = clock()
            for index in enabled:
                attempts += 1
                successors = fire(rid, index, ctx)
                if successors is None:
                    cut_rules += (index,)
                    continue
                if not successors:
                    # Only successor-less firings matter for a deadlock
                    # here.
                    holes_at_state |= ctx.firing_executed
                    continue
                produced_successor = True
                firing_holes = path_holes | ctx.firing_executed
                rule_name = all_rules[index].name
                for successor in successors:
                    transitions += 1
                    new_sid, is_new = register(
                        successor, (sid, rule_name), depth + 1, firing_holes
                    )
                    if not is_new:
                        continue
                    violated = rt.invariant_violation(successor)
                    if violated is not None:
                        if instrumented:
                            expand_acc[0] += clock() - expand_begin
                        return failure(
                            FailureKind.INVARIANT,
                            f"invariant {violated!r} violated",
                            new_sid,
                        )
            if instrumented:
                expand_acc[0] += clock() - expand_begin

            if cut_rules:
                wildcard_cuts += len(cut_rules)
                cut_states.append(
                    (sid, depth, cut_rules, produced_successor, holes_at_state)
                )
            elif not produced_successor and rt.is_deadlock(rid):
                return failure(
                    FailureKind.DEADLOCK,
                    "deadlock: no enabled transitions",
                    sid,
                    extra_holes=holes_at_state,
                )

        if self.collect_checkpoint and not truncated:
            if instrumented:
                checkpoint_begin = clock()
            cut_states.sort(key=lambda entry: entry[1])
            self.checkpoint = ExplorationCheckpoint(
                visited=dict(visited),
                originals=tuple(originals),
                parents=tuple(parents),
                cut_states=tuple(cut_states),
                pending_coverage=tuple(prop.name for prop in pending_coverage),
                states_visited=states_visited,
                transitions=transitions,
                attempts=attempts,
                max_depth=max_depth,
                executed_holes=ctx.run_executed,
                hole_paths=tuple(hole_paths),
            )
            if instrumented:
                checkpoint_acc[0] += clock() - checkpoint_begin

        unmet = tuple(prop.name for prop in pending_coverage)
        if unmet and not ctx.run_wildcard_encountered and not truncated:
            return outcome(
                Verdict.FAILURE,
                failure_mask=ctx.run_executed,
                failure_kind=FailureKind.COVERAGE,
                message=f"coverage not met: {', '.join(unmet)}",
                unmet_coverage=unmet,
            )
        if ctx.run_wildcard_encountered or truncated:
            return outcome(
                Verdict.UNKNOWN,
                message="truncated exploration" if truncated else "wildcards encountered",
                wildcard_encountered=ctx.run_wildcard_encountered,
                unmet_coverage=unmet,
            )
        return outcome(Verdict.SUCCESS)

    def fingerprint_visited(self) -> int:
        """Behaviour fingerprint of the visited set.

        The visited set is keyed by canonical slab ids; the runtime maps
        each back through the system's object canonicaliser (memoised per
        id), so the value depends only on the set of orbits visited —
        see :meth:`~repro.mc.packed.PackedRuntime.fingerprint_set`.
        """
        return self.packed_runtime.fingerprint_set(self.visited_states)

