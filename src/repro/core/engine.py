"""The synthesis engine (sequential).

Implements the full procedure of Section II ("Putting it all together"):

1. Run the model checker on the empty candidate; holes are discovered
   lazily and appended to the candidate configuration vector.
2. Enumerate passes over all currently known holes (earliest hole most
   significant); holes discovered mid-pass join as wildcards and become
   enumerable in the next pass.
3. Candidates matching a recorded failure pattern are pruned; candidates
   matching a recorded success pattern (an earlier solution whose remaining
   holes are provably unreachable) are skipped without re-verification.
4. A FAILURE verdict records the candidate configuration — including its
   wildcard entries — as a new pruning pattern; a SUCCESS verdict records a
   solution.  The procedure ends when a pass completes without discovering
   new holes.

Without pruning (``SynthesisConfig(pruning=False)``) the engine reproduces
the paper's naive baseline: undiscovered holes resolve to a *default* action
instead of cutting the branch, every fully-assigned candidate is model
checked exactly once (duplicate prefix evaluations across passes are
detected arithmetically), and no patterns are kept.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.action import Action
from repro.core.candidate import WILDCARD, CandidateVector
from repro.core.discovery import CandidateResolver, DefaultingResolver, HoleRegistry
from repro.core.enumeration import SubtreeEnumerator
from repro.core.hole import Hole
from repro.core.pruning import (
    DfsMatcher,
    PruningPattern,
    PruningTable,
    generalise_failure,
)
from repro.core.report import Solution, SynthesisReport
from repro.errors import SynthesisError
from repro.mc.kernel import ExplorationCheckpoint, ExplorationKernel
from repro.mc.result import FailureKind, RunStats, Verdict, VerificationResult
from repro.mc.system import TransitionSystem
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.store import (
    VerdictStore,
    candidate_keyer,
    flags_signature,
    system_signature,
)
from repro.util.timing import Stopwatch

FAIL_TAG = "failure"
SUCCESS_TAG = "success"

_RUN_STATS_FIELDS = frozenset(f.name for f in dataclasses.fields(RunStats))


class _StoredRunExplorer:
    """Explorer stand-in for a run whose fingerprint is already known.

    :meth:`SynthesisCore.handle_result` only ever asks the explorer for a
    solution fingerprint.  A store hit answers with the recorded one
    (store hits are gated on its presence when fingerprints are on); a
    recorded run answers with the one it computed for its record.
    """

    __slots__ = ("checkpoint", "_fingerprint")

    def __init__(self, fingerprint: Optional[str]) -> None:
        self.checkpoint = None
        self._fingerprint = fingerprint

    def fingerprint_visited(self) -> Optional[str]:
        return self._fingerprint


def _run_record(
    result: VerificationResult,
    fingerprint: Optional[int],
    pattern: Optional[Tuple[Tuple[int, int], ...]],
    new_holes: Sequence[Hole],
) -> dict:
    """The verdict-store record of one model-checker run.

    Every value is JSON-ready as built (tuples write as arrays), so the
    journal writes the record as it stands; ``SynthesisCore`` replays it
    from the parsed line.
    """
    return {
        "verdict": result.verdict.value,
        "failure_kind": (
            None if result.failure_kind is None else result.failure_kind.value
        ),
        "message": result.message,
        "stats": vars(result.stats),
        "wildcard_encountered": result.wildcard_encountered,
        "executed": sorted(hole.name for hole in result.executed_holes),
        "unmet_coverage": result.unmet_coverage,
        "fingerprint": fingerprint,
        "pattern": pattern,
        "new_holes": [
            (hole.name, [action.name for action in hole.domain])
            for hole in new_holes
        ],
    }


def _candidate_label(vector: CandidateVector) -> str:
    """Compact trace label for a candidate: digits, ``*`` for wildcards."""
    return ",".join(
        "*" if entry is WILDCARD else str(entry) for entry in vector.entries
    )


def resolve_telemetry(config: "SynthesisConfig", telemetry):
    """Decide an engine's telemetry once, at construction.

    Returns ``(telemetry, owns)``: a caller-supplied bundle (the CLI's)
    is used as-is and left open; otherwise one is built when the config
    asks for it — and the engine owns it, i.e. must close it when the run
    ends.  With neither, the shared :data:`~repro.obs.NULL_TELEMETRY`
    keeps every instrumented call site a no-op.
    """
    if telemetry is not None:
        return telemetry, False
    if config.telemetry_active:
        return Telemetry.from_config(config), True
    return NULL_TELEMETRY, False


@dataclass
class SynthesisConfig:
    """Tunable knobs of the synthesis procedure.

    Attributes:
        pruning: enable the paper's candidate pruning (wildcard defaults,
            failure patterns); False reproduces the naive baseline.
        solution_limit: stop after this many solutions (None = exhaustive).
        max_evaluations: stop after this many model-checker runs.
        max_passes: cap on enumeration passes.
        compute_fingerprints: fingerprint each solution's visited-state set
            (enables behavioural grouping; costs one pass over the states).
        telemetry: enable the observability layer (:mod:`repro.obs`) —
            metrics registry, trace spans, kernel phase attribution —
            even without a trace file (metrics land in the report and
            ``--metrics-out``).  Off by default: the disabled path costs
            a setup-time decision plus one predicate per state pop.
        trace_path: write structured trace events (JSONL) to this path;
            implies telemetry.  Workers of the process backend write to
            ``<trace_path>.worker-<id>``.
        progress: emit throttled live progress lines to stderr (and
            ``progress`` trace events); implies telemetry.
        progress_interval: minimum seconds between progress emissions
            (default 1.0; must be positive).
        store_path: directory of a durable cross-run verdict store
            (:mod:`repro.store`).  Every wildcard-free candidate
            evaluation consults the store before model checking and
            records its outcome after; repeated runs and warm benchmark
            passes replay verdicts instead of re-exploring.  ``None``
            (default) disables the store.

    Under ``pruning`` every run also records minimal-conflict failure
    patterns (:func:`repro.core.pruning.generalise_failure`, read off the
    kernel's hole paths) and resumes candidates from cached shared-prefix
    explorations (:class:`PrefixCache`); neither has a switch.
    """

    pruning: bool = True
    solution_limit: Optional[int] = None
    max_evaluations: Optional[int] = None
    max_passes: Optional[int] = None
    compute_fingerprints: bool = False
    telemetry: bool = False
    trace_path: Optional[str] = None
    progress: bool = False
    progress_interval: float = 1.0
    store_path: Optional[str] = None

    def __post_init__(self) -> None:
        for knob in ("solution_limit", "max_evaluations", "max_passes"):
            value = getattr(self, knob)
            if value is not None and value < 0:
                raise SynthesisError(f"{knob} must be non-negative, got {value}")
        for knob in ("telemetry", "progress"):
            if not isinstance(getattr(self, knob), bool):
                raise SynthesisError(
                    f"{knob} must be a bool, got {getattr(self, knob)!r}"
                )
        if self.trace_path is not None and not isinstance(self.trace_path, str):
            raise SynthesisError(
                f"trace_path must be a string path or None, "
                f"got {self.trace_path!r}"
            )
        if self.store_path is not None and not isinstance(self.store_path, str):
            raise SynthesisError(
                f"store_path must be a string path or None, "
                f"got {self.store_path!r}"
            )
        if (
            not isinstance(self.progress_interval, (int, float))
            or isinstance(self.progress_interval, bool)
            or not self.progress_interval > 0
        ):
            raise SynthesisError(
                f"progress_interval must be a positive number, "
                f"got {self.progress_interval!r}"
            )

    @property
    def telemetry_active(self) -> bool:
        """Whether any observability feature is requested.

        A trace path or progress request implies telemetry — there is
        nothing to write otherwise — so the engines key their setup-time
        decision off this property, not the raw flag.
        """
        return self.telemetry or self.trace_path is not None or self.progress


class SynthesisObserver:
    """Override any subset of these no-op callbacks to watch a run.

    The Figure 2 walkthrough example uses an observer to print the paper's
    run table live.
    """

    def on_pass_started(self, pass_index: int, holes: Sequence[Hole]) -> None:
        """A new enumeration pass begins over the given holes."""

    def on_run(self, run_index: int, vector: CandidateVector,
               result: VerificationResult, holes: Sequence[Hole]) -> None:
        """A candidate was dispatched to the model checker."""

    def on_pattern(self, pattern: PruningPattern, holes: Sequence[Hole]) -> None:
        """A new failure pattern was recorded."""

    def on_solution(self, solution: Solution, holes: Sequence[Hole]) -> None:
        """A correct candidate was found."""

    def on_prune(self, digits: Tuple[int, ...], tag: str) -> None:
        """A single explicitly-visited candidate was pruned (``tag`` says why)."""


class _StopSynthesis(Exception):
    """Internal: a stop condition (solution/evaluation limit) was reached."""


class PrefixCache:
    """Thread-safe LRU store of prefix-exploration checkpoints.

    Keys are assignment-prefix digit tuples (position ``i`` of the key is
    hole ``i``'s action index; the registry's discovery order makes this
    meaning stable across passes and, by name correlation, across worker
    processes).  A value is either an
    :class:`~repro.mc.kernel.ExplorationCheckpoint` or ``None`` — a
    *negative* entry marking a prefix whose exploration already hit a
    counterexample, so siblings don't rebuild it (every extension of such
    a prefix fails its own model-checker run and records a pruning
    pattern there).  Coverage-failing prefixes are cached *positively*:
    they explored the complete wildcard-free space, so extensions resume
    to the identical verdict for free.

    Because the enumerator emits candidates in lexicographic order, the
    live entries at any moment are essentially the checkpoints along the
    current enumeration path plus a little slack; capacity only needs to
    exceed the hole count.

    Counters (under the same lock): ``hits`` — candidate evaluations that
    resumed from a checkpoint; ``builds`` — prefix explorations performed
    to create checkpoints (the cache's cost side); ``states_reused`` —
    total states candidate evaluations inherited instead of re-exploring.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, ...], Optional[ExplorationCheckpoint]]" = OrderedDict()
        self._capacity = capacity
        self.hits = 0
        self.builds = 0
        self.states_reused = 0

    def lookup(self, key: Tuple[int, ...]) -> Tuple[bool, Optional[ExplorationCheckpoint]]:
        """Return ``(found, entry)``; a found ``None`` is a negative entry."""
        with self._lock:
            if key not in self._entries:
                return False, None
            self._entries.move_to_end(key)
            return True, self._entries[key]

    def store(self, key: Tuple[int, ...],
              checkpoint: Optional[ExplorationCheckpoint]) -> None:
        """Insert or refresh an entry, evicting the oldest beyond capacity."""
        with self._lock:
            self._entries[key] = checkpoint
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def note_hit(self, states_reused: int) -> None:
        """Count one resumed candidate evaluation."""
        with self._lock:
            self.hits += 1
            self.states_reused += states_reused

    def note_build(self) -> None:
        """Count one prefix exploration performed to build a checkpoint."""
        with self._lock:
            self.builds += 1

    def counters(self) -> Tuple[int, int, int]:
        """Snapshot of ``(hits, builds, states_reused)``."""
        with self._lock:
            return self.hits, self.builds, self.states_reused

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class SynthesisCore:
    """State and per-candidate logic shared by the engines.

    One core is driven by one walk at a time: the sequential engine and each
    process-backend worker own theirs, so counters and solution lists need
    no guard.
    """

    def __init__(
        self,
        system: TransitionSystem,
        config: SynthesisConfig,
        observer: Optional[SynthesisObserver] = None,
        registry: Optional[HoleRegistry] = None,
        prefix_cache: Optional[PrefixCache] = None,
        telemetry=None,
        store: Optional[VerdictStore] = None,
    ) -> None:
        self.system = system
        self.config = config
        self.observer = observer or SynthesisObserver()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: metric handles are bound once here — the hot paths below do a
        #: ``None`` check and an attribute bump, never a registry lookup
        self._metric_handles = None
        if self.telemetry.enabled and self.telemetry.metrics is not None:
            metrics = self.telemetry.metrics
            self._metric_handles = {
                "evaluated": metrics.counter(
                    "synth_candidates_evaluated",
                    "candidates dispatched to the model checker"),
                "solutions": metrics.counter(
                    "synth_solutions_found", "correct completions found"),
                "states": metrics.counter(
                    "mc_states_visited",
                    "states interned across candidate runs"),
                "transitions": metrics.counter(
                    "mc_transitions_fired",
                    "rule firings across candidate runs"),
                "peak": metrics.gauge(
                    "mc_peak_states",
                    "largest single-run visited-state count"),
                "check_seconds": metrics.histogram(
                    "mc_check_seconds", "per-candidate model-check time"),
                "verdicts": {
                    name: metrics.counter(
                        "synth_verdicts", "verdicts by kind", verdict=name)
                    for name in ("success", "failure", "unknown")
                },
            }
        self.registry = registry if registry is not None else HoleRegistry()
        self.fail_table = PruningTable()
        self.success_table = PruningTable()
        if not config.pruning:
            # Without wildcard semantics a prefix run cannot stand in for
            # its extensions.
            self.prefix_cache: Optional[PrefixCache] = None
        elif prefix_cache is not None:
            # A caller-owned cache outliving this core (the process-backend
            # worker keeps one across passes; keys stay valid because the
            # canonical hole order only ever appends).
            self.prefix_cache = prefix_cache
        else:
            self.prefix_cache = PrefixCache()
        # A caller-owned store outliving this core (the process-backend
        # worker keeps one across passes) is used as-is; otherwise the
        # core opens — and later closes — its own when the config asks.
        self._owns_store = False
        if store is not None:
            self.store: Optional[VerdictStore] = store
        elif config.store_path is not None:
            self.store = VerdictStore(config.store_path)
            self._owns_store = True
        else:
            self.store = None
        self.store_attached = self.store is not None
        if self.store is not None:
            self._system_sig = system_signature(system)
            self._flags_sig = flags_signature(config)
        #: candidate width -> its store keyer (:func:`candidate_keyer`); a
        #: width's leading holes never change, as the registry only appends
        self._keyers: Dict[int, Callable[[Sequence[int]], str]] = {}
        self.store_hits = 0
        self.store_writes = 0
        self.solutions: List[Solution] = []
        self.evaluated = 0
        self.deduplicated = 0
        self.verdict_counts: Dict[str, int] = {"success": 0, "failure": 0, "unknown": 0}
        #: merged prefix-cache counters from other cores (the distributed
        #: coordinator folds worker deltas in here; finalize_report adds
        #: this core's own cache counters on top)
        self.merged_prefix_counters = [0, 0, 0]  # hits, builds, states_reused
        #: largest visited-state count of any single candidate run (the
        #: high-water mark the report surfaces)
        self.peak_states = 0
        self.inherent_failure = False
        self.inherent_failure_message = ""
        self.stopped_early = False
    # -- evaluation ---------------------------------------------------------

    def make_resolver(self, vector: CandidateVector):
        """The resolver for one candidate (wildcard or defaulting mode)."""
        if self.config.pruning:
            return CandidateResolver(self.registry, vector)
        return DefaultingResolver(self.registry, vector)

    def evaluate(self, vector: CandidateVector) -> Tuple[VerificationResult, ExplorationKernel]:
        """Model check one candidate, resuming from the prefix cache when possible."""
        tele = self.telemetry
        if not tele.enabled:
            return self._evaluate_inner(vector)
        begin = time.perf_counter()
        with tele.span("evaluate", candidate=_candidate_label(vector)) as span:
            result, explorer = self._evaluate_inner(vector)
            span.set(
                verdict=result.verdict.value,
                states=result.stats.states_visited,
            )
        handles = self._metric_handles
        if handles is not None:
            handles["check_seconds"].observe(time.perf_counter() - begin)
        return result, explorer

    def _evaluate_inner(self, vector: CandidateVector) -> Tuple[VerificationResult, ExplorationKernel]:
        digits = vector.entries
        concrete = WILDCARD not in digits
        key = None
        if self.store is not None and concrete:
            keyer = self._keyers.get(len(digits))
            if keyer is None:
                keyer = self._keyers[len(digits)] = candidate_keyer(
                    self._system_sig,
                    self._flags_sig,
                    self.registry.names()[: len(digits)],
                )
            key = keyer(digits)
            record = self.store.lookup(key)
            if record is not None and self._stored_run_usable(record):
                self.store_hits += 1
                return self._replay_stored_run(record)
            holes_before = len(self.registry)
        cache = self.prefix_cache
        resume: Optional[ExplorationCheckpoint] = None
        collect = False
        cacheable = cache is not None and concrete
        if cacheable:
            if len(vector) == 0:
                # The initial run *is* the empty-prefix exploration; keep
                # its checkpoint so pass-1 candidates resume from it.
                collect = True
            else:
                resume = self._resume_checkpoint(digits, cache)
        explorer = ExplorationKernel(
            self.system,
            resolver=self.make_resolver(vector),
            resume_from=resume,
            collect_checkpoint=collect,
            telemetry=self.telemetry if self.telemetry.enabled else None,
        )
        result = explorer.run()
        if collect:
            cache.store((), explorer.checkpoint)
        if resume is not None:
            cache.note_hit(result.stats.prefix_states_reused)
        if key is not None:
            return self._record_stored_run(
                key, holes_before, digits, result, explorer
            )
        return result, explorer

    # -- verdict store ------------------------------------------------------

    def _stored_run_usable(self, record: dict) -> bool:
        """Whether a store hit satisfies everything this run must produce.

        A stored success without a fingerprint cannot serve a run that
        was asked to compute fingerprints — treat it as a miss and let
        the cold run re-record with one.
        """
        return not (
            self.config.compute_fingerprints
            and record.get("verdict") == Verdict.SUCCESS.value
            and record.get("fingerprint") is None
        )

    def _replay_stored_run(
        self, record: dict
    ) -> Tuple[VerificationResult, "_StoredRunExplorer"]:
        """Build a :class:`VerificationResult` from a store record, sans model check.

        Holes the original run discovered are *reserved* (placeholder
        slots in discovery order); a later cold run binds the real hole
        objects by name (:meth:`HoleRegistry.reserve`).
        """
        registry = self.registry
        for name, action_names in record.get("new_holes", ()):
            registry.reserve(
                Hole(name, tuple(Action(action) for action in action_names))
            )
        executed = []
        for name in record.get("executed", ()):
            try:
                executed.append(registry.hole_named(name))
            except KeyError:
                # The hole exists in the stored run but was never reserved
                # nor discovered here — impossible for self-recorded runs,
                # but tolerated for hand-edited journals.
                executed.append(Hole(name, (Action(name),)))
        stats = record.get("stats", {})
        try:
            run_stats = RunStats(**stats)
        except TypeError:  # a field this version no longer has
            run_stats = RunStats(**{
                name: value
                for name, value in stats.items()
                if name in _RUN_STATS_FIELDS
            })
        failure_kind = record.get("failure_kind")
        pattern = record.get("pattern")
        result = VerificationResult(
            verdict=Verdict(record["verdict"]),
            failure_kind=FailureKind(failure_kind) if failure_kind else None,
            message=str(record.get("message", "")),
            stats=run_stats,
            wildcard_encountered=bool(record.get("wildcard_encountered")),
            executed_holes=frozenset(executed),
            unmet_coverage=tuple(record.get("unmet_coverage", ())),
            stored_pattern=(
                None if pattern is None else tuple(map(tuple, pattern))
            ),
        )
        return result, _StoredRunExplorer(record.get("fingerprint"))

    def _record_stored_run(
        self,
        key: str,
        holes_before: int,
        digits: Tuple[int, ...],
        result: VerificationResult,
        explorer: ExplorationKernel,
    ) -> Tuple[VerificationResult, ExplorationKernel]:
        """Append one cold run's outcome to the store.

        The failure pattern and the solution fingerprint are computed
        *here*, once, and handed back — the pattern on the result
        (``stored_pattern``), the fingerprint by an explorer stand-in —
        so :meth:`handle_result` computes neither a second time.
        """
        pattern = None
        if result.is_failure and self.config.pruning:
            pattern = self._pattern_for_failure(digits, result).constraints
            result = dataclasses.replace(result, stored_pattern=pattern)
        fingerprint = None
        if result.is_success and self.config.compute_fingerprints:
            fingerprint = explorer.fingerprint_visited()
            explorer = _StoredRunExplorer(fingerprint)
        new_holes = self.registry.holes[holes_before:]
        self.store.record(
            key, _run_record(result, fingerprint, pattern, new_holes)
        )
        self.store_writes += 1
        return result, explorer

    def close_store(self) -> None:
        """Flush and close a core-owned store (no-op for caller-owned ones)."""
        if self._owns_store and self.store is not None:
            self.store.close()
            self.store = None

    def _resume_checkpoint(
        self, digits: Tuple[int, ...], cache: PrefixCache
    ) -> Optional[ExplorationCheckpoint]:
        """Deepest usable checkpoint for a candidate, building the chain.

        Walks the cache for the longest already-built prefix of ``digits``,
        then extends the chain one digit at a time (each level resuming
        from the previous) up to the parent prefix ``digits[:-1]``.  A
        level whose exploration hits a counterexample (invariant/deadlock)
        is stored as a negative entry and stops the chain — the candidate
        still resumes from the deepest good level below it.  A level
        failing only *coverage* checkpoints normally: it was a complete,
        wildcard-free exploration, so resumed extensions inherit the same
        verdict instantly instead of re-exploring.
        """
        n = len(digits)
        best: Optional[ExplorationCheckpoint] = None
        best_len = -1
        blocked: Optional[int] = None
        for k in range(n - 1, -1, -1):
            found, entry = cache.lookup(tuple(digits[:k]))
            if not found:
                continue
            if entry is None:
                blocked = k
                continue
            best, best_len = entry, k
            break
        last_good = best
        for k in range((best_len + 1) if best is not None else 0, n):
            if blocked is not None and k >= blocked:
                break
            built = self._build_prefix_checkpoint(tuple(digits[:k]), last_good, cache)
            if built is None:
                break
            last_good = built
        return last_good

    def _build_prefix_checkpoint(
        self,
        prefix: Tuple[int, ...],
        resume: Optional[ExplorationCheckpoint],
        cache: PrefixCache,
    ) -> Optional[ExplorationCheckpoint]:
        tele = self.telemetry
        span = (
            tele.span("prefix_build", prefix=len(prefix))
            if tele.enabled
            else nullcontext()
        )
        with span:
            explorer = ExplorationKernel(
                self.system,
                resolver=self.make_resolver(CandidateVector.from_digits(prefix)),
                resume_from=resume,
                collect_checkpoint=True,
                telemetry=tele if tele.enabled else None,
            )
            explorer.run()
        cache.store(prefix, explorer.checkpoint)
        cache.note_build()
        return explorer.checkpoint

    def run_initial(self) -> None:
        """Run 1 of the paper: the empty candidate discovers the first holes.

        In naive mode the initial run *is* the all-defaults candidate; it is
        counted once here and deduplicated in later passes.
        """
        vector = CandidateVector.empty()
        result, explorer = self.evaluate(vector)
        self.evaluated += 1
        self.handle_result(vector, result, explorer, run_index=self.evaluated)

    def process_candidate(
        self,
        walker: "_PassWalker",
        digits: Tuple[int, ...],
        first_new: int,
    ) -> None:
        """Dispatch one enumerated candidate: dedup, prune, or model check.

        This is the single verdict-handling path shared by the sequential
        engine and the process workers (``repro.dist``).  The evaluation
        budget is checked *before* the model-checker run.
        """
        if not self.config.pruning and self.all_defaults_since(digits, first_new):
            self.deduplicated += 1
            walker.counters.yielded -= 1
            return
        tag = walker.recheck_at_leaf()
        if tag is not None:
            walker.enumerator.note_leaf_skipped(tag)
            self.observer.on_prune(digits, tag)
            return
        self.check_evaluation_budget()
        vector = CandidateVector.from_digits(digits)
        result, explorer = self.evaluate(vector)
        self.evaluated += 1
        self.handle_result(vector, result, explorer, run_index=self.evaluated)

    def finalize_report(self, report: "SynthesisReport") -> "SynthesisReport":
        """Copy the aggregate outcome into ``report`` (shared by all engines)."""
        report.holes = list(self.registry.holes)
        report.evaluated = self.evaluated
        report.deduplicated = self.deduplicated
        report.verdict_counts = dict(self.verdict_counts)
        report.failure_patterns = len(self.fail_table)
        report.success_patterns = len(self.success_table)
        report.solutions = list(self.solutions)
        report.inherent_failure = self.inherent_failure
        report.inherent_failure_message = self.inherent_failure_message
        report.stopped_early = self.stopped_early
        hits, builds, reused = self.merged_prefix_counters
        if self.prefix_cache is not None:
            own_hits, own_builds, own_reused = self.prefix_cache.counters()
            hits += own_hits
            builds += own_builds
            reused += own_reused
        report.prefix_cache_hits = hits
        report.prefix_cache_builds = builds
        report.prefix_states_reused = reused
        report.peak_states = self.peak_states
        report.store_enabled = self.store_attached
        report.store_path = self.config.store_path
        report.store_hits = self.store_hits
        report.store_writes = self.store_writes
        tele = self.telemetry
        report.telemetry_enabled = tele.enabled
        if tele.enabled:
            report.trace_path = tele.trace_path
            report.trace_events = tele.events_written
            if self._metric_handles is not None and self.prefix_cache is not None:
                own_hits, own_builds, own_reused = self.prefix_cache.counters()
                metrics = tele.metrics
                metrics.gauge(
                    "prefix_cache_hits", "resumed candidate evaluations"
                ).track_max(own_hits)
                metrics.gauge(
                    "prefix_cache_builds", "prefix explorations performed"
                ).track_max(own_builds)
                metrics.gauge(
                    "prefix_states_reused", "states inherited, not re-explored"
                ).track_max(own_reused)
        return report

    def handle_result(
        self,
        vector: CandidateVector,
        result: VerificationResult,
        explorer: ExplorationKernel,
        run_index: int,
    ) -> None:
        """Record patterns/solutions for one dispatched candidate."""
        digits = vector.entries
        self.verdict_counts[result.verdict.value] += 1
        if result.stats.states_visited > self.peak_states:
            self.peak_states = result.stats.states_visited
        handles = self._metric_handles
        if handles is not None:
            handles["evaluated"].inc()
            handles["verdicts"][result.verdict.value].inc()
            handles["states"].inc(result.stats.states_visited)
            handles["transitions"].inc(result.stats.transitions_fired)
            handles["peak"].track_max(result.stats.states_visited)
        progress = self.telemetry.progress
        if progress is not None:
            progress.tick(
                evaluated=self.evaluated,
                solutions=len(self.solutions),
                patterns=len(self.fail_table),
                peak_states=self.peak_states,
                cache_hits=(
                    self.prefix_cache.hits if self.prefix_cache is not None else 0
                ),
            )
        holes = self.registry.holes
        self.observer.on_run(run_index, vector, result, holes)

        if result.is_failure and self.config.pruning:
            pattern = self._pattern_for_failure(digits, result)
            if pattern.is_empty:
                self.inherent_failure = True
                self.inherent_failure_message = result.message or "empty candidate failed"
                raise _StopSynthesis()
            if self.fail_table.add(pattern):
                self.observer.on_pattern(pattern, holes)
        elif result.is_success:
            solution = Solution(
                digits=digits,
                assignment=tuple(
                    (holes[pos].name, holes[pos].domain[action].name)
                    for pos, action in enumerate(digits)
                ),
                states_visited=result.stats.states_visited,
                fingerprint=(
                    explorer.fingerprint_visited()
                    if self.config.compute_fingerprints
                    else None
                ),
                run_index=run_index,
                executed_holes=tuple(
                    sorted(hole.name for hole in result.executed_holes)
                ),
            )
            self.solutions.append(solution)
            if handles is not None:
                handles["solutions"].inc()
            self.observer.on_solution(solution, holes)
            if self.config.pruning:
                self.success_table.add(PruningPattern.from_candidate(vector))
            if (
                self.config.solution_limit is not None
                and len(self.solutions) >= self.config.solution_limit
            ):
                self.stopped_early = True
                raise _StopSynthesis()

    def _pattern_for_failure(
        self, digits: Tuple[int, ...], result: VerificationResult
    ) -> PruningPattern:
        if result.stored_pattern is not None:
            # Precomputed — replayed from the verdict store, or computed
            # once while recording to it; never generalise twice.
            return PruningPattern(result.stored_pattern)
        # Called through this module's binding, which instrumentation may
        # wrap.
        return generalise_failure(self.registry, digits, result)

    def check_evaluation_budget(self) -> None:
        """Stop the synthesis once the evaluation cap is reached."""
        if (
            self.config.max_evaluations is not None
            and self.evaluated >= self.config.max_evaluations
        ):
            self.stopped_early = True
            raise _StopSynthesis()

    def all_defaults_since(self, digits: Tuple[int, ...], first_new: int) -> bool:
        """Naive-mode dedup: are all positions >= first_new at action 0?

        Such a candidate is behaviourally identical to the shorter prefix
        already evaluated in the previous pass (action 0 was substituted
        for the then-unknown holes), so it is skipped and counted as a
        duplicate; the total of unique evaluations telescopes to exactly the
        full product, matching the paper's naive "Evaluated" column.
        """
        return not any(digits[first_new:])


class _PassWalker:
    """Adapter: one pass walk with pattern-delta tracking at leaves."""

    def __init__(self, core: SynthesisCore, radices: Sequence[int],
                 start: int = 0, end: Optional[int] = None) -> None:
        self.core = core
        config = core.config
        self._pairs: List[Tuple[str, PruningTable, DfsMatcher]] = []
        if not config.pruning:
            self.enumerator = SubtreeEnumerator(radices, [], start, end)
        else:
            matchers = []
            for tag, table in (
                (FAIL_TAG, core.fail_table),
                (SUCCESS_TAG, core.success_table),
            ):
                matcher = DfsMatcher(table.all_patterns())
                matchers.append((tag, matcher))
                self._pairs.append((tag, table, matcher))
            self._seen_versions = {
                tag: table.version for tag, table, _m in self._pairs
            }
            self.enumerator = SubtreeEnumerator(radices, matchers, start, end)

    def recheck_at_leaf(self) -> Optional[str]:
        """Integrate patterns that arrived since this walker last looked.

        Returns the tag of a now-matching table, or None if the candidate
        should be dispatched.
        """
        if not self.core.config.pruning:
            return None
        path = self.enumerator.current_path
        for tag, table, matcher in self._pairs:
            version = table.version
            seen = self._seen_versions[tag]
            if version > seen:
                matcher.integrate(table.patterns_since(seen), path)
                self._seen_versions[tag] = version
        return self.enumerator.matched_tag()

    @property
    def counters(self):
        return self.enumerator.counters


class SynthesisEngine:
    """Sequential synthesis driver."""

    def __init__(
        self,
        system: TransitionSystem,
        config: Optional[SynthesisConfig] = None,
        observer: Optional[SynthesisObserver] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.system = system
        self.config = config or SynthesisConfig()
        self.telemetry, self._owns_telemetry = resolve_telemetry(
            self.config, telemetry
        )
        self.core = SynthesisCore(
            system, self.config, observer, telemetry=self.telemetry
        )

    def run(self) -> SynthesisReport:
        """Run the full synthesis procedure and return the report."""
        core = self.core
        config = self.config
        report = SynthesisReport(
            system_name=self.system.name,
            pruning=config.pruning,
            threads=1,
            backend="sequential",
        )
        watch = Stopwatch.started()
        try:
            with self.telemetry.span(
                "synthesis", system=self.system.name, backend="sequential"
            ) as span:
                try:
                    core.run_initial()
                    self._run_passes(report)
                except _StopSynthesis:
                    pass
                span.set(evaluated=core.evaluated, solutions=len(core.solutions))
            report.elapsed_seconds = watch.elapsed
            report = core.finalize_report(report)
        finally:
            core.close_store()
            if self._owns_telemetry:
                self.telemetry.close()
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
            walker = _PassWalker(core, [hole.arity for hole in holes])
            with self.telemetry.span("pass", index=report.passes, holes=len(holes)):
                self._walk_pass(walker, first_new, report)
            counters = walker.counters
            report.covered += counters.covered
            report.pruned_failure += counters.skipped.get(FAIL_TAG, 0)
            report.skipped_success += counters.skipped.get(SUCCESS_TAG, 0)

    def _walk_pass(self, walker: _PassWalker, first_new: int,
                   report: SynthesisReport) -> None:
        core = self.core
        for digits in walker.enumerator:
            core.process_candidate(walker, digits, first_new)
