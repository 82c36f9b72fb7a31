"""The differential oracle: one spec against the configuration lattice.

Every generated protocol is pushed through a lattice of configurations —
symmetry on/off, sequential and processes backends, verdict-store
recording and replay, plus a ``wholestate`` run with the spec's codec
removed — and the runs are
compared against each other under the *promises each mode actually
makes*:

* **verdicts** are compared across every configuration, always: the
  reference completion must verify and the seeded bug completion must
  fail everywhere (and its counterexample must replay step by step);
* **state/transition/attempt counts** are compared within groups that
  promise count-exactness — codec on/off (``wholestate``) agree on
  complete and failing explorations alike, but symmetry-off visits more,
  so it forms its own group;
* **solution sets** (as hole-name -> action-name assignment sets) are
  compared across every synthesis configuration, always;
* **solution fingerprints** (visited-set hashes) are compared within
  groups sharing a state space — symmetry-off legitimately changes the
  visited set;
* **evaluated counts** are compared only where enumeration order and
  pruning-pattern content are promised identical (sequential symmetric
  configs, ``wholestate`` included).

The ``wholestate`` configs are the lattice's independent canonicaliser:
with the codec removed, the kernel runs on the whole-state codec derived
from the system's ``canonicalize``, so every orbit goes through the DSL
``Permuter`` instead of the codec's remap tables.

Candidate evaluations flow through
:meth:`repro.core.engine.SynthesisCore.evaluate` — the same single
verdict path the sequential and process backends share — so a
divergence here is a real engine divergence, not a harness artifact.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.candidate import CandidateVector
from repro.core.engine import SynthesisConfig, SynthesisCore, SynthesisEngine
from repro.fuzz.spec import (
    ProtocolSpec,
    build_reference_system,
    build_skeleton_from_spec,
    resolver_for_assignment,
    spec_payload,
)
from repro.mc.context import ExecutionContext
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import VerificationResult

# -- lattice configurations ---------------------------------------------------


@dataclass(frozen=True)
class KernelConfig:
    """One verify/bug-replay configuration (kernel level, no backend)."""

    name: str
    #: run with the spec's codec removed (the derived whole-state codec)
    wholestate: bool = False
    symmetry: bool = True

    @property
    def counts_group(self) -> str:
        """Configs sharing a group promise identical run counts, on
        complete explorations and at a failure stop alike."""
        return "sym" if self.symmetry else "nosym"


@dataclass(frozen=True)
class SynthLatticeConfig:
    """One synthesis configuration (engine + backend level).

    ``store`` is a verdict-store *tag*: configs sharing a tag share one
    store directory for the duration of a spec sweep, in list order —
    so a recording config listed before a same-tag config makes the
    latter a warm (replaying) run.  The store promises verdict-for-
    verdict equivalence, so every cross-config comparison below applies
    to store configs unchanged; sequential warm runs additionally
    promise zero model checks.
    """

    name: str
    backend: str = "sequential"
    workers: int = 2
    #: run with the spec's codec removed (sequential backend only: worker
    #: processes rebuild the system from the spec)
    wholestate: bool = False
    symmetry: bool = True
    store: str = ""

    @property
    def evaluated_exact(self) -> bool:
        """Whether ``report.evaluated`` must equal the reference's.

        Only sequential symmetric configs promise this: a different
        backend changes hole-discovery and pattern-arrival order.
        """
        return self.backend == "sequential" and self.symmetry

    @property
    def fingerprint_group(self) -> bool:
        """Configs sharing symmetry share per-solution visited sets."""
        return self.symmetry

    @property
    def deterministic(self) -> bool:
        """Whether ``evaluated`` is reproducible run to run (journal use).

        The process backend shares pruning patterns with
        timing-dependent reach, so its evaluated counts may vary
        between runs even at a fixed seed.
        """
        return self.backend == "sequential"


@dataclass(frozen=True)
class Lattice:
    """A named set of kernel and synthesis configurations.

    The first entry of each list is the comparison reference and must be
    the all-promises configuration (with the spec's codec, symmetric).
    """

    name: str
    verify: Tuple[KernelConfig, ...]
    synth: Tuple[SynthLatticeConfig, ...]


def ablation_lattice() -> Lattice:
    """The default lattice: the reference plus one-factor ablations and a
    few combined corners — every acceleration is pinned against the shared
    reference without paying for the full cartesian product."""
    return Lattice(
        "ablation",
        verify=(
            KernelConfig("ref"),
            KernelConfig("wholestate", wholestate=True),
            KernelConfig("nosym", symmetry=False),
        ),
        synth=(
            SynthLatticeConfig("ref"),
            SynthLatticeConfig("wholestate", wholestate=True),
            SynthLatticeConfig("processes", backend="processes"),
            SynthLatticeConfig("nosym", symmetry=False),
            # The verdict store: a cold recording run must behave
            # exactly like the reference, and the same-tag run after it
            # replays warm — still pinned against every promise above.
            # The processes pair drives recording and replay through
            # the work-stealing shard path.
            SynthLatticeConfig("store", store="seq"),
            SynthLatticeConfig("store-warm", store="seq"),
            SynthLatticeConfig("store-processes", backend="processes", store="dist"),
            SynthLatticeConfig(
                "store-processes-warm", backend="processes", store="dist"
            ),
        ),
    )


def tier1_lattice() -> Lattice:
    """The corpus-replay lattice: sequential-only, seconds per spec, so the
    checked-in corpus fits tier-1's time guard."""
    return Lattice(
        "tier1",
        verify=(
            KernelConfig("ref"),
            KernelConfig("wholestate", wholestate=True),
        ),
        synth=(
            SynthLatticeConfig("ref"),
            SynthLatticeConfig("wholestate", wholestate=True),
        ),
    )


LATTICES: Dict[str, Callable[[], Lattice]] = {
    "ablation": ablation_lattice,
    "tier1": tier1_lattice,
}


# -- divergences --------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """One broken promise between two configurations on one spec."""

    phase: str  #: "verify" | "bug" | "synth"
    kind: str  #: "verdict" | "counts" | "solutions" | "fingerprints" | ...
    config: str  #: the diverging configuration's name
    baseline: str  #: what it was compared against ("" for absolute checks)
    detail: str

    def to_dict(self) -> Dict[str, str]:
        """JSON-able view (corpus files, journals)."""
        return {
            "phase": self.phase,
            "kind": self.kind,
            "config": self.config,
            "baseline": self.baseline,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Divergence":
        """Parse :meth:`to_dict` output."""
        return cls(
            phase=str(data.get("phase", "")),
            kind=str(data.get("kind", "")),
            config=str(data.get("config", "")),
            baseline=str(data.get("baseline", "")),
            detail=str(data.get("detail", "")),
        )


@dataclass
class SpecCheck:
    """Everything one spec's lattice sweep produced."""

    spec: ProtocolSpec
    lattice: str
    divergences: List[Divergence] = field(default_factory=list)
    verify: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    bug: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    synth: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    solutions: List[List[List[str]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No divergence anywhere in the sweep."""
        return not self.divergences

    def journal_row(self) -> Dict[str, Any]:
        """A deterministic JSON row (no wall-clock, no unstable counters)."""
        return {
            "spec": self.spec.name,
            "seed": self.spec.seed,
            "lattice": self.lattice,
            "ok": self.ok,
            "verify": self.verify,
            "bug": self.bug,
            "synth": self.synth,
            "solutions": self.solutions,
            "divergences": [d.to_dict() for d in self.divergences],
        }


# -- trace replay -------------------------------------------------------------


def replay_trace(system, trace, resolver=None) -> Optional[str]:
    """Replay a counterexample against a fresh system build.

    Fires each step's named rule from the previous state and requires the
    recorded successor among the real successors, then requires the final
    state to actually violate an invariant or be a real deadlock.  Returns
    ``None`` on success or a human-readable discrepancy.
    """
    rules = {rule.name: rule for rule in system.rules}
    ctx = ExecutionContext(resolver)
    current = None
    for index, step in enumerate(trace.steps):
        if step.rule_name is None:
            if not any(step.state == s for s in system.initial_states()):
                return f"step {index}: not an initial state"
        else:
            rule = rules.get(step.rule_name)
            if rule is None:
                return f"step {index}: unknown rule {step.rule_name!r}"
            if not rule.guard(current):
                return f"step {index}: guard false for {step.rule_name!r}"
            successors = rule.fire(current, ctx)
            if not any(step.state == s for s in successors):
                return (
                    f"step {index}: recorded state is not a successor of "
                    f"{step.rule_name!r}"
                )
        current = step.state
    if current is None:
        return "empty trace"
    violated = any(not inv.holds(current) for inv in system.invariants)
    deadlocked = not any(rule.guard(current) for rule in system.rules)
    if not (violated or deadlocked):
        return "final state violates no invariant and is not a deadlock"
    return None


# -- the runner ---------------------------------------------------------------


def _without_codec(system, wholestate: bool):
    """``system`` with its codec removed when ``wholestate`` is set."""
    if wholestate:
        system.packed_spec = None
    return system


def _result_counts(result: VerificationResult) -> Tuple[int, int, int]:
    stats = result.stats
    return (
        stats.states_visited,
        stats.transitions_fired,
        stats.rules_attempted,
    )


def _assignment_view(report) -> List[Tuple[Tuple[str, str], ...]]:
    """Order-insensitive solution-set view (mirrors the equivalence suites)."""
    return sorted(
        tuple(sorted(solution.assignment)) for solution in report.solutions
    )


def _fingerprint_view(report) -> Dict[Tuple[Tuple[str, str], ...], Any]:
    return {
        tuple(sorted(s.assignment)): s.fingerprint for s in report.solutions
    }


def _covers_reference(report, reference: Dict[str, str]) -> bool:
    """Does some solution agree with the known-good completion?

    Solutions may be partial (don't-care holes stay unassigned), so
    agreement on every assigned hole is the right containment check.
    """
    for solution in report.solutions:
        assigned = dict(solution.assignment)
        if assigned and all(
            reference.get(hole) == action for hole, action in assigned.items()
        ):
            return True
    return False


class DifferentialRunner:
    """Runs specs through a lattice and reports broken promises.

    Args:
        lattice: a :class:`Lattice`, or a name in :data:`LATTICES`.
        max_evaluations: optional per-synthesis-run candidate budget
            (safety valve for pathological specs; the family's spaces are
            small enough that the default ``None`` is fine).
        workers: worker-process count for the processes backend.
    """

    def __init__(
        self,
        lattice: Any = "ablation",
        max_evaluations: Optional[int] = None,
        workers: int = 2,
    ) -> None:
        if isinstance(lattice, str):
            try:
                lattice = LATTICES[lattice]()
            except KeyError:
                raise ValueError(
                    f"unknown lattice {lattice!r}; "
                    f"available: {', '.join(sorted(LATTICES))}"
                ) from None
        self.lattice: Lattice = lattice
        self.max_evaluations = max_evaluations
        self.workers = workers

    # -- public API ---------------------------------------------------------

    def check_spec(self, spec: ProtocolSpec) -> SpecCheck:
        """The full sweep: verify + bug-replay + synthesis phases."""
        return self._check(spec, self.lattice.verify, self.lattice.synth)

    def still_diverges(self, spec: ProtocolSpec, divergence: Divergence) -> bool:
        """Does the *specific* broken promise survive on (a shrunk) spec?

        Re-runs only the two configurations the divergence names and
        compares them with the same oracle — the shrinker's fast path.
        Any same-phase divergence between the pair counts (shrinking may
        shift a counts mismatch into a verdict mismatch).
        """
        names = {divergence.config, divergence.baseline} - {""}
        if divergence.phase in ("verify", "bug"):
            configs = tuple(
                c for c in self.lattice.verify
                if c.name in names or c.name == self.lattice.verify[0].name
            )
            check = self._check(spec, configs, ())
        else:
            # A warm store config only reproduces with its same-tag
            # recording predecessors in place, so keep the whole tag.
            tags = {
                c.store for c in self.lattice.synth
                if c.name in names and c.store
            }
            configs = tuple(
                c for c in self.lattice.synth
                if c.name in names
                or c.name == self.lattice.synth[0].name
                or (c.store and c.store in tags)
            )
            check = self._check(spec, (), configs)
        return any(d.phase == divergence.phase for d in check.divergences)

    # -- phases -------------------------------------------------------------

    def _check(
        self,
        spec: ProtocolSpec,
        verify_configs: Sequence[KernelConfig],
        synth_configs: Sequence[SynthLatticeConfig],
    ) -> SpecCheck:
        check = SpecCheck(spec=spec, lattice=self.lattice.name)
        if verify_configs:
            self._verify_phase(spec, verify_configs, check)
            self._bug_phase(spec, verify_configs, check)
        if synth_configs:
            self._synth_phase(spec, synth_configs, check)
        return check

    def _verify_phase(
        self,
        spec: ProtocolSpec,
        configs: Sequence[KernelConfig],
        check: SpecCheck,
    ) -> None:
        results: Dict[str, VerificationResult] = {}
        for kc in configs:
            try:
                results[kc.name] = self._kernel_reference_run(spec, kc)
            except Exception as exc:  # noqa: BLE001 - sweep must survive
                check.divergences.append(Divergence(
                    "verify", "error", kc.name, "",
                    f"{type(exc).__name__}: {exc}",
                ))
        group_baseline: Dict[str, Tuple[str, Tuple[int, int, int]]] = {}
        for kc in configs:
            result = results.get(kc.name)
            if result is None:
                continue
            counts = _result_counts(result)
            check.verify[kc.name] = {
                "verdict": result.verdict.value,
                "states": counts[0],
                "transitions": counts[1],
                "attempts": counts[2],
            }
            if not result.is_success:
                check.divergences.append(Divergence(
                    "verify", "ground-truth", kc.name, "",
                    f"reference completion got {result.verdict.value} "
                    f"({result.message or 'no message'})",
                ))
                continue
            group = kc.counts_group
            if group not in group_baseline:
                group_baseline[group] = (kc.name, counts)
            else:
                base_name, base_counts = group_baseline[group]
                if counts != base_counts:
                    check.divergences.append(Divergence(
                        "verify", "counts", kc.name, base_name,
                        f"states/transitions/attempts {counts} != "
                        f"{base_counts}",
                    ))

    def _bug_phase(
        self,
        spec: ProtocolSpec,
        configs: Sequence[KernelConfig],
        check: SpecCheck,
    ) -> None:
        group_baseline: Dict[str, Tuple[str, Tuple[int, int, int], str]] = {}
        for kc in configs:
            try:
                result = self._kernel_bug_run(spec, kc)
            except Exception as exc:  # noqa: BLE001 - sweep must survive
                check.divergences.append(Divergence(
                    "bug", "error", kc.name, "",
                    f"{type(exc).__name__}: {exc}",
                ))
                continue
            kind = result.failure_kind.value if result.failure_kind else ""
            check.bug[kc.name] = {
                "verdict": result.verdict.value,
                "kind": kind,
                "states": result.stats.states_visited,
            }
            if not result.is_failure:
                check.divergences.append(Divergence(
                    "bug", "verdict", kc.name, "",
                    f"seeded bug got {result.verdict.value}, expected FAILURE",
                ))
                continue
            if result.trace is None:
                check.divergences.append(Divergence(
                    "bug", "trace-replay", kc.name, "",
                    "failure reported without a counterexample trace",
                ))
            else:
                problem = self._replay_bug_trace(spec, kc, result)
                if problem is not None:
                    check.divergences.append(Divergence(
                        "bug", "trace-replay", kc.name, "", problem
                    ))
            group = kc.counts_group
            entry = (kc.name, _result_counts(result), kind)
            if group not in group_baseline:
                group_baseline[group] = entry
            else:
                base_name, base_counts, base_kind = group_baseline[group]
                if _result_counts(result) != base_counts:
                    check.divergences.append(Divergence(
                        "bug", "counts", kc.name, base_name,
                        f"failure-run counts {_result_counts(result)} "
                        f"!= {base_counts}",
                    ))
                if kind != base_kind:
                    check.divergences.append(Divergence(
                        "bug", "verdict", kc.name, base_name,
                        f"failure kind {kind!r} != {base_kind!r}",
                    ))

    def _synth_phase(
        self,
        spec: ProtocolSpec,
        configs: Sequence[SynthLatticeConfig],
        check: SpecCheck,
    ) -> None:
        reports: Dict[str, Any] = {}
        warmed: set = set()
        with tempfile.TemporaryDirectory(prefix="verc3-fuzz-store-") as root:
            for sc in configs:
                try:
                    reports[sc.name] = self._synth_run(spec, sc, root)
                except Exception as exc:  # noqa: BLE001 - sweep must survive
                    check.divergences.append(Divergence(
                        "synth", "error", sc.name, "",
                        f"{type(exc).__name__}: {exc}",
                    ))
                    continue
                self._check_store_promises(sc, reports[sc.name], warmed, check)
        baseline_name = configs[0].name
        baseline = reports.get(baseline_name)
        reference = spec.reference_assignment
        fingerprint_baseline: Dict[Tuple[bool, bool], Tuple[str, Dict]] = {}
        for sc in configs:
            report = reports.get(sc.name)
            if report is None:
                continue
            view = _assignment_view(report)
            check.synth[sc.name] = {
                "solutions": len(report.solutions),
                "evaluated": report.evaluated if sc.deterministic else None,
            }
            if not _covers_reference(report, reference):
                check.divergences.append(Divergence(
                    "synth", "solutions", sc.name, "",
                    "known-good completion missing from the solution set",
                ))
            if report is baseline:
                check.solutions = [
                    [list(pair) for pair in solution] for solution in view
                ]
            elif baseline is not None:
                base_view = _assignment_view(baseline)
                if view != base_view:
                    check.divergences.append(Divergence(
                        "synth", "solutions", sc.name, baseline_name,
                        f"solution sets differ: {view!r} != {base_view!r}",
                    ))
                if sc.evaluated_exact and report.evaluated != baseline.evaluated:
                    check.divergences.append(Divergence(
                        "synth", "evaluated", sc.name, baseline_name,
                        f"evaluated {report.evaluated} != "
                        f"{baseline.evaluated}",
                    ))
            group = sc.fingerprint_group
            prints = _fingerprint_view(report)
            if group not in fingerprint_baseline:
                fingerprint_baseline[group] = (sc.name, prints)
            else:
                base_name, base_prints = fingerprint_baseline[group]
                if prints != base_prints:
                    check.divergences.append(Divergence(
                        "synth", "fingerprints", sc.name, base_name,
                        "per-solution visited-set fingerprints differ",
                    ))

    def _check_store_promises(
        self,
        sc: SynthLatticeConfig,
        report: Any,
        warmed: set,
        check: SpecCheck,
    ) -> None:
        """Absolute verdict-store promises, beyond the cross-config ones.

        Only the sequential backend promises exact hit accounting: its
        enumeration walk is deterministic, so a cold run records every
        evaluated candidate and the same-tag warm run replays all of
        them.  The processes backend prunes with timing-dependent reach —
        a warm run may evaluate a candidate its cold twin pruned — so
        for them the store is pinned only through the solution-set and
        fingerprint comparisons every config already gets.
        """
        if not sc.store or not getattr(report, "store_enabled", False):
            return
        if sc.backend == "sequential":
            if sc.store in warmed and report.model_checks != 0:
                check.divergences.append(Divergence(
                    "synth", "store", sc.name, "",
                    f"warm run performed {report.model_checks} model "
                    f"checks ({report.store_hits} replayed)",
                ))
            if sc.store not in warmed and report.store_writes != report.evaluated:
                check.divergences.append(Divergence(
                    "synth", "store", sc.name, "",
                    f"cold run recorded {report.store_writes} of "
                    f"{report.evaluated} verdicts",
                ))
        warmed.add(sc.store)

    # -- single runs --------------------------------------------------------

    def _kernel_reference_run(
        self, spec: ProtocolSpec, kc: KernelConfig
    ) -> VerificationResult:
        """One complete-protocol verification through SynthesisCore.evaluate."""
        system = _without_codec(
            build_reference_system(spec, symmetry=kc.symmetry), kc.wholestate
        )
        core = SynthesisCore(system, SynthesisConfig())
        result, _explorer = core.evaluate(CandidateVector.empty())
        return result

    def _kernel_bug_run(
        self, spec: ProtocolSpec, kc: KernelConfig
    ) -> VerificationResult:
        system, holes = build_skeleton_from_spec(spec, symmetry=kc.symmetry)
        resolver = resolver_for_assignment(holes, spec.bug_assignment)
        return ExplorationKernel(
            _without_codec(system, kc.wholestate), resolver=resolver
        ).run()

    def _replay_bug_trace(
        self, spec: ProtocolSpec, kc: KernelConfig, result: VerificationResult
    ) -> Optional[str]:
        # Replay against a *fresh* build: the trace must be a real
        # execution of the protocol, not of whatever the kernel cached.
        system, holes = build_skeleton_from_spec(spec, symmetry=kc.symmetry)
        resolver = resolver_for_assignment(holes, spec.bug_assignment)
        return replay_trace(system, result.trace, resolver)

    def _synth_run(
        self, spec: ProtocolSpec, sc: SynthLatticeConfig, store_root: str
    ):
        config = SynthesisConfig(
            compute_fingerprints=True,
            max_evaluations=self.max_evaluations,
            store_path=(
                os.path.join(store_root, sc.store) if sc.store else None
            ),
        )
        if sc.backend == "sequential":
            system, _holes = build_skeleton_from_spec(spec, symmetry=sc.symmetry)
            return SynthesisEngine(
                _without_codec(system, sc.wholestate), config
            ).run()
        if sc.wholestate:
            raise ValueError("wholestate configs run on the sequential backend")
        if sc.backend == "processes":
            # Imported lazily: repro.dist pulls in multiprocessing wiring
            # the sequential-only paths never need.
            from repro.dist import DistributedSynthesisEngine, SystemSpec

            spec_ref = SystemSpec(
                spec.name,
                spec.n_procs,
                fuzz_payload=spec_payload(spec, symmetry=sc.symmetry),
            )
            return DistributedSynthesisEngine(
                spec_ref, config, workers=self.workers, min_batch_size=2
            ).run()
        raise ValueError(f"unknown backend {sc.backend!r}")
