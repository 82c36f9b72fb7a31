"""Tests for pruning patterns, the table, and the incremental DFS matcher."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidate import WILDCARD, CandidateVector
from repro.core.enumeration import SubtreeEnumerator
from repro.core.pruning import DfsMatcher, PruningPattern, PruningTable
from repro.util.itertools2 import mixed_radix_decode, product_size

from tests.flat_oracle import pattern_matches


class TestPruningPattern:
    def test_from_candidate_drops_wildcards(self):
        vector = CandidateVector([1, WILDCARD, 0])
        pattern = PruningPattern.from_candidate(vector)
        assert pattern.constraints == ((0, 1), (2, 0))
        assert pattern.max_position == 2

    def test_empty_pattern(self):
        pattern = PruningPattern(())
        assert pattern.is_empty
        assert pattern_matches(pattern.constraints, (0, 0))

    def test_matching_superset_semantics(self):
        # The paper's core insight: <1@A> prunes any <1@A, 2@*, ...>.
        constraints = PruningPattern([(0, 0)]).constraints
        assert pattern_matches(constraints, (0, 1))
        assert pattern_matches(constraints, (0,))
        assert not pattern_matches(constraints, (1, 0))

    def test_candidate_wildcard_does_not_satisfy_constraint(self):
        constraints = PruningPattern([(1, 0)]).constraints
        assert not pattern_matches(constraints, CandidateVector([0, WILDCARD]).entries)
        assert not pattern_matches(constraints, (0,))

    def test_duplicate_position_rejected(self):
        with pytest.raises(ValueError):
            PruningPattern([(0, 1), (0, 2)])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PruningPattern([(-1, 0)])

    def test_equality_hash(self):
        assert PruningPattern([(1, 2), (0, 1)]) == PruningPattern([(0, 1), (1, 2)])
        assert hash(PruningPattern([(0, 1)])) == hash(PruningPattern([(0, 1)]))


class TestPruningTable:
    def test_add_appends_in_order(self):
        table = PruningTable()
        assert table.add(PruningPattern([(1, 0)]))
        assert table.add(PruningPattern([(0, 1)]))
        assert table.constraints_since(0) == (((1, 0),), ((0, 1),))

    def test_exact_duplicates_rejected(self):
        table = PruningTable()
        table.add(PruningPattern([(0, 1)]))
        assert not table.add(PruningPattern([(0, 1)]))
        assert len(table) == 1

    def test_implied_pattern_stored_exact_duplicate_not(self):
        # The log rejects exact duplicates only; a pattern implied by a
        # stored one is appended (see the module docs for why that never
        # happens in a sequential run).
        table = PruningTable()
        table.add(PruningPattern([(0, 1)]))
        assert table.add(PruningPattern([(0, 1), (1, 0)]))
        assert not table.add(PruningPattern([(1, 0), (0, 1)]))
        assert len(table) == table.version == 2

    def test_versioning_and_delta(self):
        table = PruningTable()
        version = table.version
        table.add(PruningPattern([(0, 0)]))
        table.add(PruningPattern([(1, 1)]))
        delta = table.patterns_since(version)
        assert len(delta) == 2
        assert table.patterns_since(table.version) == []


def random_pattern(rng, positions, actions, max_width):
    """A pattern over ``positions * actions`` distinct constraints."""
    width = rng.randint(1, max_width)
    chosen = rng.sample(range(positions), width)
    return PruningPattern((p, rng.randrange(actions)) for p in chosen)


class DedupeLog:
    """Reference table: an append-only list that skips exact duplicates."""

    def __init__(self):
        self.patterns = []

    def add(self, pattern):
        if pattern in self.patterns:
            return False
        self.patterns.append(pattern)
        return True


constraint_set_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2)),
    max_size=4,
    unique_by=lambda c: c[0],
)
table_op_strategy = st.one_of(
    st.tuples(st.just("add"), constraint_set_strategy),
    st.tuples(st.just("readd"), st.integers(0, 1000)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(table_op_strategy, max_size=40))
def test_indexed_table_equals_scan(ops):
    """The table accepts, orders and versions patterns exactly like a
    dedupe-only list."""
    table = PruningTable()
    reference = DedupeLog()
    offered = []
    for op, arg in ops:
        if op == "add":
            pattern = PruningPattern(arg)
        elif offered:
            pattern = PruningPattern(offered[arg % len(offered)].constraints)
        else:
            continue
        offered.append(pattern)
        assert table.add(pattern) == reference.add(pattern)
        assert len(table) == table.version == len(reference.patterns)
    assert table.all_patterns() == reference.patterns
    for version in range(len(reference.patterns) + 1):
        assert table.patterns_since(version) == reference.patterns[version:]
        assert table.constraints_since(version) == tuple(
            p.constraints for p in reference.patterns[version:]
        )


def test_concurrent_adds_store_each_distinct_pattern_once():
    """Four threads adding at once (with overlapping offers): every
    distinct offered pattern is stored exactly once."""
    table = PruningTable()
    shared = [random_pattern(random.Random(i), 10, 4, 4) for i in range(200)]
    offered = []
    for seed in range(4):
        own = [
            random_pattern(random.Random(seed * 1000 + 500 + i), 10, 4, 4)
            for i in range(100)
        ]
        patterns = shared + own
        random.Random(seed).shuffle(patterns)
        offered.append(patterns)
    accepted = [0] * 4
    barrier = threading.Barrier(4)

    def worker(slot):
        barrier.wait()
        for pattern in offered[slot]:
            accepted[slot] += table.add(pattern)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    stored = table.all_patterns()
    assert sum(accepted) == len(stored)
    assert len(set(stored)) == len(stored)
    assert set(stored) == {pattern for patterns in offered for pattern in patterns}


class TestDfsMatcher:
    def test_push_fires_on_complete_pattern(self):
        matcher = DfsMatcher([PruningPattern([(0, 1), (1, 0)])])
        assert not matcher.push(0, 1)
        assert matcher.push(1, 0)
        matcher.pop(1, 0)
        assert not matcher.any_matched
        assert not matcher.push(1, 1)

    def test_pop_restores(self):
        matcher = DfsMatcher([PruningPattern([(0, 1)])])
        assert matcher.push(0, 1)
        matcher.pop(0, 1)
        assert not matcher.any_matched
        assert not matcher.push(0, 0)

    def test_integrate_with_satisfied_prefix(self):
        matcher = DfsMatcher()
        matcher.push(0, 1)
        matcher.push(1, 0)
        matcher.integrate([PruningPattern([(0, 1)])], current_path=(1, 0))
        assert matcher.any_matched
        # Backtrack above the constraint: no longer matched.
        matcher.pop(1, 0)
        matcher.pop(0, 1)
        assert not matcher.any_matched
        # Re-push a matching digit: matched again.
        assert matcher.push(0, 1)

    def test_integrate_at_leaf_satisfied_by_shallower_prefix(self):
        matcher = DfsMatcher()
        for position, action in enumerate((0, 1, 0)):
            assert not matcher.push(position, action)
        matcher.integrate([PruningPattern([(0, 0)])], current_path=(0, 1, 0))
        assert matcher.any_matched
        # Every saved prefix that contains position 0 keeps it in force.
        matcher.pop(2, 0)
        assert matcher.any_matched
        assert matcher.push(2, 1)
        matcher.pop(2, 1)
        matcher.pop(1, 1)
        assert matcher.any_matched
        assert matcher.push(1, 0)
        matcher.pop(1, 0)
        matcher.pop(0, 0)
        assert not matcher.any_matched
        assert not matcher.push(0, 1)
        assert matcher.push(1, 0) is False
        matcher.pop(1, 0)
        matcher.pop(0, 1)
        assert matcher.push(0, 0)

    def test_integrate_contradicted_pattern_stays_quiet(self):
        matcher = DfsMatcher()
        matcher.push(0, 1)
        matcher.push(1, 0)
        matcher.integrate([PruningPattern([(0, 0), (2, 1)])], current_path=(1, 0))
        assert not matcher.any_matched
        assert not matcher.push(2, 1)
        matcher.pop(2, 1)
        matcher.pop(1, 0)
        matcher.pop(0, 1)
        assert not matcher.push(0, 0)
        assert not matcher.push(1, 1)
        assert matcher.push(2, 1)

    def test_empty_pattern_always_matches(self):
        matcher = DfsMatcher([PruningPattern(())])
        assert matcher.any_matched
        assert matcher.push(0, 0)
        matcher.pop(0, 0)
        late = DfsMatcher()
        late.push(0, 1)
        late.integrate([PruningPattern(())], current_path=(1,))
        assert late.any_matched
        late.pop(0, 1)
        assert late.any_matched


class TestGeneraliseFailure:
    """Conflict generalisation: constrain only the holes the failure
    executes, read off the kernel's hole paths (and, where there is a
    counterexample to replay, equal to the replay oracle's conflict)."""

    @staticmethod
    def _fork_setup(coverage=False):
        """s0 --H0--> {left: 10, right: 20}; 10 --HA--> {err, ok};
        20 --HB--> {ok, err}.  Three holes, but any one failure trace
        executes exactly two of them.  With ``coverage`` the system has
        no invariant, "err" is an accepted end state, and reaching "ok"
        is a coverage goal instead."""
        from repro.core.action import Action
        from repro.core.discovery import HoleRegistry
        from repro.core.hole import Hole
        from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
        from repro.mc.rule import Rule
        from repro.mc.system import TransitionSystem

        h0 = Hole("h0", [Action("L", payload=10), Action("R", payload=20)])
        ha = Hole("ha", [Action("x", payload=-1), Action("y", payload=99)])
        hb = Hole("hb", [Action("x", payload=99), Action("y", payload=-1)])

        def chooser(hole):
            def apply(state, ctx, _hole=hole):
                return [ctx.resolve(_hole).payload]

            return apply

        if coverage:
            properties = dict(
                coverage=[CoverageProperty("reach-ok", lambda s: s == 99)],
                deadlock=DeadlockPolicy.fail(quiescent=lambda s: s in (-1, 99)),
            )
        else:
            properties = dict(
                invariants=[Invariant("no-err", lambda s: s != -1)],
                deadlock=DeadlockPolicy.fail(quiescent=lambda s: s in (98, 99)),
            )
        system = TransitionSystem(
            name="fork",
            initial_states=[0],
            rules=[
                Rule("r0", guard=lambda s: s == 0, apply=chooser(h0)),
                Rule("ra", guard=lambda s: s == 10, apply=chooser(ha)),
                Rule("rb", guard=lambda s: s == 20, apply=chooser(hb)),
            ],
            **properties,
        )
        registry = HoleRegistry()
        for hole in (h0, ha, hb):
            registry.position_of(hole, register=True)
        return system, registry

    @staticmethod
    def _run(system, registry, digits):
        from repro.core.candidate import CandidateVector
        from repro.core.discovery import CandidateResolver
        from repro.mc.kernel import ExplorationKernel

        resolver = CandidateResolver(registry, CandidateVector.from_digits(digits))
        result = ExplorationKernel(system, resolver=resolver).run()
        assert result.is_failure
        return result

    def _check(self, digits):
        from repro.core.pruning import generalise_failure
        from tests.replay_oracle import replay_conflict

        system, registry = self._fork_setup()
        result = self._run(system, registry, digits)
        pattern = generalise_failure(registry, digits, result)
        assert pattern == replay_conflict(system, registry, digits, result)
        return pattern

    def test_untouched_hole_dropped_from_pattern(self):
        # <L, x, ?> fails through h0 and ha only; hb's assignment (either
        # value) never executes, so the pattern must not constrain it.
        assert self._check((0, 0, 0)).constraints == ((0, 0), (1, 0))
        assert self._check((0, 0, 1)).constraints == ((0, 0), (1, 0))

    def test_other_branch_symmetry(self):
        # <R, ?, y> fails through h0 and hb only.
        assert self._check((1, 0, 1)).constraints == ((0, 1), (2, 1))
        assert self._check((1, 1, 1)).constraints == ((0, 1), (2, 1))

    def test_max_position_bounds_forcing_prefix(self):
        # The generalised pattern's last constrained position marks the end
        # of the shortest failure-forcing assignment prefix — the subtree
        # enumerator cuts everything below it.  <L, x, *> forces the
        # counterexample, so the pattern fires at position 1, not 2.
        pattern = self._check((0, 0, 1))
        assert pattern.max_position == 1

    def test_coverage_failure_is_narrowed_to_executed_holes(self):
        # <L, x, y> never reaches "ok": a coverage failure, with no trace
        # to replay.  The run was complete and wildcard-free, so every
        # candidate agreeing on the holes it executed (h0, ha) explores
        # the same states; hb's position is left open.
        from repro.core.pruning import PruningPattern, generalise_failure
        from repro.core.candidate import CandidateVector
        from repro.mc.result import FailureKind
        from tests.replay_oracle import replay_conflict

        system, registry = self._fork_setup(coverage=True)
        digits = (0, 0, 1)
        result = self._run(system, registry, digits)
        assert result.failure_kind is FailureKind.COVERAGE
        assert replay_conflict(system, registry, digits, result) is None
        pattern = generalise_failure(registry, digits, result)
        assert pattern.constraints == ((0, 0), (1, 0))
        full = PruningPattern.from_candidate(CandidateVector.from_digits(digits))
        assert set(pattern.constraints) < set(full.constraints)

    def test_deadlock_includes_final_state_holes(self):
        from repro.core.action import Action
        from repro.core.discovery import HoleRegistry
        from repro.core.hole import Hole
        from repro.core.pruning import generalise_failure
        from repro.mc.properties import DeadlockPolicy
        from repro.mc.rule import Rule
        from repro.mc.system import TransitionSystem
        from tests.replay_oracle import replay_conflict

        h0 = Hole("h0", [Action("go", payload=30)])
        hd = Hole("hd", [Action("stall", payload=None), Action("run", payload=77)])

        def apply0(state, ctx):
            return [ctx.resolve(h0).payload]

        def applyd(state, ctx):
            target = ctx.resolve(hd).payload
            return [] if target is None else [target]

        system = TransitionSystem(
            name="stall",
            initial_states=[0],
            rules=[
                Rule("r0", guard=lambda s: s == 0, apply=apply0),
                Rule("rd", guard=lambda s: s == 30, apply=applyd),
            ],
            deadlock=DeadlockPolicy.fail(quiescent=lambda s: s == 77),
        )
        registry = HoleRegistry()
        registry.position_of(h0, register=True)
        registry.position_of(hd, register=True)
        digits = (0, 0)  # go, then stall: deadlock at 30
        result = self._run(system, registry, digits)
        # hd never fires a transition, but its choice is what blocks the
        # escape from state 30 — the conflict must constrain it.
        pattern = generalise_failure(registry, digits, result)
        assert pattern.constraints == ((0, 0), (1, 0))
        assert pattern == replay_conflict(system, registry, digits, result)

    def test_hole_free_trace_yields_empty_pattern(self):
        # Defensive path: a trace executing no holes means the skeleton
        # fails under every assignment (in practice the initial run
        # catches this first and reports an inherent failure).
        from repro.core.discovery import HoleRegistry
        from repro.core.pruning import generalise_failure
        from repro.mc.kernel import ExplorationKernel
        from repro.mc.properties import Invariant
        from repro.mc.rule import Rule
        from repro.mc.system import TransitionSystem

        system = TransitionSystem(
            name="doomed",
            initial_states=[0],
            rules=[Rule("bad", guard=lambda s: s == 0, apply=lambda s, ctx: [-1])],
            invariants=[Invariant("no-err", lambda s: s != -1)],
        )
        result = ExplorationKernel(system).run()
        assert result.is_failure
        pattern = generalise_failure(HoleRegistry(), (), result)
        assert pattern.is_empty

    def test_missing_trace_still_generalises(self):
        # A failure replayed from the verdict store carries no trace; the
        # conflict comes from the hole masks, so it is the traced one.
        from dataclasses import replace

        from repro.core.pruning import generalise_failure
        from tests.replay_oracle import replay_conflict

        system, registry = self._fork_setup()
        digits = (0, 0, 1)
        result = replace(self._run(system, registry, digits), trace=None)
        assert replay_conflict(system, registry, digits, result) is None
        pattern = generalise_failure(registry, digits, result)
        assert pattern.constraints == ((0, 0), (1, 0))


# -- differential property test: subtree skipping == flat matching ----------

pattern_strategy = st.lists(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        min_size=1,
        max_size=3,
        unique_by=lambda c: c[0],
    ),
    max_size=6,
)

radices_strategy = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)


late_strategy = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.sampled_from(["fail", "success"]),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2)),
            min_size=1,
            max_size=3,
            unique_by=lambda c: c[0],
        ),
    ),
    max_size=6,
)


def fit_patterns(raw_patterns, radices):
    """Patterns over the positions and domains of ``radices``."""
    patterns = []
    for raw in raw_patterns:
        constraints = [
            (position, action % radices[position])
            for position, action in raw
            if position < len(radices)
        ]
        if constraints:
            patterns.append(PruningPattern(constraints))
    return patterns


def matching_tags(digits, active):
    """Tags, in matcher order, with a pattern matching ``digits``."""
    return [
        tag for tag in ("fail", "success")
        if any(pattern_matches(p.constraints, digits) for p in active[tag])
    ]


@settings(max_examples=200, deadline=None)
@given(radices_strategy, pattern_strategy, pattern_strategy, late_strategy)
def test_subtree_walker_equals_flat_matching(radices, raw_fail, raw_success,
                                             raw_late):
    """The DFS subtree skipper, with a failure and a success matcher and
    patterns integrated at yielded leaves, dispatches exactly the
    candidates a flat match against the patterns in force at each leaf
    lets through."""
    initial = {
        "fail": fit_patterns(raw_fail, radices),
        "success": fit_patterns(raw_success, radices),
    }
    late = {}
    for when, tag, raw in raw_late:
        for pattern in fit_patterns([raw], radices):
            late.setdefault(when, []).append((tag, pattern))

    matchers = {tag: DfsMatcher(patterns) for tag, patterns in initial.items()}
    enumerator = SubtreeEnumerator(
        radices, [("fail", matchers["fail"]), ("success", matchers["success"])]
    )
    dispatched, rechecked = [], []
    for when, digits in enumerate(enumerator):
        for tag, pattern in late.get(when, ()):
            matchers[tag].integrate([pattern], enumerator.current_path)
        tag = enumerator.matched_tag()
        if tag is None:
            dispatched.append(digits)
        else:
            enumerator.note_leaf_skipped(tag)
            rechecked.append((digits, tag))

    active = {tag: list(patterns) for tag, patterns in initial.items()}
    expected_dispatched, expected_rechecked = [], []
    only = {"fail": 0, "success": 0}
    when = 0
    for index in range(product_size(radices)):
        digits = mixed_radix_decode(index, radices)
        tags = matching_tags(digits, active)
        if tags:
            if len(tags) == 1:
                only[tags[0]] += 1
            continue
        for tag, pattern in late.get(when, ()):
            active[tag].append(pattern)
        when += 1
        tags = matching_tags(digits, active)
        if tags:
            expected_rechecked.append((digits, tags[0]))
        else:
            expected_dispatched.append(digits)

    assert dispatched == expected_dispatched
    assert rechecked == expected_rechecked
    counters = enumerator.counters
    assert counters.yielded == len(dispatched)
    assert counters.total_skipped() == product_size(radices) - len(dispatched)
    # A leaf only one table matches is attributed to that table; a leaf
    # both match goes to whichever fired first on the walk.
    for tag in ("fail", "success"):
        at_leaf = sum(1 for _digits, seen in rechecked if seen == tag)
        assert counters.skipped[tag] >= only[tag] + at_leaf
    for tag, matcher in matchers.items():
        assert matcher.pattern_count == len(active[tag])


def test_leaf_integrate_satisfied_by_shallower_prefix_skips_siblings():
    """A pattern integrated at a leaf that an ancestor prefix already
    satisfies prunes that leaf and every later leaf under the ancestor."""
    matcher = DfsMatcher()
    enumerator = SubtreeEnumerator([2, 2, 2], [("fail", matcher)])
    dispatched = []
    for digits in enumerator:
        if digits == (0, 0, 0):
            matcher.integrate([PruningPattern([(0, 0)])], enumerator.current_path)
        tag = enumerator.matched_tag()
        if tag is not None:
            enumerator.note_leaf_skipped(tag)
            continue
        dispatched.append(digits)
    assert dispatched == [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    assert enumerator.counters.skipped["fail"] == 4
    assert enumerator.counters.yielded == 4
