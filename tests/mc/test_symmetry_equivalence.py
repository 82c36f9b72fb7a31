"""Symmetry reduction must never change a verdict — only the state count.

Verdict-equivalence suite: canonicalised and uncanonicalised runs of the
same system must agree on the verdict and failure kind (mutex, msi-tiny,
mesi), the symmetry-reduced run visiting no more states.  Plus unit tests
for the derived whole-state codec's memos and the sorted-replica fast
path.
"""

import itertools

import pytest

from repro.mc.context import FixedResolver
from repro.mc.kernel import ExplorationKernel
from repro.mc.multiset import Multiset
from repro.mc.result import Verdict
from repro.mc.symmetry import Permuter, ScalarSet
from repro.protocols.dirfamily import permute_state, replica_keys
from repro.protocols.mesi import build_mesi_system
from repro.protocols.msi import defs
from repro.protocols.msi.skeleton import SkeletonSpec, msi_skeleton
from repro.protocols.msi.system import build_msi_system
from repro.protocols.mutex import build_mutex_system

from tests.bfs_oracle import visited_representatives


def tiny_skeleton(symmetry: bool):
    return msi_skeleton(
        SkeletonSpec(
            name="msi-tiny",
            cache_rules=((defs.C_IM_D, defs.DATA),),
            n_caches=2,
            symmetry=symmetry,
        )
    )


def tiny_resolver(skeleton):
    """Replay the reference completion of the msi-tiny skeleton."""
    assignment = skeleton.reference_assignment()
    return FixedResolver(
        {
            hole: hole.domain[hole.index_of(assignment[hole.name])]
            for hole in skeleton.holes
        }
    )


class TestVerdictEquivalence:
    """Same verdict/failure-kind with and without canonicalisation."""

    @pytest.mark.parametrize(
        "builder",
        [
            lambda symmetry: build_mutex_system(2, symmetry=symmetry),
            lambda symmetry: build_mutex_system(3, symmetry=symmetry),
            lambda symmetry: build_msi_system(2, symmetry=symmetry),
            lambda symmetry: build_mesi_system(2, symmetry=symmetry),
        ],
        ids=["mutex-2", "mutex-3", "msi-2", "mesi-2"],
    )
    def test_complete_protocols(self, builder):
        reduced = ExplorationKernel(builder(True)).run()
        full = ExplorationKernel(builder(False)).run()
        assert reduced.verdict == full.verdict
        assert reduced.failure_kind == full.failure_kind
        assert reduced.unmet_coverage == full.unmet_coverage
        assert reduced.stats.states_visited <= full.stats.states_visited

    def test_msi_tiny_skeleton_reference_completion(self):
        reduced_skel = tiny_skeleton(symmetry=True)
        full_skel = tiny_skeleton(symmetry=False)
        reduced = ExplorationKernel(
            reduced_skel.system, resolver=tiny_resolver(reduced_skel)
        ).run()
        full = ExplorationKernel(
            full_skel.system, resolver=tiny_resolver(full_skel)
        ).run()
        assert reduced.verdict is Verdict.SUCCESS
        assert full.verdict == reduced.verdict
        assert reduced.stats.states_visited <= full.stats.states_visited

    def test_msi_tiny_skeleton_failing_completion(self):
        """A known-bad completion must fail identically either way."""

        def bad_resolver(skeleton):
            # Resolve every hole to its first action: "respond with
            # nothing, go to I" — drops the store, failing coverage or
            # livelocking into an invariant/deadlock, never SUCCESS.
            return FixedResolver(
                {hole: hole.domain[0] for hole in skeleton.holes}
            )

        reduced_skel = tiny_skeleton(symmetry=True)
        full_skel = tiny_skeleton(symmetry=False)
        reduced = ExplorationKernel(
            reduced_skel.system, resolver=bad_resolver(reduced_skel)
        ).run()
        full = ExplorationKernel(full_skel.system, resolver=bad_resolver(full_skel)).run()
        assert reduced.verdict is Verdict.FAILURE
        assert full.verdict == reduced.verdict
        assert reduced.failure_kind == full.failure_kind
        assert reduced.unmet_coverage == full.unmet_coverage


# -- derived codec and the sorted-replica fast path ----------------------------


def permute_caches(state, mapping):
    caches, owner, net = state
    new_caches = list(caches)
    for old_index, cache in enumerate(caches):
        new_caches[mapping[old_index]] = cache
    new_owner = None if owner is None else mapping[owner]
    return tuple(new_caches), new_owner, net.map(
        lambda msg: (msg[0], mapping[msg[1]])
    )


def make_state(caches, owner, messages):
    return tuple(caches), owner, Multiset(messages)


ALL_TEST_STATES = [
    make_state(caches, owner, messages)
    for caches in itertools.product("IMS", repeat=3)
    for owner in (None, 0, 2)
    for messages in ([], [("Data", 1)], [("Inv", 0), ("Data", 2)])
]


class TestDerivedCodecMemo:
    """A system without a codec explores on the whole-state codec derived
    from its ``canonicalize``; the runtime memoises that canonical step
    (and the fingerprint step) per interned state."""

    def counting_system(self, calls):
        from repro.protocols.mutex import build_mutex_system

        system = build_mutex_system(3)
        canonicalize = system.canonicalize

        def counted(state):
            calls.append(state)
            return canonicalize(state)

        system.canonicalize = counted
        system.packed_spec = None
        return system

    def test_representatives_match_canonicalize(self):
        from repro.mc.packed import WholeStateCodec

        permuter = Permuter.for_single(ScalarSet("cache", 3), permute_caches)
        codec = WholeStateCodec(permuter.canonicalize)
        for state in ALL_TEST_STATES:
            canon = codec.decode(codec.canonical_codes(codec.encode(state)))
            assert canon == permuter.canonicalize(state)

    def test_canonicalize_runs_once_per_interned_state(self):
        calls = []
        system = self.counting_system(calls)
        first = ExplorationKernel(system).run()
        assert calls
        assert len(calls) == len(set(calls))
        cold_calls = len(calls)
        # A second run reuses the system's runtime: every canonical id is
        # memoised, so the object canonicaliser is not called again.
        second = ExplorationKernel(system).run()
        assert len(calls) == cold_calls
        assert second.stats == first.stats

    def test_derived_codec_honours_canonicalize(self):
        """Without its codec, msi@3 explores on the codec derived from its
        ``canonicalize`` and lands on the codec's pinned numbers."""
        system = build_msi_system(3)
        system.packed_spec = None
        explorer = ExplorationKernel(system)
        stats = explorer.run().stats
        assert (stats.states_visited, stats.transitions_fired) == (311, 884)
        assert explorer.fingerprint_visited() == 15288679981033395436

    def test_fingerprint_memo_is_bit_identical(self):
        from repro.mc.hashing import fingerprint_state_set

        calls = []
        system = self.counting_system(calls)
        explorer = ExplorationKernel(system)
        explorer.run()
        before = len(calls)
        value = explorer.fingerprint_visited()
        assert len(calls) > before
        after = len(calls)
        assert explorer.fingerprint_visited() == value
        assert len(calls) == after
        objects = [
            system.canonicalize(state)
            for state in visited_representatives(explorer)
        ]
        assert fingerprint_state_set(objects) == value


class TestSortedReplicaFastPath:
    def keys(self, state):
        caches, owner, net = state
        messages = tuple([] for _ in caches)
        for (mtype, cache), count in net.items():
            messages[cache].append((mtype, count))
        return tuple(
            (caches[i], i == owner, tuple(sorted(messages[i])))
            for i in range(len(caches))
        )

    def make_permuters(self):
        fast = Permuter.for_single(
            ScalarSet("cache", 3), permute_caches, replica_keys=self.keys
        )
        slow = Permuter.for_single(ScalarSet("cache", 3), permute_caches)
        return fast, slow

    def test_orbit_consistency(self):
        """Every orbit member must canonicalise to one representative,
        and fast/slow must agree on orbit *identity* (same partition)."""
        fast, slow = self.make_permuters()
        for state in ALL_TEST_STATES:
            canon = fast.canonicalize(state)
            slow_canon = slow.canonicalize(state)
            assert canon in set(slow.orbit(state))
            for mapping in itertools.permutations(range(3)):
                permuted = permute_caches(state, mapping)
                assert fast.canonicalize(permuted) == canon
                assert slow.canonicalize(permuted) == slow_canon

    def test_fast_path_actually_taken(self):
        fast, _slow = self.make_permuters()
        fast.canonicalize(make_state("MIS", 0, []))  # distinct keys
        assert fast.fast_path_hits == 1
        assert fast.full_orbit_scans == 0
        fast.canonicalize(make_state("MII", None, []))  # tie between 1 and 2
        assert fast.full_orbit_scans == 1

    def test_identity_fast_path_returns_same_object(self):
        fast, _slow = self.make_permuters()
        state = make_state("IMS", None, [])  # already sorted by key?
        canon = fast.canonicalize(state)
        # Either identity (same object) or a permutation — both must be
        # stable under re-canonicalisation.
        assert fast.canonicalize(canon) == canon

    def test_msi_protocol_states_agree_between_paths(self):
        """The bundled MSI replica_keys must partition orbits exactly like
        the full orbit search on real protocol states."""
        fast = Permuter.for_single(
            ScalarSet("cache", 3), permute_state,
            replica_keys=replica_keys,
        )
        slow = Permuter.for_single(ScalarSet("cache", 3), permute_state)
        system = build_msi_system(3, symmetry=False)
        seen = []
        frontier = system.initial_states()
        from repro.mc.context import ExecutionContext

        ctx = ExecutionContext()
        while frontier and len(seen) < 60:
            state = frontier.pop()
            seen.append(state)
            for rule in system.rules:
                if rule.guard(state):
                    frontier.extend(rule.fire(state, ctx))
        for state in seen:
            fast_canon = fast.canonicalize(state)
            for mapping in itertools.permutations(range(3)):
                permuted = permute_state(state, mapping)
                assert fast.canonicalize(permuted) == fast_canon
            # Fast and slow agree on whether two states share an orbit.
            assert (fast_canon == fast.canonicalize(seen[0])) == (
                slow.canonicalize(state) == slow.canonicalize(seen[0])
            )
