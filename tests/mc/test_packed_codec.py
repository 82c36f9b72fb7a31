"""Round-trip and group-action tests for the packed-state codecs.

Every catalog protocol carries a :class:`~repro.mc.packed.PackedSpec`;
these tests pin the two properties the packed kernel's exactness rests
on, over randomly simulated (raw, non-canonical) reachable states:

* ``decode(encode(s)) == s`` — the fixed-layout vector loses nothing;
* the codec's table-driven remap is the *same group action* as the
  object layer's permutation — directly (``decode(remap(encode(s), m))
  == permute(s, m)``) where the protocol exposes its permute function,
  and via orbit-partition agreement with ``system.canonicalize``
  everywhere.
"""

from __future__ import annotations

import random

import pytest

from repro.mc.simulate import simulate
from repro.protocols import german, mutex, vi
from repro.protocols.catalog import PROTOCOL_CATALOG, build_protocol
from repro.protocols.dirfamily import permute_state

CASES = [
    (name, replicas)
    for name in sorted(PROTOCOL_CATALOG)
    for replicas in (2, 3, 4)
]


def _raw_states(system, seed: int, walks: int = 6, steps: int = 40):
    """Distinct raw states from seeded random walks (non-canonical)."""
    states, seen = [], set()
    for index in range(walks):
        result = simulate(system, max_steps=steps, seed=seed + index)
        for step in result.trace.steps:
            if step.state not in seen:
                seen.add(step.state)
                states.append(step.state)
    return states


def _dsl_permute(rename_glob):
    """The builder's object permute, reconstructed for a DSL protocol."""

    def permute(state, mapping):
        procs, glob, net = state
        return (procs.renamed(mapping), rename_glob(glob, mapping),
                net.renamed(mapping))

    return permute


#: protocol name -> the object layer's permute function (None where the
#: protocol keeps it private; those still get the partition test)
OBJECT_PERMUTES = {
    "msi": permute_state,
    "mesi": permute_state,
    "moesi": permute_state,
    "mutex": _dsl_permute(mutex._rename_glob),
    "vi": _dsl_permute(vi._rename_glob),
    "german": _dsl_permute(german._rename_glob),
}


@pytest.mark.parametrize("name,replicas", CASES)
def test_encode_decode_round_trip(name, replicas):
    system = build_protocol(name, replicas)
    codec = system.packed_spec.codec
    states = _raw_states(system, seed=replicas * 1000 + len(name))
    assert states
    for state in states:
        codes = codec.encode(state)
        assert len(codes) == codec.width
        assert codec.decode(codes) == state
        assert codec.encode(codec.decode(codes)) == codes


@pytest.mark.parametrize("name,replicas", CASES)
def test_remap_matches_object_permute(name, replicas):
    system = build_protocol(name, replicas)
    codec = system.packed_spec.codec
    permute = OBJECT_PERMUTES[name]
    rng = random.Random(replicas * 100 + len(name))
    states = _raw_states(system, seed=replicas)
    for state in rng.sample(states, min(len(states), 25)):
        codes = codec.encode(state)
        for mapping in codec.mappings:
            assert codec.decode(codec.remap(codes, mapping)) == permute(
                state, mapping
            ), (name, state, mapping)


@pytest.mark.parametrize("name,replicas", CASES)
def test_canonical_codes_invariant_under_remap(name, replicas):
    system = build_protocol(name, replicas)
    codec = system.packed_spec.codec
    for state in _raw_states(system, seed=7 * replicas)[:40]:
        codes = codec.encode(state)
        canon = codec.canonical_codes(codes)
        for mapping in codec.mappings:
            assert codec.canonical_codes(codec.remap(codes, mapping)) == canon


@pytest.mark.parametrize("name,replicas", CASES)
def test_orbit_partition_matches_object_canonicalizer(name, replicas):
    """Packed and object canonicalisation induce the same partition.

    The representatives may differ (the object layer may use the
    sorted-replica fast path; the codec takes the minimal vector), but
    two states must share a packed canonical form exactly when they
    share an object one — that is what makes packed verdicts and state
    counts identical.
    """
    system = build_protocol(name, replicas)
    if system.canonicalize is None:
        pytest.skip("symmetry disabled for this configuration")
    codec = system.packed_spec.codec
    states = _raw_states(system, seed=replicas + 13, walks=8)
    packed_groups, object_groups = {}, {}
    for index, state in enumerate(states):
        packed_groups.setdefault(
            codec.canonical_codes(codec.encode(state)), set()
        ).add(index)
        object_groups.setdefault(system.canonicalize(state), set()).add(index)
    assert sorted(map(sorted, packed_groups.values())) == sorted(
        map(sorted, object_groups.values())
    )


def test_slab_cap_names_the_cap_and_the_exploration_bound(monkeypatch):
    """The slab cap is a safety check: past it a run fails loudly, naming
    the cap and the ``--max-states`` bound."""
    from repro.errors import ModelError
    from repro.mc import packed
    from repro.mc.kernel import ExplorationKernel

    monkeypatch.setattr(packed, "MAX_SLAB_ENTRIES", 10)
    with pytest.raises(ModelError) as excinfo:
        ExplorationKernel(build_protocol("mutex", 3)).run()
    message = str(excinfo.value)
    assert "MAX_SLAB_ENTRIES=10" in message
    assert "--max-states" in message
    assert "--no-packed" not in message
