"""Differential and tie-handling tests for ``StateCodec.canonical_codes``.

``canonical_codes`` tries only the permutations that sort the leading
replica block and stops comparing a candidate at its first larger code.
Its answer must still be the minimum over the *whole* group, so every
test here compares it with a test-local brute-force reference: the
minimum of ``codec.remap(codes, m)`` over every ``m`` in
``codec.mappings``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import api
from repro.fuzz import build_reference_system, generate_spec
from repro.mc.kernel import ExplorationKernel
from repro.mc.packed import (
    AtomSlot,
    Block,
    IdSetSlot,
    IdSlot,
    Scalar,
    StateCodec,
    permutation_mappings,
)
from repro.obs import Telemetry
from repro.protocols.catalog import PROTOCOL_CATALOG, build_protocol

#: states checked per system at n=4, where every state has 24 images
N4_SAMPLE = 30

#: generator seeds scanned for the ``schema`` and ``opaque`` codec flavours
FUZZ_SEEDS = range(12)


def _brute_minimum(codec, codes):
    return min(codec.remap(codes, mapping) for mapping in codec.mappings)


def _interned_codes(system, max_states=None):
    """The code vectors a verify run interned (raw and canonical)."""
    api.verify(system, max_states=max_states)
    runtime = system.packed_spec.runtime(system)
    return [runtime.codes_of(rid) for rid in range(len(runtime))]


def _assert_orbits_agree(codec, states):
    for codes in states:
        expected = _brute_minimum(codec, codes)
        for mapping in codec.mappings:
            image = codec.remap(codes, mapping)
            assert codec.canonical_codes(image) == expected, (codes, mapping)


@pytest.mark.parametrize(
    "name,replicas",
    [(name, n) for name in sorted(PROTOCOL_CATALOG) for n in (2, 3, 4)],
)
def test_catalog_minimum_matches_full_enumeration(name, replicas):
    system = build_protocol(name, replicas)
    codec = system.packed_spec.codec
    if replicas < 4:
        states = _interned_codes(system)
    else:
        states = _interned_codes(system, max_states=300)
        states = random.Random(len(name)).sample(
            states, min(len(states), N4_SAMPLE)
        )
    assert states
    _assert_orbits_agree(codec, states)


def _fuzz_systems(flavour):
    for seed in FUZZ_SEEDS:
        spec = generate_spec(seed)
        if spec.codec == flavour:
            yield build_reference_system(spec)


@pytest.mark.parametrize("flavour", ["schema", "opaque"])
def test_fuzz_codec_minimum_matches_full_enumeration(flavour):
    systems = list(_fuzz_systems(flavour))
    assert len(systems) >= 3, f"too few {flavour} specs among the seeds"
    for system in systems:
        _assert_orbits_agree(system.packed_spec.codec, _interned_codes(system))


# -- tie handling on hand-built codecs ----------------------------------------


def _codec(layout, n=4, mappings=None):
    if mappings is None:
        mappings = permutation_mappings(n)
    return StateCodec(layout, lambda state: state, lambda values: values, mappings)


def _block_codec(n=4):
    """A leading replica block, then an id, an id set and a renamed atom."""
    return _codec([
        Block(AtomSlot(), n),
        Scalar(IdSlot(n)),
        Scalar(IdSetSlot(n)),
        Scalar(AtomSlot(rename=lambda pair, m: (m[pair[0]], m[pair[1]]))),
    ], n)


def _images_for(codec, codes):
    before = codec.images
    result = codec.canonical_codes(codes)
    return result, codec.images - before


def test_initial_msi_state_tries_every_permutation():
    system = build_protocol("msi", 4)
    codec = system.packed_spec.codec
    codes = codec.encode(system.initial_states()[0])
    assert len(set(codes[:4])) == 1  # every cache starts in the same state
    result, images = _images_for(codec, codes)
    assert images == 24
    assert result == _brute_minimum(codec, codes)


def test_two_tie_groups_take_the_product_of_their_permutations():
    codec = _block_codec()
    codes = codec.encode(("y", "x", "y", "x", 2, frozenset({0, 3}), (3, 1)))
    result, images = _images_for(codec, codes)
    assert images == 2 * 2
    assert result == _brute_minimum(codec, codes)
    _assert_orbits_agree(codec, [codes])


def test_mixed_ties_and_singletons():
    codec = _block_codec()
    codes = codec.encode(("b", "a", "b", "b", 1, frozenset({1, 2}), (0, 2)))
    result, images = _images_for(codec, codes)
    assert images == math.factorial(3)
    assert result == _brute_minimum(codec, codes)
    _assert_orbits_agree(codec, [codes])


def test_sorted_distinct_block_is_its_own_representative():
    codec = _block_codec()
    codes = codec.encode(("a", "b", "c", "d", 3, frozenset({0}), (1, 2)))
    assert list(codes[:4]) == sorted(codes[:4])
    result, images = _images_for(codec, codes)
    assert images == 1
    assert result is codes  # the identity plan returns its input
    assert result == _brute_minimum(codec, codes)


def test_distinct_block_has_exactly_one_candidate():
    codec = _block_codec()
    codes = codec.encode(("a", "b", "c", "d", 0, frozenset(), (0, 0)))
    image = codec.remap(codes, (2, 0, 3, 1))
    result, images = _images_for(codec, image)
    assert images == 1
    assert result == _brute_minimum(codec, image) == codes


def test_leading_scalar_takes_every_plan():
    codec = _codec([
        Scalar(IdSlot(3)),
        Block(AtomSlot(), 3),
        Scalar(IdSetSlot(3)),
    ], n=3)
    codes = codec.encode((1, "c", "a", "b", frozenset({0, 2})))
    result, images = _images_for(codec, codes)
    assert images == len(codec.mappings) == 6
    assert result == _brute_minimum(codec, codes)
    _assert_orbits_agree(codec, [codes])


def test_renamed_leading_block_takes_every_plan():
    codec = _codec([Block(IdSlot(3), 3), Scalar(AtomSlot())], n=3)
    codes = codec.encode((2, None, 0, "z"))
    result, images = _images_for(codec, codes)
    assert images == 6
    assert result == _brute_minimum(codec, codes)
    _assert_orbits_agree(codec, [codes])


def test_partial_group_takes_every_plan():
    """A leading block under less than the full symmetric group: the
    sorting permutations may be missing, so every plan is tried."""
    codec = _codec([Block(AtomSlot(), 3), Scalar(IdSlot(3))], n=3,
                   mappings=[(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    codes = codec.encode(("c", "a", "b", 0))
    result, images = _images_for(codec, codes)
    assert images == 3
    assert result == _brute_minimum(codec, codes)


def test_identity_group_returns_the_input():
    codec = _codec([Block(AtomSlot(), 3), Scalar(AtomSlot())], n=3,
                   mappings=[(0, 1, 2)])
    codes = codec.encode(("c", "a", "b", "q"))
    assert codec.canonical_codes(codes) is codes


def test_remap_rejects_mappings_outside_the_group():
    codec = _codec([Block(AtomSlot(), 3)], n=3, mappings=[(0, 1, 2), (1, 2, 0)])
    codes = codec.encode(("a", "b", "c"))
    assert codec.remap(codes, (1, 2, 0)) == (codes[2], codes[0], codes[1])
    for mapping in [(1, 0, 2), (0, 0, 1), (0, 1)]:
        with pytest.raises(ValueError):
            codec.remap(codes, mapping)


# -- the pack_canon_images counter --------------------------------------------


def test_msi4_compares_far_fewer_images_than_the_group_size():
    """Full enumeration compares ``n! = 24`` images per cold scan; the
    sorted-block restriction must stay well under 23 on average."""
    system = build_protocol("msi", 4)
    telemetry = Telemetry()
    result = ExplorationKernel(system, telemetry=telemetry).run()
    assert result.is_success
    snapshot = telemetry.metrics.snapshot()

    def total(name):
        return sum(snapshot[name]["series"].values())

    scans, images = total("pack_canon_scans"), total("pack_canon_images")
    assert scans > 0
    assert scans <= images < scans * 23
