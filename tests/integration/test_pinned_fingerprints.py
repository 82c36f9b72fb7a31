"""Pinned visited-set fingerprints.

A DSL state holds its in-flight messages in an ``UnorderedNetwork``, whose
bag is ordered by the messages' reprs; ``state_key`` serialises the network
through its repr, and that key picks each symmetry orbit's representative.
So a change to how messages print, hash or order inside a multiset shows up
here: the fingerprint of the canonical visited set moves.  The msi family
canonicalises through the ``Permuter``'s ``replica_keys`` fast path, whose
representatives fix its values.  The values are fixed constants, on six
catalog protocols and one generated spec per packed-codec flavour.
"""

import pytest

from repro.fuzz import generate_spec
from repro.fuzz.spec import build_reference_system
from repro.mc.kernel import ExplorationKernel
from repro.protocols.catalog import PROTOCOL_BUILDERS

#: (label, builder, visited states, fingerprint_visited)
CATALOG_PINS = [
    ("german@3", lambda: PROTOCOL_BUILDERS["german"](3), 900, 10964020329130311117),
    ("vi@3", lambda: PROTOCOL_BUILDERS["vi"](3), 19, 8139467742822389294),
    ("mutex@3", lambda: PROTOCOL_BUILDERS["mutex"](3), 16, 9587025456467383836),
    ("msi@3", lambda: PROTOCOL_BUILDERS["msi"](3), 311, 15288679981033395436),
    ("mesi@3", lambda: PROTOCOL_BUILDERS["mesi"](3), 335, 1905194624902150006),
    ("moesi@3", lambda: PROTOCOL_BUILDERS["moesi"](3), 613, 12504016229954630799),
]

#: (codec flavour, generator seed, visited states, fingerprint_visited);
#: each seed is the first three-process spec of its flavour
FUZZ_PINS = [
    ("schema", 0, 48, 6013927151442113045),
    ("opaque", 9, 16, 748709355536304473),
    ("none", 13, 48, 9791923719726684538),
]


def _fingerprint(builder):
    explorer = ExplorationKernel(builder())
    result = explorer.run()
    assert result.is_success
    return result.stats.states_visited, explorer.fingerprint_visited()


@pytest.mark.parametrize(
    "label,builder,states,fingerprint",
    CATALOG_PINS,
    ids=[pin[0] for pin in CATALOG_PINS],
)
def test_catalog_fingerprints_are_pinned(label, builder, states, fingerprint):
    assert _fingerprint(builder) == (states, fingerprint)


@pytest.mark.parametrize(
    "codec,seed,states,fingerprint", FUZZ_PINS, ids=[pin[0] for pin in FUZZ_PINS]
)
def test_fuzz_spec_fingerprints_are_pinned(codec, seed, states, fingerprint):
    spec = generate_spec(seed)
    assert (spec.codec, spec.n_procs) == (codec, 3)
    assert _fingerprint(lambda: build_reference_system(spec)) == (
        states,
        fingerprint,
    )
