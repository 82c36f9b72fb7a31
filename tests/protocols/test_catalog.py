"""Tests for the protocol/skeleton catalog (names, metadata, error paths)."""

import pytest

from repro.core.hole import Hole
from repro.mc.context import FixedResolver
from repro.mc.kernel import ExplorationKernel
from repro.mc.system import TransitionSystem
from repro.protocols.catalog import (
    PROTOCOL_CATALOG,
    SKELETON_BUILDERS,
    SKELETON_CATALOG,
    build_protocol,
    build_skeleton,
    build_skeleton_with_holes,
    protocol_names,
    skeleton_names,
)

#: entries cheap enough to build in a metadata sweep
FAST_SKELETONS = [
    name for name in SKELETON_CATALOG if name not in ("msi-large",)
]


class TestSkeletonCatalog:
    def test_unknown_name_raises_keyerror_listing_names(self):
        with pytest.raises(KeyError) as excinfo:
            build_skeleton("nope")
        message = str(excinfo.value)
        assert "unknown skeleton 'nope'" in message
        for name in skeleton_names():
            assert name in message

    def test_unknown_name_with_holes_raises_too(self):
        with pytest.raises(KeyError, match="unknown skeleton"):
            build_skeleton_with_holes("nope")

    @pytest.mark.parametrize("name", sorted(FAST_SKELETONS))
    def test_metadata_matches_build(self, name):
        """The static hole count and replica minimum must match what the
        builder actually produces (the gallery and `list` print these)."""
        entry = SKELETON_CATALOG[name]
        system, holes = build_skeleton_with_holes(name, entry.replicas[0])
        assert isinstance(system, TransitionSystem)
        assert len(holes) == entry.holes
        assert all(isinstance(hole, Hole) for hole in holes)
        low, high = entry.replicas
        assert 1 <= low <= high
        assert entry.summary

    def test_builders_dict_matches_catalog(self):
        assert set(SKELETON_BUILDERS) == set(SKELETON_CATALOG)

    def test_holes_are_the_embedded_objects(self):
        """build_skeleton_with_holes returns the objects the system's rule
        bodies resolve — a FixedResolver over them must drive a run."""
        system, holes = build_skeleton_with_holes("figure2")
        from repro.protocols.toy import build_figure2_solution

        solution = build_figure2_solution()
        resolver = FixedResolver(
            {hole: hole.domain[hole.index_of(solution[hole.name])] for hole in holes}
        )
        result = ExplorationKernel(system, resolver=resolver).run()
        assert result.is_success


class TestProtocolCatalog:
    def test_unknown_name_raises_keyerror_listing_names(self):
        with pytest.raises(KeyError) as excinfo:
            build_protocol("nope")
        message = str(excinfo.value)
        assert "unknown protocol 'nope'" in message
        for name in protocol_names():
            assert name in message

    @pytest.mark.parametrize("name", sorted(PROTOCOL_CATALOG))
    def test_every_protocol_verifies_at_minimum_replicas(self, name):
        entry = PROTOCOL_CATALOG[name]
        system = build_protocol(name, entry.replicas[0])
        assert ExplorationKernel(system).run().is_success

    def test_kwargs_are_accepted_everywhere(self):
        # Builders must tolerate the shared keyword surface.
        for name in PROTOCOL_CATALOG:
            system = build_protocol(name, 2, evictions=False, symmetry=False)
            assert isinstance(system, TransitionSystem)
