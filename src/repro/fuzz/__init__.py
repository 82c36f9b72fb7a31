"""Protocol fuzzing and differential testing.

A seeded generator (:mod:`repro.fuzz.generator`) emits well-formed holed
protocols as serialisable :class:`~repro.fuzz.spec.ProtocolSpec` values; a
differential oracle (:mod:`repro.fuzz.differential`) pins every
acceleration and backend against every other on each one; a shrinker
(:mod:`repro.fuzz.shrink`) reduces anything divergent to a minimal
reproducer; and the corpus layer (:mod:`repro.fuzz.corpus`) round-trips
both regressions and reproducers to disk.  :mod:`repro.fuzz.harness` ties
them into the campaign the ``fuzz`` CLI verb runs.
"""

from repro.fuzz.corpus import (
    CorpusEntry,
    load_corpus,
    load_entry,
    make_divergence_entry,
    make_regression_entry,
    replay_entry,
    save_entry,
)
from repro.fuzz.differential import (
    LATTICES,
    DifferentialRunner,
    Divergence,
    KernelConfig,
    Lattice,
    SpecCheck,
    SynthLatticeConfig,
    ablation_lattice,
    replay_trace,
    tier1_lattice,
)
from repro.fuzz.generator import DEFAULT_CONFIG, GeneratorConfig, generate_spec
from repro.fuzz.harness import CampaignResult, run_campaign
from repro.fuzz.shrink import shrink_spec
from repro.fuzz.spec import (
    FuzzSpecError,
    ProtocolSpec,
    build_reference_system,
    build_skeleton_from_spec,
    build_system_from_payload,
    resolver_for_assignment,
    spec_payload,
)

__all__ = [
    "LATTICES",
    "CampaignResult",
    "CorpusEntry",
    "DEFAULT_CONFIG",
    "DifferentialRunner",
    "Divergence",
    "FuzzSpecError",
    "GeneratorConfig",
    "KernelConfig",
    "Lattice",
    "ProtocolSpec",
    "SpecCheck",
    "SynthLatticeConfig",
    "ablation_lattice",
    "build_reference_system",
    "build_skeleton_from_spec",
    "build_system_from_payload",
    "generate_spec",
    "load_corpus",
    "load_entry",
    "make_divergence_entry",
    "make_regression_entry",
    "replay_entry",
    "replay_trace",
    "resolver_for_assignment",
    "run_campaign",
    "save_entry",
    "shrink_spec",
    "spec_payload",
    "tier1_lattice",
]
