"""repro — a Python reproduction of VerC3 (Elver et al., DATE 2018).

VerC3 is a library for *explicit state synthesis of concurrent systems*:
given a protocol skeleton with holes and a correctness specification, it
enumerates candidate completions, model checks each with an embedded
explicit-state checker, and prunes candidates inferred to fail from
previously recorded failure patterns.

Public API tour:

* :mod:`repro.api` — the stable facade: :func:`~repro.api.verify`,
  :func:`~repro.api.synthesize`, :func:`~repro.api.open_store`.
* :mod:`repro.mc` — Murphi-like modelling + BFS model checker + symmetry.
* :mod:`repro.core` — holes, actions, candidate pruning, synthesis engines.
* :mod:`repro.dsl` — declarative protocol-building helpers.
* :mod:`repro.protocols` — case studies (directory MSI, VI, mutex, the
  paper's Figure 2 toy).
* :mod:`repro.analysis` — solution grouping and Table I rendering.

Quickstart (the stable facade, :mod:`repro.api`)::

    from repro import synthesize, verify

    print(verify("msi").summary())
    report = synthesize("msi-small", store="runs/msi-store")
    print(report.summary())

or, one layer down::

    from repro.core import SynthesisEngine, SynthesisConfig
    from repro.protocols.toy import build_figure2_skeleton

    report = SynthesisEngine(build_figure2_skeleton()).run()
    print(report.summary())
"""

from repro.api import open_store, synthesize, verify
from repro.core import (
    Action,
    Hole,
    SynthesisConfig,
    SynthesisEngine,
    SynthesisReport,
    WILDCARD,
)
from repro.mc import (
    CoverageProperty,
    DeadlockPolicy,
    ExplorationKernel,
    ExplorationLimits,
    Invariant,
    Multiset,
    Rule,
    ScalarSet,
    TransitionSystem,
    Verdict,
    ruleset,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "CoverageProperty",
    "DeadlockPolicy",
    "ExplorationKernel",
    "ExplorationLimits",
    "Hole",
    "Invariant",
    "Multiset",
    "Rule",
    "ScalarSet",
    "SynthesisConfig",
    "SynthesisEngine",
    "SynthesisReport",
    "TransitionSystem",
    "Verdict",
    "WILDCARD",
    "__version__",
    "open_store",
    "ruleset",
    "synthesize",
    "verify",
]
