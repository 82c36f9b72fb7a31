"""Built-in matrix presets (``python -m repro matrix --preset <name>``).

* ``table1`` — reproduces the repository's Table I
  (``table1_output.txt``): the MSI-tiny naive/pruning pair, MSI-small
  under both backends, and the sample-extrapolated MSI-small naive
  baseline.  An include-only matrix — the paper's table is irregular.
* ``smoke`` — a few minutes of tiny cells: every complete protocol
  verified at 2 replicas and every fast skeleton synthesised
  sequentially.  This is the CI matrix-smoke step.
* ``fuzz`` — generated protocols through the journaled runner: building
  the preset registers a handful of seeded fuzz skeletons in the runtime
  catalog (:func:`register_fuzz_skeletons`) and synthesises each one.
  The differential lattice itself
  lives in ``python -m repro fuzz``; this preset is the matrix-side
  bridge, giving generated specs the same resumable journal, report, and
  timeout machinery as the hand-written workloads.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import ExperimentError
from repro.experiments.spec import MatrixSpec


def table1_preset() -> MatrixSpec:
    """The Table I reproduction as a declarative matrix."""
    return MatrixSpec.from_dict(
        {
            "name": "table1",
            "defaults": {"mode": "synth", "replicas": 2},
            "include": [
                {
                    "id": "tiny-naive",
                    "label": "MSI-tiny 1 thread, no pruning",
                    "target": "msi-tiny",
                    "pruning": False,
                },
                {
                    "id": "tiny-pruned",
                    "label": "MSI-tiny 1 thread, pruning",
                    "target": "msi-tiny",
                },
                {
                    "id": "small-seq",
                    "label": "MSI-small 1 thread, pruning",
                    "target": "msi-small",
                },
                {
                    "id": "small-processes",
                    "label": "MSI-small 4 processes, pruning",
                    "target": "msi-small",
                    "backend": "processes",
                    "workers": 4,
                },
                {
                    "id": "small-naive-estimated",
                    "label": "MSI-small 1 thread, no pruning",
                    "target": "msi-small",
                    "estimate_naive_from": "small-seq",
                },
            ],
        }
    )


def smoke_preset() -> MatrixSpec:
    """Tiny cells only: the CI smoke matrix (sequential synthesis +
    every protocol verified).  The synthesis axis covers each protocol
    family once, including the new MOESI and German workloads."""
    return MatrixSpec.from_dict(
        {
            "name": "smoke",
            "defaults": {
                "mode": "synth",
                "replicas": 2,
                "backend": "sequential",
                "timeout_seconds": 300,
            },
            "axes": {
                "target": [
                    "figure2",
                    "mutex",
                    "vi",
                    "msi-tiny",
                    "mesi",
                    "moesi-small",
                    "german-small",
                ],
            },
            "include": [
                {"mode": "verify", "target": name, "timeout_seconds": 120}
                for name in ("mutex", "vi", "msi", "mesi", "moesi", "german")
            ],
        }
    )


#: generator seeds the ``fuzz`` preset sweeps (small and fixed so the
#: preset stays a few minutes of cells and journals are comparable
#: across machines)
FUZZ_PRESET_SEEDS: Tuple[int, ...] = (0, 1, 2, 3, 4, 5)


def register_fuzz_skeletons(seeds: Tuple[int, ...] = FUZZ_PRESET_SEEDS):
    """Register generated fuzz skeletons in the runtime catalog.

    Each seed becomes a :class:`~repro.protocols.catalog.SkeletonEntry`
    named ``fuzz-s<seed>`` whose builder regenerates the spec (rebased to
    the requested replica count) and compiles it through the ordinary
    builder path — deterministic, so matrix journal resume works.
    Returns the registered names.  Idempotent; re-registration replaces.
    """
    # Imported here so the experiments layer only pays for the fuzz
    # package when this preset is actually used.
    from repro.fuzz import build_skeleton_from_spec, generate_spec
    from repro.protocols.catalog import SkeletonEntry, register_skeleton

    names = []
    for seed in seeds:
        spec = generate_spec(seed)

        def build(replicas: int, _seed: int = seed):
            built = generate_spec(_seed)
            if replicas != built.n_procs:
                built = built.with_(n_procs=replicas)
            return build_skeleton_from_spec(built)

        register_skeleton(SkeletonEntry(
            name=spec.name,
            build=build,
            holes=len(spec.hole_names()),
            replicas=(2, 4),
            summary=f"generated grant-service protocol (fuzz seed {seed})",
        ))
        names.append(spec.name)
    return names


def fuzz_preset() -> MatrixSpec:
    """Generated fuzz skeletons through the journaled matrix runner."""
    names = register_fuzz_skeletons()
    return MatrixSpec.from_dict(
        {
            "name": "fuzz",
            "defaults": {
                "mode": "synth",
                "replicas": 2,
                "backend": "sequential",
            },
            "axes": {"target": names},
        }
    )


PRESETS: Dict[str, Callable[[], MatrixSpec]] = {
    "table1": table1_preset,
    "smoke": smoke_preset,
    "fuzz": fuzz_preset,
}


def preset_names() -> Tuple[str, ...]:
    """Sorted names of the built-in presets."""
    return tuple(sorted(PRESETS))


def load_preset(name: str) -> MatrixSpec:
    """Build a preset's spec; raises with the available names if unknown."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return factory()
