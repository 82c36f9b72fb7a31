"""Stable high-level facade: ``verify``, ``synthesize``, ``open_store``.

The engine layers underneath (``repro.core``, ``repro.mc``, ``repro.dist``,
``repro.store``) evolve; this module is the compatibility surface scripts
and notebooks should import.  Three entry points cover the common
workflows:

* :func:`verify` — model check one complete protocol and return the
  :class:`~repro.mc.result.VerificationResult`;
* :func:`synthesize` — run hole synthesis on a skeleton with any backend
  and return the :class:`~repro.core.report.SynthesisReport`;
* :func:`open_store` — open (creating if needed) a durable cross-run
  verdict store directory, for warm re-runs and inspection.

Quickstart::

    from repro import api

    result = api.verify("msi", replicas=2)
    report = api.synthesize("msi-small", store="runs/msi-store")
    warm = api.synthesize("msi-small", store="runs/msi-store")
    assert warm.model_checks <= report.model_checks

Everything here is re-exported from the top-level package, so
``from repro import synthesize`` works too.  The older deep imports
(``from repro.core import SynthesisEngine`` and friends) keep working —
this facade wraps them, it does not replace them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.core.engine import SynthesisConfig, SynthesisEngine
from repro.core.report import SynthesisReport
from repro.errors import SynthesisError
from repro.mc.kernel import ExplorationKernel, ExplorationLimits
from repro.mc.result import VerificationResult
from repro.mc.system import TransitionSystem
from repro.store import VerdictStore
from repro.store import open_store as _open_store

if TYPE_CHECKING:
    from repro.dist import SystemSpec

__all__ = ["open_store", "synthesize", "verify"]

#: The evaluation backends, the single list the CLI and the fuzz lattice
#: share.  ``processes`` delivers real multi-core wall-clock speedups (see
#: ``repro.dist``).
BACKENDS = ("sequential", "processes")


def verify(
    protocol: Union[str, TransitionSystem],
    replicas: int = 2,
    *,
    evictions: bool = False,
    symmetry: bool = True,
    max_states: Optional[int] = None,
) -> VerificationResult:
    """Model check one complete protocol.

    Args:
        protocol: a catalog name (see ``python -m repro list``) or an
            already-built :class:`~repro.mc.system.TransitionSystem`.
        replicas: replicated-component count for catalog builds (ignored
            when a built system is passed).
        evictions: enable the catalog protocol's eviction rules, where it
            has them (ignored for built systems).
        symmetry: canonicalise states under replica symmetry (catalog
            builds only).
        max_states: optional exploration cap.

    Returns:
        The checker's :class:`~repro.mc.result.VerificationResult`;
        ``result.is_success`` is the verdict, ``result.trace`` the
        counterexample on failure.
    """
    if isinstance(protocol, str):
        from repro.protocols.catalog import PROTOCOL_BUILDERS

        if protocol not in PROTOCOL_BUILDERS:
            raise SynthesisError(
                f"unknown protocol {protocol!r}; known: "
                f"{', '.join(sorted(PROTOCOL_BUILDERS))}"
            )
        system = PROTOCOL_BUILDERS[protocol](
            replicas, evictions=evictions, symmetry=symmetry
        )
    else:
        system = protocol
    return ExplorationKernel(
        system, limits=ExplorationLimits(max_states=max_states)
    ).run()


def synthesize(
    skeleton: Union[str, TransitionSystem, SystemSpec],
    config: Optional[SynthesisConfig] = None,
    *,
    replicas: int = 2,
    backend: str = "sequential",
    workers: int = 4,
    store: Optional[str] = None,
) -> SynthesisReport:
    """Run hole synthesis on a skeleton and return the merged report.

    Args:
        skeleton: a catalog skeleton name, a built holed
            :class:`~repro.mc.system.TransitionSystem` (``sequential``
            backend only), or a
            :class:`~repro.dist.SystemSpec`.
        config: synthesis knobs; defaults to the paper's procedure plus
            both sound accelerations (see
            :class:`~repro.core.engine.SynthesisConfig`).
        replicas: replicated-component count for catalog builds.
        backend: ``"sequential"`` or ``"processes"`` (real multi-core
            speedups).
        workers: worker-process count for the processes backend.
        store: directory of a durable verdict store to record to and
            replay from (shorthand for ``config.store_path``); a second
            run against the same store re-checks almost nothing —
            ``report.model_checks`` tells you how many model-checker runs
            actually happened.

    Returns:
        The run's :class:`~repro.core.report.SynthesisReport`.
    """
    if backend not in BACKENDS:
        raise SynthesisError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    config = config or SynthesisConfig()
    if store is not None:
        from dataclasses import replace

        config = replace(config, store_path=store)
    if backend == "processes":
        # Imported here so that ``import repro`` does not load the dist
        # layer (and multiprocessing) for sequential runs.
        from repro.dist import DistributedSynthesisEngine, SystemSpec

        if isinstance(skeleton, TransitionSystem):
            raise SynthesisError(
                "the processes backend needs a catalog name or SystemSpec "
                "(worker processes rebuild the system locally), not a "
                "built TransitionSystem"
            )
        spec = (
            skeleton
            if isinstance(skeleton, SystemSpec)
            else SystemSpec(skeleton, replicas)
        )
        return DistributedSynthesisEngine(spec, config, workers=workers).run()
    if isinstance(skeleton, str):
        from repro.protocols.catalog import SKELETON_BUILDERS

        if skeleton not in SKELETON_BUILDERS:
            raise SynthesisError(
                f"unknown skeleton {skeleton!r}; known: "
                f"{', '.join(sorted(SKELETON_BUILDERS))}"
            )
        system: TransitionSystem = SKELETON_BUILDERS[skeleton](replicas)
    elif isinstance(skeleton, TransitionSystem):
        system = skeleton
    else:
        from repro.dist import SystemSpec

        system = skeleton.build() if isinstance(skeleton, SystemSpec) else skeleton
    return SynthesisEngine(system, config).run()


def open_store(path: str) -> VerdictStore:
    """Open (creating if needed) a durable verdict store directory.

    The returned :class:`~repro.store.VerdictStore` is what synthesis
    runs consult before model checking; open it directly to inspect
    (``len(store)``) or share one handle across several in-process runs.
    Close it when done.
    """
    return _open_store(path)
