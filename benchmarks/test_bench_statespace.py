"""Figure 3 / Section III state-space numbers: model checking the protocols.

The paper reports 5207 / 6025 / 6332 visited states for verified solutions
of its MSI protocol (richer than ours — evictions and requestor-collected
acks; our reference protocol's counts are recorded in EXPERIMENTS.md).
This benchmark measures the embedded model checker itself: visited states,
throughput (states/second), and the effect of symmetry reduction — the
facility the paper argues is cheap in explicit-state tools.
"""

import pytest

from benchmarks.conftest import bench_caches, run_once
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols.msi.system import build_msi_system
from repro.protocols.mutex import build_mutex_system
from repro.protocols.vi import build_vi_system


@pytest.mark.parametrize("n_caches", [1, 2, 3])
def test_msi_reference_exploration(benchmark, n_caches):
    result = run_once(
        benchmark, lambda: ExplorationKernel(build_msi_system(n_caches)).run()
    )
    assert result.verdict is Verdict.SUCCESS
    benchmark.extra_info.update(
        {
            "protocol": "msi-reference",
            "caches": n_caches,
            "states": result.stats.states_visited,
            "transitions": result.stats.transitions_fired,
        }
    )


@pytest.mark.parametrize("symmetry", [True, False])
def test_msi_symmetry_ablation(benchmark, symmetry):
    """Symmetry reduction ablation (Ip & Dill): states and wall-clock."""
    n_caches = max(bench_caches(), 3)
    result = run_once(
        benchmark,
        lambda: ExplorationKernel(build_msi_system(n_caches, symmetry=symmetry)).run(),
    )
    assert result.verdict is Verdict.SUCCESS
    benchmark.extra_info.update(
        {
            "protocol": "msi-reference",
            "caches": n_caches,
            "symmetry": symmetry,
            "states": result.stats.states_visited,
        }
    )


def test_msi_symmetry_state_reduction_shape():
    """The reduction factor approaches n! as replicas grow."""
    reduced = ExplorationKernel(build_msi_system(3, symmetry=True)).run()
    full = ExplorationKernel(build_msi_system(3, symmetry=False)).run()
    factor = full.stats.states_visited / reduced.stats.states_visited
    assert factor > 2.0  # n! = 6 is the ceiling; transients keep it below


@pytest.mark.parametrize(
    "name,factory",
    [("vi", build_vi_system), ("mutex", build_mutex_system)],
)
def test_dsl_protocol_exploration(benchmark, name, factory):
    result = run_once(benchmark, lambda: ExplorationKernel(factory(3)).run())
    assert result.verdict is Verdict.SUCCESS
    benchmark.extra_info.update(
        {"protocol": name, "procs": 3, "states": result.stats.states_visited}
    )


@pytest.mark.parametrize("evictions", [False, True])
def test_msi_eviction_extension_exploration(benchmark, evictions):
    result = run_once(
        benchmark, lambda: ExplorationKernel(build_msi_system(3, evictions=evictions)).run()
    )
    assert result.verdict is Verdict.SUCCESS
    benchmark.extra_info.update(
        {"protocol": "msi", "evictions": evictions,
         "states": result.stats.states_visited}
    )


def test_mesi_exploration(benchmark):
    from repro.protocols.mesi import build_mesi_system

    result = run_once(benchmark, lambda: ExplorationKernel(build_mesi_system(3)).run())
    assert result.verdict is Verdict.SUCCESS
    benchmark.extra_info.update(
        {"protocol": "mesi", "caches": 3, "states": result.stats.states_visited}
    )
