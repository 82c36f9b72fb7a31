"""Figure 2: the worked example (10 evaluated with pruning vs 24 naive).

The figure's caption is an exact claim about the synthesis procedure; this
benchmark measures both modes on the toy state graph and asserts the counts
bit-for-bit.
"""

from benchmarks.conftest import attach_report, run_once
from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.protocols.toy import build_figure2_skeleton, build_figure2_solution


def test_figure2_with_pruning(benchmark):
    report = run_once(
        benchmark, lambda: SynthesisEngine(build_figure2_skeleton()).run()
    )
    attach_report(benchmark, report, "figure2, pruning")
    assert report.evaluated == 10  # runs 1-10 of the figure
    assert report.failure_patterns == 5
    assert len(report.solutions) == 1


def test_figure2_naive(benchmark):
    report = run_once(
        benchmark,
        lambda: SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(pruning=False)
        ).run(),
    )
    attach_report(benchmark, report, "figure2, naive")
    assert report.evaluated == 24  # 3 * 2 * 2 * 2
    assert len(report.solutions) == 1



def test_figure2_processes(benchmark):
    report = run_once(
        benchmark,
        lambda: DistributedSynthesisEngine(SystemSpec("figure2"), workers=2).run(),
    )
    attach_report(benchmark, report, "figure2, 2 processes, pruning")
    assert len(report.solutions) == 1
    assert report.solutions[0].assignment_dict() == build_figure2_solution()
