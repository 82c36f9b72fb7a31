"""Smoke tests: every example script runs and prints what it promises.

``table1.py`` runs in full without ``--large`` (about 2 s); its
deterministic columns are pinned here, and its backend-agreement check
is exercised on fake and real reports.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core import SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.protocols.catalog import build_skeleton


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_quickstart():
    proc = run_example("quickstart.py")
    assert proc.returncode == 0, proc.stderr
    assert "solutions:         1" in proc.stdout
    assert "goto_C" in proc.stdout


def test_figure2_walkthrough():
    proc = run_example("figure2_walkthrough.py")
    assert proc.returncode == 0, proc.stderr
    assert "with pruning: 10 candidates evaluated" in proc.stdout
    assert "naive:        24 candidates evaluated" in proc.stdout
    assert proc.stdout.count("pruning pattern") == 5


def test_msi_verify():
    proc = run_example("msi_verify.py", "2")
    assert proc.returncode == 0, proc.stderr
    assert "with symmetry" in proc.stdout
    assert "success" in proc.stdout
    assert "minimal counterexample" in proc.stdout  # the injected bug


def test_msi_synthesis_tiny():
    proc = run_example("msi_synthesis.py", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert "textbook completion is among the synthesised solutions" in proc.stdout


def test_vi_synthesis():
    proc = run_example("vi_synthesis.py")
    assert proc.returncode == 0, proc.stderr
    assert "hand-written completion was rediscovered" in proc.stdout


def test_mesi_synthesis():
    proc = run_example("mesi_synthesis.py")
    assert proc.returncode == 0, proc.stderr
    assert "unique solution = the textbook completion" in proc.stdout


def test_protocol_zoo():
    proc = run_example("protocol_zoo.py")
    assert proc.returncode == 0, proc.stderr
    assert "the zoo is healthy" in proc.stdout
    assert "moesi no-owner-inv: caught" in proc.stdout
    assert "german stale-shared-grant: caught" in proc.stdout


def test_table1_help():
    proc = run_example("table1.py", "--help", timeout=60)
    assert proc.returncode == 0, proc.stderr
    for flag in ("--large", "--naive-full", "--caches"):
        assert flag in proc.stdout


@pytest.fixture(scope="module")
def table1_run():
    return run_example("table1.py")


def table1_rows(stdout):
    """Configuration -> (holes, candidates, patterns, evaluated, solutions)."""
    rows = {}
    for line in stdout.splitlines():
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) == 7 and cells[0].startswith("MSI-"):
            rows[cells[0]] = tuple(cells[1:6])
    return rows


# The time column and the processes row's evaluated/pattern counts depend
# on timing and are not pinned (None).
TABLE1_PINS = {
    "MSI-tiny 1 thread, no pruning": ("2", "21", "N/A", "21", "3"),
    "MSI-tiny 1 thread, pruning": ("2", "32", "18", "25", "3"),
    "MSI-small 1 thread, pruning": ("8", "1,179,648", "3,183", "4,249", "126"),
    "MSI-small 4 processes, pruning": ("8", "1,179,648", None, None, "126"),
    "MSI-small 1 thread, no pruning (estimated)": (
        "8", "231,525", "N/A", "231,525", "126"),
}


def test_table1(table1_run):
    proc = table1_run
    assert proc.returncode == 0, proc.stderr
    assert "[MSI-small] pruning, 4 processes ..." in proc.stderr
    assert proc.stdout.startswith("=== Table I (reproduced) ===\n")
    assert "[MSI" not in proc.stdout  # progress stays on stderr
    assert set(table1_rows(proc.stdout)) == set(TABLE1_PINS)


def pinned_columns(row, pins):
    """``row`` with the columns ``pins`` leaves unpinned blanked to None."""
    return tuple(None if pin is None else got for got, pin in zip(row, pins))


@pytest.mark.parametrize("config", sorted(TABLE1_PINS))
def test_table1_row(table1_run, config):
    row = table1_rows(table1_run.stdout)[config]
    assert pinned_columns(row, TABLE1_PINS[config]) == TABLE1_PINS[config]


#: the tracked table adds the ``--large`` rows
TRACKED_TABLE1_PINS = {
    **TABLE1_PINS,
    "MSI-large 1 thread, pruning": (
        "12", "1,207,959,552", "10,243", "30,193", "413"),
    "MSI-large 4 processes, pruning": (
        "12", "1,207,959,552", None, None, "413"),
    "MSI-large 1 thread, no pruning (estimated)": (
        "12", "102,102,525", "N/A", "102,102,525", "413"),
}


def tracked_table1_rows():
    return table1_rows((EXAMPLES.parent / "table1_output.txt").read_text())


def test_tracked_table1_has_every_row():
    assert set(tracked_table1_rows()) == set(TRACKED_TABLE1_PINS)


@pytest.mark.parametrize("config", sorted(TRACKED_TABLE1_PINS))
def test_tracked_table1_row(config):
    """``table1_output.txt`` (``table1.py --large``) carries the pinned
    deterministic columns."""
    row = tracked_table1_rows()[config]
    pins = TRACKED_TABLE1_PINS[config]
    assert pinned_columns(row, pins) == pins


def load_table1_module():
    spec = importlib.util.spec_from_file_location(
        "table1_script", EXAMPLES / "table1.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_report(*assignments, system_name="msi-small-2c"):
    return SimpleNamespace(
        system_name=system_name,
        solutions=[SimpleNamespace(assignment=tuple(a)) for a in assignments],
    )


A = (("h1", "send_data"), ("h2", "goto_M"))
B = (("h1", "send_data"), ("h2", "goto_S"))
C = (("h1", "none"), ("h2", "goto_S"))


class TestBackendAgreement:
    """``table1.py`` exits 1 unless both backends found one solution set."""

    @pytest.fixture(scope="class")
    def script(self):
        return load_table1_module()

    def test_same_solutions_in_any_order_agree(self, script):
        script.check_agreement(
            "MSI-small", fake_report(A, B), fake_report(B, tuple(reversed(A)))
        )

    def test_solution_found_only_sequentially_exits(self, script):
        with pytest.raises(SystemExit, match=(
            "1 solution\\(s\\) found only sequentially, 0 only by processes"
        )):
            script.check_agreement(
                "MSI-small", fake_report(A, B), fake_report(A)
            )

    def test_solution_found_only_by_processes_exits(self, script):
        with pytest.raises(SystemExit, match=(
            "0 solution\\(s\\) found only sequentially, 1 only by processes"
        )):
            script.check_agreement(
                "MSI-small", fake_report(A), fake_report(A, C)
            )

    def test_equal_counts_with_different_assignments_exit(self, script):
        with pytest.raises(SystemExit, match="the backends disagree"):
            script.check_agreement(
                "MSI-small", fake_report(A, B), fake_report(A, C)
            )

    def test_different_systems_exit(self, script):
        with pytest.raises(SystemExit, match="msi-large-2c"):
            script.check_agreement(
                "MSI-small",
                fake_report(A),
                fake_report(A, system_name="msi-large-2c"),
            )

    def test_real_backends_agree_and_a_dropped_solution_is_caught(self, script):
        sequential = SynthesisEngine(build_skeleton("msi-tiny")).run()
        processes = DistributedSynthesisEngine(
            SystemSpec("msi-tiny"), workers=2
        ).run()
        script.check_agreement("MSI-tiny", sequential, processes)
        processes.solutions = processes.solutions[1:]
        with pytest.raises(SystemExit, match="1 solution"):
            script.check_agreement("MSI-tiny", sequential, processes)
