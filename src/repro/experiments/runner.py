"""Execute an experiment matrix: run cells, journal, aggregate, render.

The runner turns an expanded :class:`~repro.experiments.spec.MatrixSpec`
into three artifacts under an output directory:

* ``journal.jsonl`` — one line per *completed* cell, appended and flushed
  as soon as the cell finishes.  Re-invoking the same matrix against the
  same directory skips every journaled cell (kill-safe resumption); pass
  ``fresh=True`` to discard the journal and start over.
* ``results.json`` — the aggregated machine-readable result set.
* ``report.md`` — a human-readable markdown table of all cells.

Cells run in declaration order.  A cell with ``timeout_seconds`` runs in
a separate process and is terminated (status ``timeout``) when the budget
expires; other cells run in-process.  A cell that raises records status
``error`` and the matrix carries on — cells are independent experiments.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.stats import estimate_naive_seconds, sample_candidate_cost
from repro.analysis.tables import format_table
from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.errors import ExperimentError
from repro.experiments.spec import CellSpec, MatrixSpec, expand_matrix, make_cell
from repro.mc.kernel import ExplorationKernel, ExplorationLimits
from repro.obs import NULL_TELEMETRY
from repro.protocols.catalog import build_protocol, build_skeleton_with_holes

JOURNAL_NAME = "journal.jsonl"
RESULTS_NAME = "results.json"
REPORT_NAME = "report.md"

#: journaled statuses a re-run retries instead of resuming: these are
#: infrastructure failures (crash, budget expiry), not protocol verdicts —
#: a "no-solutions" or failed-verify row is a *result* and stays cached.
RETRY_STATUSES = frozenset({"error", "timeout"})


@dataclass
class _SkeletonSample:
    """Adapter giving :func:`sample_candidate_cost` its expected surface."""

    system: Any
    holes: List[Any]


def _synthesis_config(cell: CellSpec) -> SynthesisConfig:
    return SynthesisConfig(
        pruning=cell.pruning,
        generalise_conflicts=cell.generalise,
        prefix_reuse=cell.prefix_reuse,
        solution_limit=cell.solution_limit,
        max_evaluations=cell.max_evaluations,
        store_path=cell.store,
    )


def _run_synth_cell(cell: CellSpec, telemetry=None) -> Dict[str, Any]:
    config = _synthesis_config(cell)
    if cell.backend == "processes":
        report = DistributedSynthesisEngine(
            SystemSpec(cell.target, cell.replicas), config,
            workers=cell.workers, telemetry=telemetry,
        ).run()
    else:
        system, _holes = build_skeleton_with_holes(cell.target, cell.replicas)
        report = SynthesisEngine(system, config, telemetry=telemetry).run()
    solutions = sorted(solution.assignment for solution in report.solutions)
    return {
        "kind": "synth",
        "system": report.system_name,
        "holes": report.hole_count,
        "candidates": report.candidate_space,
        "naive_candidates": report.naive_candidate_space,
        "patterns": report.failure_patterns if report.pruning else None,
        "evaluated": report.evaluated,
        "solutions": len(report.solutions),
        "solution_set": [list(map(list, assignment)) for assignment in solutions],
        "seconds": round(report.elapsed_seconds, 4),
        "peak_states": report.peak_states,
        "store_hits": report.store_hits if report.store_enabled else None,
        "model_checks": report.model_checks if report.store_enabled else None,
        "ok": bool(report.solutions),
        "status": "ok" if report.solutions else "no-solutions",
    }


def _run_verify_cell(cell: CellSpec, telemetry=None) -> Dict[str, Any]:
    system = build_protocol(
        cell.target,
        cell.replicas,
        evictions=cell.evictions,
        symmetry=cell.symmetry,
    )
    limits = ExplorationLimits(max_states=cell.max_states)
    kernel_telemetry = (
        telemetry if telemetry is not None and telemetry.enabled else None
    )
    start = time.perf_counter()
    result = ExplorationKernel(
        system, limits=limits, telemetry=kernel_telemetry
    ).run()
    elapsed = time.perf_counter() - start
    return {
        "kind": "verify",
        "system": system.name,
        "verdict": result.verdict.value,
        "states": result.stats.states_visited,
        "seconds": round(elapsed, 4),
        "peak_states": result.stats.states_visited,
        "ok": result.is_success,
        "status": "ok" if result.is_success else f"verdict-{result.verdict.value}",
    }


def _run_estimate_cell(
    cell: CellSpec, prior_rows: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    base = prior_rows.get(cell.estimate_naive_from)
    if base is None:
        raise ExperimentError(
            f"cell {cell.id!r}: base cell {cell.estimate_naive_from!r} has "
            f"not completed (order it before the estimate cell)"
        )
    if base.get("kind") != "synth":
        raise ExperimentError(
            f"cell {cell.id!r}: base cell {cell.estimate_naive_from!r} is "
            f"not a synthesis cell"
        )
    system, holes = build_skeleton_with_holes(cell.target, cell.replicas)
    sample = sample_candidate_cost(
        _SkeletonSample(system, holes), samples=cell.estimate_samples
    )
    naive_candidates = base["naive_candidates"]
    seconds = estimate_naive_seconds(naive_candidates, 1, sample["mean_seconds"])
    return {
        "kind": "synth",
        "system": base["system"],
        "holes": base["holes"],
        "candidates": naive_candidates,
        "naive_candidates": naive_candidates,
        "patterns": None,
        "evaluated": naive_candidates,
        "solutions": base["solutions"],
        "solution_set": base.get("solution_set", []),
        "seconds": round(seconds, 4),
        "estimated": True,
        "sampled_mean_seconds": round(sample["mean_seconds"], 6),
        "ok": True,
        "status": "ok",
    }


def run_cell(
    cell: CellSpec,
    prior_rows: Optional[Dict[str, Dict[str, Any]]] = None,
    telemetry=None,
) -> Dict[str, Any]:
    """Execute one cell in-process and return its result row.

    ``telemetry`` is the matrix runner's bundle; cells executed in this
    process trace into it (engines do not own or close it).  Estimate
    cells only sample, so they run untraced.
    """
    if cell.estimate_naive_from:
        return _run_estimate_cell(cell, prior_rows or {})
    if cell.mode == "verify":
        return _run_verify_cell(cell, telemetry=telemetry)
    return _run_synth_cell(cell, telemetry=telemetry)


def _isolated_entry(cell_values: Dict[str, Any], queue) -> None:
    """Child-process entry point for timeout-isolated cells."""
    if hasattr(os, "setpgid"):
        # Become a process-group leader so a timeout kill reaps *everything*
        # this cell spawns (the processes backend forks daemon workers that
        # would otherwise survive a plain terminate() and keep burning CPU).
        try:
            os.setpgid(0, 0)
        except OSError:
            pass
    try:
        row = run_cell(make_cell(cell_values))
    except Exception as exc:  # noqa: BLE001 - report, don't hang the pipe
        queue.put(
            {
                "kind": cell_values.get("mode", "synth"),
                "ok": False,
                "status": "error",
                "error": str(exc),
            }
        )
        return
    queue.put(row)


def _run_cell_isolated(cell: CellSpec) -> Dict[str, Any]:
    """Run a cell in a child process, abandoning it on timeout.

    The result is drained from the queue *before* joining: a large row
    (e.g. a big ``solution_set``) can exceed the pipe buffer, and the
    child's queue feeder blocks until someone reads it — joining first
    would deadlock and misreport a successful cell as a timeout.
    """
    import queue as queue_module

    available = multiprocessing.get_all_start_methods()
    method = os.environ.get("REPRO_DIST_START_METHOD") or (
        "fork" if "fork" in available else "spawn"
    )
    ctx = multiprocessing.get_context(method)
    queue = ctx.Queue()
    process = ctx.Process(target=_isolated_entry, args=(cell.to_dict(), queue))
    started = time.monotonic()
    process.start()
    deadline = started + cell.timeout_seconds
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            _kill_cell_process(process)
            return {
                "kind": cell.mode,
                "ok": False,
                "status": "timeout",
                "timeout_seconds": cell.timeout_seconds,
                "seconds": round(time.monotonic() - started, 4),
            }
        try:
            row = queue.get(timeout=min(0.2, remaining))
        except queue_module.Empty:
            if not process.is_alive():
                # The child exited; give a just-flushed row one last chance.
                try:
                    row = queue.get(timeout=1.0)
                except queue_module.Empty:
                    process.join()
                    return {
                        "kind": cell.mode,
                        "ok": False,
                        "status": "error",
                        "error": (
                            f"cell process exited with code {process.exitcode}"
                        ),
                        "seconds": round(time.monotonic() - started, 4),
                    }
                process.join()
                return row
            continue
        process.join()
        return row


def _kill_cell_process(process) -> None:
    """Kill a timed-out cell child and everything it spawned.

    The child made itself a process-group leader, so killing the group
    reaps the dist backend's daemon workers too; fall back to a plain
    terminate where process groups are unavailable or already gone.
    """
    killed = False
    if hasattr(os, "killpg") and process.pid is not None:
        import signal

        try:
            os.killpg(process.pid, signal.SIGKILL)
            killed = True
        except (ProcessLookupError, PermissionError, OSError):
            pass
    if not killed:
        process.terminate()
    process.join()


@dataclass
class MatrixResult:
    """Aggregate outcome of one :meth:`MatrixRunner.run`."""

    name: str
    rows: List[Dict[str, Any]]
    executed: int = 0
    resumed: int = 0
    out_dir: Optional[str] = None

    @property
    def failed(self) -> List[Dict[str, Any]]:
        return [row for row in self.rows if not row.get("ok")]

    def table_text(self) -> str:
        """Aligned text table; Table-I columns when all cells synthesise."""
        if self.rows and all(row.get("kind") == "synth" for row in self.rows):
            return format_table([_table1_row(row) for row in self.rows])
        return _generic_table(self.rows)

    def summary(self) -> str:
        parts = [
            f"matrix {self.name}: {len(self.rows)} cell(s)",
            f"{self.executed} executed",
            f"{self.resumed} resumed from journal",
        ]
        if self.failed:
            parts.append(f"{len(self.failed)} FAILED")
        return ", ".join(parts)


def _table1_row(row: Dict[str, Any]) -> Dict[str, Any]:
    label = row.get("label") or row.get("cell", "?")
    if row.get("estimated"):
        label = f"{label} (estimated)"
    return {
        "Configuration": label,
        "Holes": row.get("holes"),
        "Candidates": row.get("candidates"),
        "Pruning Patterns": row.get("patterns"),
        "Evaluated": row.get("evaluated"),
        "Solutions": row.get("solutions"),
        "Exec. Time": row.get("seconds"),
    }


def _generic_table(rows: List[Dict[str, Any]]) -> str:
    def metric(row: Dict[str, Any]) -> str:
        if row.get("kind") == "verify":
            return f"{row.get('states', '?')} states"
        if row.get("kind") == "synth":
            return f"{row.get('evaluated', '?')} evaluated"
        return "-"

    table_rows = [
        {
            "Cell": row.get("cell", "?"),
            "Kind": row.get("kind", "?"),
            "Status": row.get("status", "?"),
            "Result": metric(row),
            "Solutions": row.get("solutions"),
            "Exec. Time": row.get("seconds", 0.0),
        }
        for row in rows
    ]
    columns = ("Cell", "Kind", "Status", "Result", "Solutions", "Exec. Time")
    return format_table(table_rows, columns=columns)


def _markdown_report(result: MatrixResult) -> str:
    lines = [
        f"# Matrix report: {result.name}",
        "",
        result.summary(),
        "",
        "| Cell | Kind | Status | Solutions | Evaluated/States "
        "| Peak states | Seconds |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in result.rows:
        work = row.get("evaluated", row.get("states", ""))
        lines.append(
            f"| {row.get('cell', '?')} | {row.get('kind', '?')} "
            f"| {row.get('status', '?')} | {row.get('solutions', '')} "
            f"| {work} | {row.get('peak_states', '')} "
            f"| {row.get('seconds', '')} |"
        )
    lines += ["", "```text", result.table_text(), "```", ""]
    return "\n".join(lines)


class MatrixRunner:
    """Drive a matrix spec to completion with journaled resumption."""

    def __init__(
        self,
        spec: MatrixSpec,
        out_dir,
        fresh: bool = False,
        log: Optional[Callable[[str], None]] = None,
        telemetry=None,
    ) -> None:
        self.spec = spec
        #: the matrix's telemetry bundle; in-process cells trace into it,
        #: timeout-isolated cells run untraced (the bundle holds open file
        #: handles and thread-local state that cannot cross a fork/spawn).
        #: The caller owns (and closes) the bundle.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.cells = expand_matrix(spec)
        self.out_dir = Path(out_dir)
        self.fresh = fresh
        self._log = log or (lambda message: None)

    @property
    def journal_path(self) -> Path:
        return self.out_dir / JOURNAL_NAME

    def _load_journal(self) -> Dict[str, Dict[str, Any]]:
        """Completed cell-id -> row from a prior (possibly killed) run."""
        if self.fresh and self.journal_path.exists():
            self.journal_path.unlink()
        if not self.journal_path.exists():
            return {}
        completed: Dict[str, Dict[str, Any]] = {}
        with open(self.journal_path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    # A torn final line from a killed run: ignore it — the
                    # cell will simply re-run.
                    self._log(f"journal: ignoring torn line {number}")
                    continue
                if "matrix" in entry:
                    if entry["matrix"] != self.spec.name:
                        raise ExperimentError(
                            f"{self.journal_path} belongs to matrix "
                            f"{entry['matrix']!r}, not {self.spec.name!r}; "
                            f"use --fresh or another --out directory"
                        )
                    continue
                if "cell" in entry and "row" in entry:
                    if entry["row"].get("status") in RETRY_STATUSES:
                        # Infrastructure failures are retried, not resumed;
                        # drop any stale failure journaled earlier.
                        completed.pop(entry["cell"], None)
                        continue
                    completed[entry["cell"]] = entry["row"]
        return completed

    def _append_journal(self, handle, entry: Dict[str, Any]) -> None:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def run(self) -> MatrixResult:
        """Run every cell not already journaled; write results + report."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        completed = self._load_journal()
        write_header = not self.journal_path.exists()
        result = MatrixResult(name=self.spec.name, rows=[], out_dir=str(self.out_dir))
        rows_by_id: Dict[str, Dict[str, Any]] = {}
        tele = self.telemetry
        tick = (
            tele.progress.tick
            if tele.enabled and tele.progress is not None
            else None
        )
        with open(self.journal_path, "a") as journal:
            if write_header:
                self._append_journal(journal, {"matrix": self.spec.name})
            for index, cell in enumerate(self.cells, start=1):
                if cell.id in completed:
                    row = completed[cell.id]
                    result.resumed += 1
                    self._log(
                        f"[{index}/{len(self.cells)}] {cell.id}: "
                        f"resumed from journal"
                    )
                else:
                    self._log(f"[{index}/{len(self.cells)}] {cell.id}: running ...")
                    started = time.perf_counter()
                    with tele.span(
                        "cell", cell=cell.id, kind=cell.mode, index=index
                    ) as span:
                        try:
                            if cell.estimate_naive_from:
                                row = _run_estimate_cell(cell, rows_by_id)
                            elif cell.timeout_seconds is not None:
                                row = _run_cell_isolated(cell)
                            elif tele.enabled:
                                row = run_cell(cell, telemetry=tele)
                            else:
                                row = run_cell(cell)
                        except Exception as exc:  # noqa: BLE001 - cell isolation
                            row = {
                                "kind": cell.mode,
                                "ok": False,
                                "status": "error",
                                "error": str(exc),
                                "seconds": round(
                                    time.perf_counter() - started, 4
                                ),
                            }
                        span.set(
                            status=row.get("status"),
                            seconds=row.get("seconds"),
                            peak_states=row.get("peak_states"),
                        )
                    result.executed += 1
                    row = dict(row)
                    row["cell"] = cell.id
                    row["label"] = cell.display_label
                    self._append_journal(journal, {"cell": cell.id, "row": row})
                    self._log(
                        f"[{index}/{len(self.cells)}] {cell.id}: "
                        f"{row.get('status', '?')} ({row.get('seconds', '?')}s)"
                    )
                rows_by_id[cell.id] = row
                result.rows.append(row)
                if tick is not None:
                    tick(
                        cells=index,
                        total=len(self.cells),
                        executed=result.executed,
                        resumed=result.resumed,
                        failed=len(result.failed),
                    )
        self._write_outputs(result)
        return result

    def _write_outputs(self, result: MatrixResult) -> None:
        with open(self.out_dir / RESULTS_NAME, "w") as handle:
            json.dump(
                {
                    "matrix": self.spec.name,
                    "cells": result.rows,
                    "executed": result.executed,
                    "resumed": result.resumed,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        with open(self.out_dir / REPORT_NAME, "w") as handle:
            handle.write(_markdown_report(result))
