"""Tests for the declarative experiment-matrix subsystem."""

import json
import os
import time

import pytest

from repro.api import BACKENDS
from repro.errors import ExperimentError
from repro.experiments import (
    MatrixRunner,
    MatrixSpec,
    expand_matrix,
    load_preset,
    make_cell,
    preset_names,
    run_cell,
)
from repro.experiments.runner import JOURNAL_NAME, REPORT_NAME, RESULTS_NAME


def spec_from(**data):
    data.setdefault("name", "test")
    return MatrixSpec.from_dict(data)


def _pid_running(pid):
    """Is the process alive and not a zombie?  (A reparented child may
    linger as a zombie when PID 1 is slow to reap; that still counts as
    dead for the orphan check.)"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


class TestSpecParsing:
    def test_axes_product_in_declaration_order(self):
        spec = spec_from(
            defaults={"mode": "synth"},
            axes={
                "target": ["figure2", "mutex"],
                "backend": ["sequential", "processes"],
            },
        )
        cells = expand_matrix(spec)
        assert [(c.target, c.backend) for c in cells] == [
            ("figure2", "sequential"),
            ("figure2", "processes"),
            ("mutex", "sequential"),
            ("mutex", "processes"),
        ]

    def test_exclude_drops_matching_product_cells(self):
        spec = spec_from(
            axes={
                "target": ["figure2", "mutex"],
                "backend": ["sequential", "processes"],
            },
            exclude=[{"target": "mutex", "backend": "processes"}],
        )
        assert len(expand_matrix(spec)) == 3

    def test_exclude_matches_effective_defaulted_values(self):
        """An exclude may reference a field no axis/default sets explicitly
        (here: backend, which defaults to sequential)."""
        spec = spec_from(
            axes={"target": ["figure2", "mutex"]},
            exclude=[{"target": "figure2", "backend": "sequential"}],
        )
        cells = expand_matrix(spec)
        assert [c.target for c in cells] == ["mutex"]

    def test_exclude_never_filters_include_cells(self):
        spec = spec_from(
            include=[{"target": "figure2"}],
            exclude=[{"target": "figure2"}],
        )
        assert len(expand_matrix(spec)) == 1

    def test_exclude_with_unknown_field_rejected(self):
        with pytest.raises(ExperimentError, match="exclude entry references"):
            spec_from(
                axes={"target": ["figure2"]},
                exclude=[{"flavour": "spicy"}],
            )

    def test_include_appends_irregular_cells(self):
        spec = spec_from(
            include=[
                {"target": "figure2"},
                {"mode": "verify", "target": "german", "replicas": 3},
            ]
        )
        cells = expand_matrix(spec)
        assert [c.mode for c in cells] == ["synth", "verify"]
        assert cells[1].replicas == 3

    def test_ids_are_stable_and_unique(self):
        spec = spec_from(
            axes={"target": ["figure2"], "pruning": [True, False]},
        )
        ids = [c.id for c in expand_matrix(spec)]
        assert ids == ["synth:figure2:r2:sequential",
                       "synth:figure2:r2:sequential:naive"]

    def test_duplicate_ids_rejected(self):
        spec = spec_from(include=[{"target": "figure2"}, {"target": "figure2"}])
        with pytest.raises(ExperimentError, match="duplicate cell id"):
            expand_matrix(spec)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ExperimentError, match="unknown axis"):
            spec_from(axes={"flavour": ["a"]})

    def test_unknown_cell_field_rejected(self):
        with pytest.raises(ExperimentError, match="unknown cell field"):
            make_cell({"target": "figure2", "flavour": "spicy"})
        with pytest.raises(ExperimentError, match=r"unknown cell field.*'por'"):
            make_cell({"target": "moesi", "mode": "verify", "por": True})
        with pytest.raises(ExperimentError, match=r"unknown cell field.*'family'"):
            make_cell({"target": "msi-tiny", "family": True})
        with pytest.raises(ExperimentError, match=r"unknown cell field.*'packed'"):
            make_cell({"target": "msi-tiny", "packed": False})
        with pytest.raises(ExperimentError, match=r"unknown axis 'packed'"):
            spec_from(axes={"packed": [True, False]})

    def test_explorer_cell_field_rejected(self):
        """Every cell explores breadth-first; a spec that still names the
        retired ``explorer`` field fails before any cell runs."""
        with pytest.raises(ExperimentError, match=r"unknown cell field.*'explorer'"):
            make_cell({"target": "figure2", "explorer": "dfs"})
        with pytest.raises(ExperimentError, match=r"unknown axis 'explorer'"):
            spec_from(axes={"explorer": ["bfs", "dfs"]})

    def test_unknown_targets_rejected(self):
        with pytest.raises(ExperimentError, match="unknown skeleton"):
            make_cell({"target": "nope"})
        with pytest.raises(ExperimentError, match="unknown protocol"):
            make_cell({"mode": "verify", "target": "msi-tiny"})

    def test_unknown_backend_names_the_valid_ones(self):
        with pytest.raises(
            ExperimentError,
            match=r"unknown backend 'threads'; known: sequential, processes",
        ):
            make_cell({"target": "figure2", "backend": "threads"})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_api_backend_makes_a_cell(self, backend):
        cell = make_cell({"target": "figure2", "backend": backend})
        assert cell.backend == backend

    def test_estimate_reference_must_exist(self):
        spec = spec_from(
            include=[
                {"id": "est", "target": "msi-tiny", "estimate_naive_from": "gone"}
            ]
        )
        with pytest.raises(ExperimentError, match="references unknown"):
            expand_matrix(spec)

    def test_empty_expansion_rejected(self):
        with pytest.raises(ExperimentError, match="zero cells"):
            expand_matrix(spec_from())

    def test_spec_file_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"name": "f", "include": [{"target": "figure2"}]})
        )
        assert len(expand_matrix(MatrixSpec.from_json_file(path))) == 1

    def test_missing_spec_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read spec"):
            MatrixSpec.from_json_file(tmp_path / "gone.json")

    def test_malformed_section_shapes_are_clean_errors(self):
        with pytest.raises(ExperimentError, match="'include' must be a list"):
            MatrixSpec.from_dict({"name": "bad", "include": ["figure2"]})
        with pytest.raises(ExperimentError, match="'defaults' must be an object"):
            MatrixSpec.from_dict({"name": "bad", "defaults": [1]})
        with pytest.raises(ExperimentError, match="'axes' must be an object"):
            MatrixSpec.from_dict({"name": "bad", "axes": ["target"]})

    def test_mistyped_numeric_fields_are_clean_errors(self):
        for replicas in ("two", True):
            with pytest.raises(ExperimentError, match="replicas must be an int"):
                make_cell({"target": "figure2", "replicas": replicas})
        with pytest.raises(ExperimentError, match="workers must be an int"):
            make_cell({"target": "figure2", "workers": True})
        with pytest.raises(ExperimentError, match="estimate_samples"):
            make_cell({"target": "figure2", "estimate_samples": True})
        with pytest.raises(ExperimentError, match="timeout_seconds"):
            make_cell({"target": "figure2", "timeout_seconds": "fast"})


class TestRunCell:
    def test_synth_cell_row(self):
        row = run_cell(make_cell({"target": "figure2"}))
        assert row["kind"] == "synth"
        assert row["ok"]
        assert row["solutions"] == 1
        assert row["evaluated"] == 10
        assert row["naive_candidates"] == 24

    def test_processes_cell_matches_the_sequential_row(self):
        sequential = run_cell(make_cell({"target": "figure2"}))
        processes = run_cell(
            make_cell({"target": "figure2", "backend": "processes", "workers": 2})
        )
        assert processes["ok"]
        assert processes["solutions"] == sequential["solutions"] == 1
        assert processes["solution_set"] == sequential["solution_set"]

    def test_verify_cell_row(self):
        row = run_cell(make_cell({"mode": "verify", "target": "german"}))
        assert row["kind"] == "verify"
        assert row["ok"]
        assert row["verdict"] == "success"
        assert row["states"] == 122

    def test_naive_cell_reports_naive_space(self):
        row = run_cell(make_cell({"target": "figure2", "pruning": False}))
        assert row["candidates"] == 24
        assert row["evaluated"] == 24

    def test_estimate_cell_extrapolates_base(self):
        base_cell = make_cell({"id": "base", "target": "msi-tiny"})
        base = run_cell(base_cell)
        estimate = run_cell(
            make_cell(
                {
                    "id": "est",
                    "target": "msi-tiny",
                    "estimate_naive_from": "base",
                    "estimate_samples": 3,
                }
            ),
            {"base": base},
        )
        assert estimate["estimated"]
        assert estimate["evaluated"] == base["naive_candidates"] == 21
        assert estimate["solutions"] == base["solutions"]
        assert estimate["seconds"] > 0

    def test_estimate_without_base_row_fails(self):
        cell = make_cell(
            {"id": "est", "target": "msi-tiny", "estimate_naive_from": "base"}
        )
        with pytest.raises(ExperimentError, match="has not completed"):
            run_cell(cell, {})


def tiny_spec(**extra):
    data = {
        "name": "tiny",
        "defaults": {"replicas": 2},
        "include": [
            {"id": "a", "target": "figure2"},
            {"id": "b", "mode": "verify", "target": "mutex"},
        ],
    }
    data.update(extra)
    return MatrixSpec.from_dict(data)


class TestRunnerJournal:
    def test_full_run_writes_artifacts(self, tmp_path):
        result = MatrixRunner(tiny_spec(), tmp_path / "out").run()
        assert result.executed == 2
        assert result.resumed == 0
        assert not result.failed
        out = tmp_path / "out"
        assert (out / JOURNAL_NAME).exists()
        assert (out / RESULTS_NAME).exists()
        assert (out / REPORT_NAME).exists()
        results = json.loads((out / RESULTS_NAME).read_text())
        assert [row["cell"] for row in results["cells"]] == ["a", "b"]

    def test_rerun_resumes_everything(self, tmp_path):
        out = tmp_path / "out"
        MatrixRunner(tiny_spec(), out).run()
        result = MatrixRunner(tiny_spec(), out).run()
        assert result.executed == 0
        assert result.resumed == 2

    def test_killed_run_resumes_only_missing_cells(self, tmp_path, monkeypatch):
        """Simulate a mid-matrix kill: the first cell's journal line exists,
        the second never ran.  The rerun must execute only the second."""
        out = tmp_path / "out"
        import repro.experiments.runner as runner_module

        real_run_cell = runner_module.run_cell
        executed = []

        def exploding(cell, prior=None):
            executed.append(cell.id)
            if cell.id == "b":
                raise KeyboardInterrupt  # the kill
            return real_run_cell(cell, prior)

        monkeypatch.setattr(runner_module, "run_cell", exploding)
        with pytest.raises(KeyboardInterrupt):
            MatrixRunner(tiny_spec(), out).run()
        assert executed == ["a", "b"]

        executed.clear()
        monkeypatch.setattr(runner_module, "run_cell", exploding)
        # Cell "a" is journaled; only "b" reruns (and this time survives).
        def surviving(cell, prior=None):
            executed.append(cell.id)
            return real_run_cell(cell, prior)

        monkeypatch.setattr(runner_module, "run_cell", surviving)
        result = MatrixRunner(tiny_spec(), out).run()
        assert executed == ["b"]
        assert result.resumed == 1
        assert result.executed == 1

    def test_torn_journal_line_is_ignored(self, tmp_path):
        out = tmp_path / "out"
        MatrixRunner(tiny_spec(), out).run()
        with open(out / JOURNAL_NAME, "a") as handle:
            handle.write('{"cell": "b", "row"')  # torn write from a kill
        result = MatrixRunner(tiny_spec(), out).run()
        assert result.resumed == 2

    def test_fresh_discards_journal(self, tmp_path):
        out = tmp_path / "out"
        MatrixRunner(tiny_spec(), out).run()
        result = MatrixRunner(tiny_spec(), out, fresh=True).run()
        assert result.executed == 2
        assert result.resumed == 0

    def test_journal_of_other_matrix_rejected(self, tmp_path):
        out = tmp_path / "out"
        MatrixRunner(tiny_spec(), out).run()
        other = tiny_spec(name="other")
        with pytest.raises(ExperimentError, match="belongs to matrix"):
            MatrixRunner(other, out).run()

    def test_failing_cell_recorded_and_matrix_continues(self, tmp_path):
        spec = MatrixSpec.from_dict(
            {
                "name": "partial",
                "include": [
                    # max_evaluations=1 finds no solution -> not ok.
                    {"id": "a", "target": "figure2", "max_evaluations": 1},
                    {"id": "b", "target": "figure2"},
                ],
            }
        )
        result = MatrixRunner(spec, tmp_path / "out").run()
        assert [row["cell"] for row in result.rows] == ["a", "b"]
        assert len(result.failed) == 1
        assert result.rows[1]["ok"]

    def test_timeout_cell_is_abandoned(self, tmp_path):
        spec = MatrixSpec.from_dict(
            {
                "name": "slow",
                "include": [
                    {
                        "id": "slow",
                        "target": "msi-small",
                        "timeout_seconds": 0.05,
                    }
                ],
            }
        )
        result = MatrixRunner(spec, tmp_path / "out").run()
        assert result.rows[0]["status"] == "timeout"
        assert not result.rows[0]["ok"]
        assert result.rows[0]["seconds"] >= 0.05

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
    def test_timeout_reaps_spawned_grandchildren(self, tmp_path, monkeypatch):
        """A timed-out cell must not leave orphaned grandchildren (e.g. the
        processes backend's daemon workers) burning CPU: the runner kills
        the cell's whole process group."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork for the monkeypatched child")
        monkeypatch.setenv("REPRO_DIST_START_METHOD", "fork")
        import repro.experiments.runner as runner_module

        pid_file = tmp_path / "grandchild.pid"

        def spawning_run_cell(cell, prior=None):
            worker = multiprocessing.Process(
                target=time.sleep, args=(60,), daemon=True
            )
            worker.start()
            pid_file.write_text(str(worker.pid))
            time.sleep(60)  # force the timeout while the worker runs

        monkeypatch.setattr(runner_module, "run_cell", spawning_run_cell)
        cell = make_cell(
            {"id": "slow", "target": "figure2", "timeout_seconds": 1.0}
        )
        row = runner_module._run_cell_isolated(cell)
        assert row["status"] == "timeout"

        grandchild = int(pid_file.read_text())
        for _ in range(50):  # the group kill lands asynchronously
            if not _pid_running(grandchild):
                break
            time.sleep(0.1)
        assert not _pid_running(grandchild), (
            f"grandchild {grandchild} survived the timeout kill"
        )

    def test_timeout_and_error_rows_are_retried_not_resumed(self, tmp_path):
        """Infrastructure failures (error/timeout) must re-run on the next
        invocation; protocol results stay cached."""
        spec = MatrixSpec.from_dict(
            {
                "name": "retry",
                "include": [
                    {"id": "good", "target": "figure2"},
                    {"id": "flaky", "mode": "verify", "target": "mutex"},
                ],
            }
        )
        out = tmp_path / "out"
        first = MatrixRunner(spec, out).run()
        assert not first.failed
        # Rewrite flaky's journal row as a timeout from a "previous" run.
        lines = (out / JOURNAL_NAME).read_text().splitlines()
        rewritten = []
        for line in lines:
            entry = json.loads(line)
            if entry.get("cell") == "flaky":
                entry["row"] = {"status": "timeout", "ok": False}
            rewritten.append(json.dumps(entry))
        (out / JOURNAL_NAME).write_text("\n".join(rewritten) + "\n")

        second = MatrixRunner(spec, out).run()
        assert second.resumed == 1      # the good result stays cached
        assert second.executed == 1     # the timeout re-ran
        assert not second.failed

    def test_isolated_cell_with_large_row_survives(self, tmp_path, monkeypatch):
        """A result row bigger than the pipe buffer must come back intact
        (the runner drains the queue before joining the child)."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork for the monkeypatched child")
        monkeypatch.setenv("REPRO_DIST_START_METHOD", "fork")
        import repro.experiments.runner as runner_module

        blob = "x" * 300_000  # well beyond a 64KB pipe buffer

        def fat_run_cell(cell, prior=None):
            return {"kind": "synth", "ok": True, "status": "ok", "blob": blob}

        monkeypatch.setattr(runner_module, "run_cell", fat_run_cell)
        spec = MatrixSpec.from_dict(
            {
                "name": "fat",
                "include": [
                    {"id": "fat", "target": "figure2", "timeout_seconds": 30}
                ],
            }
        )
        result = MatrixRunner(spec, tmp_path / "out").run()
        assert result.rows[0]["status"] == "ok"
        assert result.rows[0]["blob"] == blob

    def test_estimate_uses_resumed_base_row(self, tmp_path):
        """An estimate cell must find its base row even when the base was
        resumed from the journal, not re-executed."""
        spec = MatrixSpec.from_dict(
            {
                "name": "est",
                "include": [
                    {"id": "base", "target": "msi-tiny"},
                    {
                        "id": "est",
                        "target": "msi-tiny",
                        "estimate_naive_from": "base",
                        "estimate_samples": 2,
                    },
                ],
            }
        )
        out = tmp_path / "out"
        first = MatrixRunner(spec, out).run()
        assert not first.failed
        # Drop the estimate row from the journal; keep the base row.
        lines = (out / JOURNAL_NAME).read_text().splitlines()
        kept = [line for line in lines if '"cell": "est"' not in line]
        (out / JOURNAL_NAME).write_text("\n".join(kept) + "\n")
        second = MatrixRunner(spec, out).run()
        assert second.resumed == 1
        assert second.executed == 1
        assert not second.failed


class TestPresets:
    def test_preset_names(self):
        assert set(preset_names()) == {"table1", "smoke", "fuzz"}

    def test_unknown_preset_rejected(self):
        with pytest.raises(ExperimentError, match="unknown preset"):
            load_preset("nope")

    def test_presets_expand(self):
        table1 = expand_matrix(load_preset("table1"))
        assert [cell.id for cell in table1] == [
            "tiny-naive",
            "tiny-pruned",
            "small-seq",
            "small-processes",
            "small-naive-estimated",
        ]
        smoke = expand_matrix(load_preset("smoke"))
        targets = {cell.target for cell in smoke}
        # The smoke matrix covers the new workloads in both modes.
        assert {"moesi-small", "german-small", "moesi", "german"} <= targets
        assert len({cell.id for cell in smoke}) == len(smoke) == 13

    def test_rows_carry_timing_and_peak_states(self, tmp_path):
        out = tmp_path / "out"
        MatrixRunner(tiny_spec(), out).run()
        rows = [
            entry["row"]
            for entry in map(
                json.loads,
                (out / JOURNAL_NAME).read_text().splitlines(),
            )
            if "row" in entry
        ]
        assert len(rows) == 2
        for row in rows:
            assert row["seconds"] >= 0
            assert row["peak_states"] > 0
        report = (out / REPORT_NAME).read_text()
        assert "Peak states" in report
        assert "Seconds" in report

    def test_runner_telemetry_traces_cells(self, tmp_path):
        from repro.obs import Telemetry, load_events

        trace = tmp_path / "trace.jsonl"
        tele = Telemetry.create(trace_path=str(trace))
        with_tele = MatrixRunner(
            tiny_spec(), tmp_path / "out", telemetry=tele
        ).run()
        tele.close()
        plain = MatrixRunner(tiny_spec(), tmp_path / "out2").run()
        assert with_tele.executed == plain.executed == 2
        events = load_events(trace)
        cells = [
            e for e in events
            if e["type"] == "span_start" and e["name"] == "cell"
        ]
        assert [e["cell"] for e in cells] == ["a", "b"]
        # Cell results are journalled identically either way.
        rows = lambda out: [
            {k: entry["row"][k] for k in ("cell", "ok", "peak_states")}
            for entry in map(
                json.loads,
                (out / JOURNAL_NAME).read_text().splitlines(),
            )
            if "row" in entry
        ]
        assert rows(tmp_path / "out") == rows(tmp_path / "out2")

    def test_table1_text_uses_classic_columns(self, tmp_path):
        spec = MatrixSpec.from_dict(
            {
                "name": "mini",
                "include": [
                    {"id": "a", "label": "Figure2 toy", "target": "figure2"}
                ],
            }
        )
        result = MatrixRunner(spec, tmp_path / "out").run()
        text = result.table_text()
        assert "Pruning Patterns" in text
        assert "Figure2 toy" in text
