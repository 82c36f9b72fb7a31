"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.api import BACKENDS
from repro.cli import main
from repro.mc.properties import Invariant
from repro.protocols.catalog import PROTOCOL_CATALOG, SKELETON_CATALOG


class TestVerify:
    def test_verify_msi_success(self, capsys):
        assert main(["verify", "msi", "--caches", "2"]) == 0
        out = capsys.readouterr().out
        assert "success" in out
        assert "msi-2c" in out

    def test_verify_with_evictions(self, capsys):
        assert main(["verify", "msi", "--caches", "2", "--evictions"]) == 0

    def test_verify_vi(self, capsys):
        assert main(["verify", "vi", "--procs", "2"]) == 0
        assert "success" in capsys.readouterr().out

    def test_verify_no_symmetry(self, capsys):
        assert main(["verify", "mutex", "--procs", "2", "--no-symmetry"]) == 0

    def test_verify_truncated_is_nonzero(self, capsys):
        assert main(["verify", "msi", "--max-states", "5"]) == 1
        assert "unknown" in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    def test_directory_counterexamples_print_named_states(
        self, protocol, capsys, monkeypatch
    ):
        """Each directory protocol's trace uses its own state printer,
        not the raw 7-tuple."""
        build = cli.PROTOCOLS[protocol]

        def failing(*args, **kwargs):
            system = build(*args, **kwargs)
            system.invariants.append(Invariant("never", lambda state: False))
            return system

        monkeypatch.setitem(cli.PROTOCOLS, protocol, failing)
        assert main(["verify", protocol, "--caches", "2"]) == 1
        out = capsys.readouterr().out
        trace = out.split("counterexample:", 1)[1]
        assert "caches[I,I] dir=I" in trace
        assert "((0, 0)" not in trace


class TestSynth:
    def test_synth_mutex(self, capsys):
        assert main(["synth", "mutex"]) == 0
        out = capsys.readouterr().out
        assert "solutions:         1" in out

    def test_synth_figure2(self, capsys):
        assert main(["synth", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "evaluated:         10" in out

    def test_synth_naive(self, capsys):
        assert main(["synth", "figure2", "--naive"]) == 0
        out = capsys.readouterr().out
        assert "evaluated:         24" in out

    def test_synth_processes_backend(self, capsys):
        assert main(
            ["synth", "mutex", "--backend", "processes", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "processes backend" in out
        assert "solutions:         1" in out

    def test_synth_backend_sequential_ignores_threads(self, capsys):
        assert main(["synth", "figure2", "--backend", "sequential"]) == 0
        assert "sequential backend" in capsys.readouterr().out

    def test_synth_backend_processes_honors_explicit_count(self, capsys):
        assert main(
            ["synth", "figure2", "--backend", "processes", "--workers", "1"]
        ) == 0
        assert "processes backend, 1 worker(s)" in capsys.readouterr().out

    def test_synth_default_backend_is_sequential(self, capsys):
        assert main(["synth", "figure2"]) == 0
        assert "sequential backend, 1 worker(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_synth_accepts_every_api_backend(self, capsys, backend):
        assert main(
            ["synth", "figure2", "--backend", backend, "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert f"{backend} backend" in out
        assert "solutions:         1" in out

    def test_synth_groups(self, capsys):
        assert main(["synth", "msi-tiny", "--groups"]) == 0
        assert "behavioural group" in capsys.readouterr().out

    def test_synth_solution_limit(self, capsys):
        assert main(["synth", "msi-tiny", "--solution-limit", "1"]) == 0
        assert "solutions:         1" in capsys.readouterr().out

    def test_synth_no_generalise(self, capsys):
        # The escape hatch restores the paper's full-width patterns; on
        # figure2 the two modes coincide, so the headline must match.
        assert main(["synth", "figure2", "--no-generalise"]) == 0
        assert "evaluated:         10" in capsys.readouterr().out

    def test_synth_no_prefix_reuse(self, capsys):
        assert main(["synth", "msi-tiny", "--no-prefix-reuse"]) == 0
        out = capsys.readouterr().out
        assert "prefix cache" not in out

    def test_synth_prefix_reuse_reported_by_default(self, capsys):
        assert main(["synth", "msi-tiny"]) == 0
        assert "prefix cache" in capsys.readouterr().out


class TestNewWorkloads:
    def test_verify_moesi(self, capsys):
        assert main(["verify", "moesi", "--caches", "2"]) == 0
        assert "moesi-2c" in capsys.readouterr().out

    def test_verify_german(self, capsys):
        assert main(["verify", "german", "--procs", "2"]) == 0
        assert "german-2p" in capsys.readouterr().out

    def test_synth_moesi_small(self, capsys):
        assert main(["synth", "moesi-small"]) == 0
        assert "solutions:         1" in capsys.readouterr().out

    def test_synth_german_small(self, capsys):
        assert main(["synth", "german-small"]) == 0
        assert "solutions:         1" in capsys.readouterr().out


#: fast skeleton -> (system name, solution count) at the default 2 replicas
SYNTH_PINS = {
    "figure2": ("figure2-toy", 1),
    "mutex": ("mutex-skeleton-2p", 1),
    "vi": ("vi-skeleton-2p", 2),
    "msi-tiny": ("msi-tiny-2c", 3),
    "msi-read-tiny": ("msi-read-tiny-2c", 1),
    "msi-evict": ("msi-evict-2c", 14),
    "mesi": ("mesi-skeleton-2c", 1),
    "moesi-small": ("moesi-skeleton-2c", 1),
    "german-small": ("german-skeleton-2p", 1),
    "msi-small": ("msi-small-2c", 126),
}


class TestCatalogSmoke:
    """Every catalog protocol verifies and every catalog skeleton but
    msi-large synthesises through the CLI."""

    @pytest.mark.parametrize("symmetry", [[], ["--no-symmetry"]],
                             ids=["symmetry", "no-symmetry"])
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_CATALOG))
    def test_verify_every_protocol(self, protocol, symmetry, capsys):
        assert main(["verify", protocol, "--caches", "2", *symmetry]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{protocol}-2")
        assert ": success | states=" in out

    def test_every_skeleton_but_msi_large_is_pinned(self):
        assert set(SYNTH_PINS) == set(SKELETON_CATALOG) - {"msi-large"}

    @pytest.mark.parametrize("skeleton", sorted(SYNTH_PINS))
    def test_synth_every_fast_skeleton(self, skeleton, capsys):
        system_name, solutions = SYNTH_PINS[skeleton]
        assert main(["synth", skeleton]) == 0
        out = capsys.readouterr().out
        assert f"system:            {system_name}\n" in out
        assert f"solutions:         {solutions:,}\n" in out


class TestTelemetry:
    def test_synth_trace_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["synth", "figure2", "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        import json

        events = [json.loads(line) for line in lines]
        assert events[0]["type"] == "span_start"
        assert events[0]["name"] == "synth"

    def test_synth_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["synth", "figure2", "--metrics-out", str(out)]) == 0
        import json

        data = json.loads(out.read_text())
        assert sum(
            data["synth_candidates_evaluated"]["series"].values()
        ) == 10
        assert sum(data["synth_solutions_found"]["series"].values()) == 1

    def test_verify_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "v.jsonl"
        out = tmp_path / "m.json"
        assert main([
            "verify", "msi", "--caches", "2",
            "--trace", str(trace), "--metrics-out", str(out),
        ]) == 0
        import json

        events = [json.loads(l) for l in trace.read_text().splitlines()]
        assert events[0]["name"] == "verify"
        data = json.loads(out.read_text())
        assert sum(data["mc_states_visited"]["series"].values()) > 0

    def test_progress_flag_emits_lines_on_stderr(self, capsys):
        assert main(["synth", "figure2", "--progress"]) == 0
        assert "[progress]" in capsys.readouterr().err

    def test_no_progress_suppresses(self, capsys):
        assert main(["synth", "figure2", "--no-progress"]) == 0
        assert "[progress]" not in capsys.readouterr().err

    def test_progress_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["synth", "figure2", "--progress", "--no-progress"])

    @pytest.mark.parametrize("argv", [
        ["synth", "figure2"],
        ["synth", "msi-tiny"],
        ["synth", "msi-tiny", "--backend", "processes", "--workers", "2"],
    ], ids=["figure2", "msi-tiny", "msi-tiny-processes"])
    def test_stats_renders_trace(self, argv, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main([*argv, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "root span: synth" in out
        assert "attributed to named phases" in out

    def test_stats_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_stats_empty_trace_is_clean_error(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["stats", str(trace)]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_stats_corrupt_trace_is_clean_error(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"type":"meta"}\n{corrupt\n{"type":"phase"}\n')
        assert main(["stats", str(trace)]) == 2
        assert capsys.readouterr().err


class TestMisc:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "msi-small" in out
        assert "mutex" in out

    def test_list_shows_hole_counts_and_replica_ranges(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert " 8 holes" in out          # msi-small
        assert "replicas 2..3" in out     # the new workloads' range
        assert "german-small" in out
        assert "moesi-small" in out
        # The verify side gets ranges too.
        assert "german" in out.split("skeletons")[0]

    def test_list_labels_each_skeletons_candidate_space(self, capsys):
        from repro.protocols.catalog import (
            SKELETON_CATALOG,
            build_skeleton_with_holes,
        )

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.split("skeletons")[1].splitlines()
        for name, entry in SKELETON_CATALOG.items():
            _system, holes = build_skeleton_with_holes(name, entry.replicas[0])
            space = 1
            for hole in holes:
                space *= hole.arity
            (line,) = [line for line in lines if line.split()[:1] == [name]]
            assert f"space {space:>9,}" in line, line

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_skeleton_rejected(self):
        with pytest.raises(SystemExit):
            main(["synth", "nope"])
