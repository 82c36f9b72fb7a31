"""CLI error-path coverage: unknown targets, bad numeric flags, and
conflicting flag combinations all exit with status 2 and a message."""

import json

import pytest

from repro.cli import main


def run_expect_usage_error(capsys, argv, fragment):
    """Invoke the CLI expecting exit status 2 and ``fragment`` on stderr."""
    code = main(argv)
    assert code == 2
    assert fragment in capsys.readouterr().err


class TestUnknownTargets:
    def test_unknown_protocol(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "nonexistent"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_skeleton(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "nonexistent"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_backend_names_the_valid_ones(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "figure2", "--backend", "threads"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "sequential" in err and "processes" in err

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "figure2", "--threads", "2"])
        assert excinfo.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestBadWorkerCounts:
    def test_workers_zero(self, capsys):
        run_expect_usage_error(
            capsys,
            ["synth", "figure2", "--backend", "processes", "--workers", "0"],
            "--workers must be >= 1",
        )

    def test_workers_negative(self, capsys):
        run_expect_usage_error(
            capsys,
            ["synth", "figure2", "--backend", "processes", "--workers", "-2"],
            "--workers must be >= 1",
        )

    def test_replicas_zero_verify(self, capsys):
        run_expect_usage_error(
            capsys, ["verify", "msi", "--caches", "0"], ">= 1"
        )

    def test_replicas_zero_synth(self, capsys):
        run_expect_usage_error(
            capsys, ["synth", "msi-tiny", "--caches", "0"], ">= 1"
        )


class TestConflictingFlags:
    @pytest.mark.parametrize("argv", [
        ["verify", "moesi", "--por"],
        ["synth", "figure2", "--family"],
        ["synth", "figure2", "--no-family"],
        ["verify", "msi", "--no-packed"],
        ["synth", "msi-tiny", "--packed"],
        ["matrix", "--preset", "smoke", "--no-packed"],
        ["synth", "msi-tiny", "--refined"],
        ["synth", "mutex", "--explorer", "dfs"],
        ["verify", "vi", "--dfs"],
    ], ids=["por", "family", "no-family", "verify-no-packed",
            "synth-packed", "matrix-no-packed", "refined", "synth-explorer",
            "verify-dfs"])
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_matrix_preset_and_spec_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--preset", "smoke", "--spec", "x.json"])
        assert excinfo.value.code == 2


class TestMatrixErrors:
    def test_matrix_without_source(self, capsys):
        assert main(["matrix"]) == 2
        assert "--preset or --spec" in capsys.readouterr().err

    def test_matrix_missing_spec_file(self, capsys, tmp_path):
        assert main(["matrix", "--spec", str(tmp_path / "absent.json")]) == 2
        assert "cannot read spec" in capsys.readouterr().err


class TestMatrixRetiredPackedField:
    def test_matrix_spec_with_packed_cell_is_rejected(self, tmp_path, capsys):
        """Every cell runs on the packed kernel; a spec that still sets
        the retired ``packed`` field fails before any cell runs."""
        spec_path = tmp_path / "packed.json"
        spec_path.write_text(json.dumps({
            "name": "packed-field",
            "include": [{"target": "figure2", "packed": False}],
        }))
        assert main(["matrix", "--spec", str(spec_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "'packed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
