"""CLI error-path coverage: unknown targets, bad numeric flags, and
conflicting flag combinations all exit with status 2 and a message."""

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
    def test_dfs_contradicts_explicit_bfs(self, capsys):
        run_expect_usage_error(
            capsys,
            ["verify", "vi", "--dfs", "--explorer", "bfs"],
            "conflicting flags",
        )

    def test_dfs_with_matching_explorer_is_fine(self, capsys):
        assert main(["verify", "vi", "--dfs", "--explorer", "dfs"]) == 0

    def test_naive_contradicts_refined(self, capsys):
        run_expect_usage_error(
            capsys,
            ["synth", "figure2", "--naive", "--refined"],
            "conflicting flags",
        )

    @pytest.mark.parametrize("argv", [
        ["verify", "moesi", "--por"],
        ["synth", "figure2", "--family"],
        ["synth", "figure2", "--no-family"],
    ], ids=["por", "family", "no-family"])
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


class TestMatrixPackedOverride:
    def test_matrix_packed_override_keeps_cell_ids(self, tmp_path):
        """--packed/--no-packed apply post-expansion: ids stay as the spec
        derives them (no duplicate-id crash when the spec already has a
        nopacked cell), and every cell really runs in the forced mode."""
        from repro.experiments import MatrixSpec
        from repro.experiments.runner import MatrixRunner

        spec = MatrixSpec.from_dict({
            "name": "packed-override",
            "include": [
                {"target": "figure2"},
                {"target": "figure2", "packed": False},
            ],
        })
        for force in (True, False):
            runner = MatrixRunner(spec, tmp_path / str(force),
                                  force_packed=force)
            assert [cell.id for cell in runner.cells] == [
                "synth:figure2:r2:sequential",
                "synth:figure2:r2:sequential:nopacked",
            ]
            assert all(cell.packed is force for cell in runner.cells)
