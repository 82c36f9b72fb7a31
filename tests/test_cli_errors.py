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
    @pytest.mark.parametrize("argv", [
        ["verify", "moesi", "--por"],
        ["synth", "figure2", "--family"],
        ["synth", "figure2", "--no-family"],
        ["verify", "msi", "--no-packed"],
        ["synth", "msi-tiny", "--packed"],
        ["synth", "msi-tiny", "--refined"],
        ["synth", "mutex", "--explorer", "dfs"],
        ["verify", "vi", "--dfs"],
    ], ids=["por", "family", "no-family", "verify-no-packed",
            "synth-packed", "refined", "synth-explorer",
            "verify-dfs"])
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["synth", "figure2", "--trace"],
        ["verify", "mutex", "--trace"],
    ], ids=["synth", "verify"])
    def test_trace_requires_a_file(self, argv, capsys):
        """``--trace`` takes a FILE; there is no default trace location."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--trace: expected one argument" in capsys.readouterr().err

    def test_matrix_command_removed(self, capsys):
        """The experiment-matrix runner was removed; Table I comes from
        examples/table1.py and ``matrix`` is an unknown command."""
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--preset", "smoke"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'matrix'" in capsys.readouterr().err
