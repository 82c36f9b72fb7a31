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

    def test_threads_zero(self, capsys):
        run_expect_usage_error(
            capsys,
            ["synth", "figure2", "--threads", "0"],
            "--threads must be >= 1",
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

    def test_removed_por_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "moesi", "--por"])
        assert excinfo.value.code == 2

    def test_naive_contradicts_family(self, capsys):
        run_expect_usage_error(
            capsys,
            ["synth", "figure2", "--family", "--naive"],
            "conflicting flags",
        )

    def test_family_and_no_family_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "figure2", "--family", "--no-family"])
        assert excinfo.value.code == 2

    def test_family_auto_inactivates_under_exploration_limits(self, capsys):
        """Exploration limits stand the family scheduler down exactly
        like prefix reuse (a truncated quotient's verdict is unsound for
        the members), and a user who typed the flag gets a warning."""
        from unittest import mock

        from repro.core.engine import SynthesisConfig
        from repro.mc.kernel import ExplorationLimits

        limited = SynthesisConfig(
            family=True, limits=ExplorationLimits(max_states=10)
        )
        assert not limited.family_active
        assert SynthesisConfig(family=True).family_active

        # The synth command surfaces the fallback on stderr; no synth
        # flag sets kernel limits today, so patch the config the CLI
        # builds to carry one.
        with mock.patch(
            "repro.cli.SynthesisConfig",
            lambda **kwargs: SynthesisConfig(
                limits=ExplorationLimits(max_states=100_000), **kwargs
            ),
        ):
            assert main(["synth", "figure2", "--family"]) == 0
        captured = capsys.readouterr()
        assert "--family is inactive" in captured.err
        assert "family synthesis:" not in captured.out

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
