"""Tests for the ``dscts`` command line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "C4", "--scale", "0.1"])
        assert args.command == "run"
        assert args.design == "C4"
        assert args.scale == pytest.approx(0.1)

    def test_dse_default_fanouts(self):
        args = build_parser().parse_args(["dse", "C4"])
        assert args.fanout == [20, 50, 100, 200, 400, 1000]

    def test_compare_multiple_designs(self):
        args = build_parser().parse_args(["compare", "C4", "C5"])
        assert args.designs == ["C4", "C5"]

    def test_scale_only_on_benchmark_commands(self):
        for command in (["run", "C4"], ["compare", "C4"], ["dse", "C4"]):
            args = build_parser().parse_args([*command, "--scale", "0.1"])
            assert args.scale == pytest.approx(0.1)
        # Serve requests carry their own scale; the flag would be ignored.
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["serve", "--stdio", "--scale", "0.05"])
        assert err.value.code == 2


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "jpeg" in out
        assert "swerv_wrapper" in out

    def test_run_small(self, capsys):
        assert main(["run", "C4", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "riscv32i" in out
        assert "latency" in out

    def test_dse_small(self, capsys):
        assert main(["dse", "C4", "--scale", "0.05", "--fanout", "0", "1000"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "C4", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "ours" in out
        assert "openroad_buffered_tree" in out


class TestEngineFlag:
    def test_engine_accepted_on_flow_commands(self):
        args = build_parser().parse_args(["run", "C4", "--engine", "reference"])
        assert args.engine == "reference"
        args = build_parser().parse_args(["dse", "C4", "--workers", "3"])
        assert args.workers == 3
        assert args.engine is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "C4", "--engine", "spice"])

    def test_run_with_reference_engine(self, capsys):
        import os

        # The CI matrix runs the suite with REPRO_TIMING_ENGINE pre-set; the
        # contract is restoration of the previous value, not absence.
        before = os.environ.get("REPRO_TIMING_ENGINE")
        assert main(["run", "C4", "--scale", "0.05", "--engine", "reference"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        # The engine choice is scoped to the command, not leaked process-wide.
        assert os.environ.get("REPRO_TIMING_ENGINE") == before

    def test_compare_engine_reaches_baselines(self, capsys, monkeypatch):
        """--engine must switch baseline flows too, via the process default."""
        import repro.timing.factory as factory

        created: list[str] = []
        original = factory.create_engine

        def spy(pdk, engine=None, **kwargs):
            result = original(pdk, engine, **kwargs)
            created.append(type(result).__name__)
            return result

        monkeypatch.setattr(factory, "create_engine", spy)
        for module in (
            "repro.baselines.timing_critical",
            "repro.evaluation.metrics",
            "repro.insertion.concurrent",
            "repro.refinement.skew_refinement",
        ):
            monkeypatch.setattr(f"{module}.create_engine", spy)
        assert main(["compare", "C4", "--scale", "0.05", "--engine", "reference"]) == 0
        assert len(created) >= 6  # inserter + refiner + evaluate per flow, etc.
        assert all(name == "ElmoreTimingEngine" for name in created)


class TestGuardFlag:
    def test_guard_accepted_on_flow_commands(self):
        args = build_parser().parse_args(["run", "C4", "--guard", "degrade"])
        assert args.guard == "degrade"
        args = build_parser().parse_args(["run", "C4"])
        assert args.guard is None

    def test_unknown_guard_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "C4", "--guard", "lenient"])

    def test_run_with_guard_degrade(self, capsys):
        import os

        before = os.environ.get("REPRO_GUARD")
        assert main(["run", "C4", "--scale", "0.05", "--guard", "degrade"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        # The guard choice is scoped to the command, not leaked process-wide.
        assert os.environ.get("REPRO_GUARD") == before

    def test_run_with_guard_strict(self, capsys):
        assert main(["run", "C4", "--scale", "0.05", "--guard", "strict"]) == 0


class TestErrorHandling:
    def test_unknown_design_is_one_line_error(self, capsys):
        assert main(["run", "no_such_design"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "no_such_design" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    def test_debug_reraises(self):
        with pytest.raises(KeyError):
            main(["run", "no_such_design", "--debug"])

    def test_bad_corner_spec_is_one_line_error(self, capsys):
        assert main(["run", "C4", "--scale", "0.05", "--corners", "bogus:x"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")

    def test_dse_zero_workers_is_one_line_error(self, capsys):
        # Same message as `run --workers 0`: a zero worker count must not
        # silently run the sweep serially.
        argv = ["dse", "C4", "--scale", "0.05", "--workers", "0", "--fanout", "20"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: workers must be an integer of at least 1, got 0\n"
        )
        assert captured.out == ""

    def test_usage_errors_keep_argparse_exit(self):
        # SystemExit from argparse passes through untouched (exit code 2).
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code == 2

    def test_preflight_combination_is_one_line_error(self, capsys):
        # Pre-flight errors used to raise SystemExit directly, bypassing the
        # one-line handler (and --debug); they must ride the typed path.
        assert main(["run", "C4", "--corner-aware-construction"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "--corners" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    def test_preflight_error_reraises_under_debug(self):
        from repro.cli import CliError

        with pytest.raises(CliError, match="--corner-aware-construction"):
            main(["run", "C4", "--corner-aware-construction", "--debug"])

    def test_negative_skew_budget_is_one_line_error(self, capsys):
        assert (
            main(
                [
                    "run", "C4", "--corners", "tt,ss",
                    "--corner-aware-construction", "--nominal-skew-budget", "-1",
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "non-negative" in captured.err

    def test_preflight_runs_before_the_design_load(self, capsys):
        # An invalid flag combination on an unknown design must report the
        # flag problem: argument validation happens before the design load.
        assert main(["run", "no_such_design", "--corner-aware-construction"]) == 1
        captured = capsys.readouterr()
        assert "--corners" in captured.err
        assert "no_such_design" not in captured.err
