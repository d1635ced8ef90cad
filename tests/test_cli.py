"""Tests for the repro command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.days == 7
        assert args.seed == 0

    def test_every_subcommand_accepts_trace(self):
        parser = build_parser()
        for argv in (
            ["stats", "--trace"],
            ["moneyball", "--trace"],
            ["seagull", "--trace"],
            ["doppler", "--trace"],
            ["explain", "--trace"],
            ["algorithms", "bandit", "--trace"],
            ["trace", "--trace"],
        ):
            assert parser.parse_args(argv).trace is True


class TestCommands:
    def test_stats_prints_calibrated_fractions(self, capsys):
        assert main(["stats", "--days", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "recurring_fraction" in out
        assert "dependency_fraction" in out

    def test_explain_shows_logical_and_optimized(self, capsys):
        assert main(["explain", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "(logical):" in out
        assert "optimized:" in out
        assert "Scan [" in out

    def test_algorithms_search(self, capsys):
        assert main(["algorithms", "bandit"]) == 0
        out = capsys.readouterr().out
        assert "linucb" in out

    def test_algorithms_no_match(self, capsys):
        assert main(["algorithms", "zzzznothing"]) == 1

    def test_doppler_accuracy(self, capsys):
        assert main(["doppler", "--customers", "60"]) == 0
        out = capsys.readouterr().out
        assert "recommendation accuracy" in out

    def test_seagull(self, capsys):
        assert main(["seagull", "--servers", "12"]) == 0
        out = capsys.readouterr().out
        assert "heuristic accuracy" in out

    def test_moneyball(self, capsys):
        assert main(["moneyball", "--tenants", "20"]) == 0
        out = capsys.readouterr().out
        assert "predictable tenants" in out
        assert "moneyball" in out


class TestTraceFlag:
    """Every subcommand runs through the runtime, so --trace works uniformly."""

    def _run_traced(self, capsys, argv):
        assert main([*argv, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "== span tree ==" in out
        assert "== per-layer rollup ==" in out
        return out

    def test_stats_trace(self, capsys):
        out = self._run_traced(capsys, ["stats", "--days", "2"])
        assert "cli.stats" in out
        assert "workload.generate" in out

    def test_moneyball_trace(self, capsys):
        out = self._run_traced(capsys, ["moneyball", "--tenants", "12"])
        assert "cli.moneyball" in out
        assert "moneyball.report" in out

    def test_seagull_trace(self, capsys):
        out = self._run_traced(capsys, ["seagull", "--servers", "8"])
        assert "cli.seagull" in out
        assert "seagull.recommend" in out

    def test_doppler_trace(self, capsys):
        out = self._run_traced(capsys, ["doppler", "--customers", "40"])
        assert "cli.doppler" in out
        assert "doppler.observe" in out

    def test_explain_trace(self, capsys):
        out = self._run_traced(capsys, ["explain"])
        assert "cli.explain" in out
        assert "engine.optimizer.optimize" in out

    def test_algorithms_trace(self, capsys):
        out = self._run_traced(capsys, ["algorithms", "bandit"])
        assert "cli.algorithms" in out
        assert "algorithmstore.search" in out

    def test_untraced_commands_stay_quiet(self, capsys):
        assert main(["stats", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "== span tree ==" not in out


class TestFabricCommand:
    """The control plane behind one subcommand."""

    def test_list_shows_pipelines_without_running(self, capsys):
        assert main(["fabric", "--list"]) == 0
        out = capsys.readouterr().out
        for service in ("steering", "cloudviews", "seagull", "feedback"):
            assert service in out
        assert "stages" in out
        assert "fabric:" not in out  # did not run

    def test_short_run_reports_health(self, capsys):
        assert main(["fabric", "--days", "2", "--services", "moneyball,doppler"]) == 0
        out = capsys.readouterr().out
        assert "fabric: 2 days, 2 services" in out
        assert "moneyball.observe" in out
        assert "lifecycle:" in out

    def test_injected_fault_degrades_but_run_completes(self, capsys):
        assert main([
            "fabric", "--days", "2", "--services", "seagull,moneyball",
            "--inject-fault", "seagull:recommend:1:3",
        ]) == 0
        out = capsys.readouterr().out
        assert "fabric: 2 days" in out
        assert "injected faults fired: 3" in out

    def test_unknown_service_rejected(self, capsys):
        assert main(["fabric", "--days", "1", "--services", "teleport"]) == 1
        err = capsys.readouterr().err
        assert "repro fabric: error:" in err
        assert "unknown fleet services" in err

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "fab.ckpt")
        args = ["--days", "3", "--services", "moneyball,seagull,doppler"]

        def run(name: str, *extra: str) -> tuple[bytes, list[str]]:
            report = tmp_path / f"{name}.report"
            argv = ["fabric", *args, *extra, "--report-out", str(report)]
            assert main(argv) == 0
            # Peak RSS is a process-lifetime high-water mark, not a
            # property of the run: compare everything else.
            lines = [
                line
                for line in capsys.readouterr().out.splitlines()
                if not line.startswith("peak RSS:")
            ]
            return report.read_bytes(), lines

        straight = run("straight")
        interrupted = run(
            "interrupted", "--checkpoint", path, "--checkpoint-day", "1"
        )
        resumed = run("resumed", "--resume", path)
        assert interrupted == straight
        assert resumed == straight


class TestFailureExits:
    """Every subcommand fails loudly: exit 1 plus one stderr error line."""

    @pytest.mark.parametrize(
        ("argv", "needle"),
        [
            pytest.param(
                ["fabric", "--days", "1", "--services", "teleport"],
                "unknown fleet services",
                id="fabric-unknown-service",
            ),
            pytest.param(
                ["fabric", "--days", "3", "--resume", "no-such.ckpt"],
                "no-such.ckpt",
                id="fabric-missing-checkpoint",
            ),
            pytest.param(
                [
                    "fabric", "--days", "1", "--services", "doppler",
                    "--inject-fault", "doppler:teleport",
                ],
                "unknown stage",
                id="fabric-bad-fault-spec",
            ),
            pytest.param(
                ["serve", "--requests", "0"],
                "--requests must be >= 1",
                id="serve-zero-requests",
            ),
            pytest.param(
                ["serve", "--resume", "no-such.ckpt"],
                "no-such.ckpt",
                id="serve-missing-checkpoint",
            ),
        ],
    )
    def test_failure_exits_nonzero_with_one_line(self, capsys, argv, needle):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: error:")
        assert needle in err
        assert err.count("\n") == 1  # exactly one line, no traceback

    def test_resume_past_target_day_is_an_error(self, tmp_path, capsys):
        path = str(tmp_path / "fab.ckpt")
        assert main([
            "fabric", "--days", "2", "--services", "doppler",
            "--checkpoint", path,
        ]) == 0
        capsys.readouterr()
        assert main(["fabric", "--days", "1", "--resume", path]) == 1
        err = capsys.readouterr().err
        assert "repro fabric: error:" in err
        assert "nothing to run" in err

    def test_resume_of_a_finished_per_tick_chain_runs_nothing(self, tmp_path):
        # The last frame of a per-tick chain holds every day run, so
        # resuming it to the same target reproduces the report as is.
        store = tmp_path / "store"
        straight, resumed = tmp_path / "straight.json", tmp_path / "resumed.json"
        assert main([
            "fabric", "--days", "2", "--services", "doppler",
            "--store", str(store), "--report-out", str(straight),
        ]) == 0
        assert main([
            "fabric", "--days", "2", "--resume", str(store),
            "--report-out", str(resumed),
        ]) == 0
        assert resumed.read_bytes() == straight.read_bytes()


class TestTraceCommand:
    """The end-to-end traced scenario: workload -> engine -> service."""

    def test_renders_all_layers(self, capsys):
        assert main(["trace", "--jobs", "3"]) == 0
        out = capsys.readouterr().out
        assert "== span tree ==" in out
        for needle in (
            "cli.trace",
            "workload.generate",
            "infra.des.run",
            "engine.optimizer.optimize",
            "engine.executor.run",
            "steering.observe",
        ):
            assert needle in out, needle

    def test_rollup_covers_all_layers(self, capsys):
        assert main(["trace", "--jobs", "3"]) == 0
        rollup = capsys.readouterr().out.split("== per-layer rollup ==")[1]
        for layer in ("workload", "infra", "engine", "service"):
            assert layer in rollup, layer

    def test_reports_export_counts(self, capsys):
        assert main(["trace", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "metric points exported" in out

    def test_simulated_quantities_deterministic_given_seed(self, capsys):
        def sim_runtimes():
            return [
                line.split("sim_runtime=")[1]
                for line in capsys.readouterr().out.splitlines()
                if "sim_runtime=" in line
            ]

        assert main(["trace", "--jobs", "2", "--seed", "7"]) == 0
        first = sim_runtimes()
        assert main(["trace", "--jobs", "2", "--seed", "7"]) == 0
        # Simulated quantities are reproducible; wall times are not.
        assert first and first == sim_runtimes()
