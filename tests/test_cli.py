"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("E1", "E4", "E7", "A1"):
            assert name in out


class TestRun:
    def test_runs_experiment(self, capsys):
        assert main(["run", "E2"]) == 0
        out = capsys.readouterr().out
        assert "Crusader broadcast" in out

    def test_writes_csv(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "e2.csv")
        assert main(["run", "E2", "--csv", path]) == 0
        assert os.path.exists(path)

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["run", "E99"])


class TestCampaign:
    def test_lists_campaign_catalog(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("E1", "E4", "E5", "E6"):
            assert name in out

    def test_show_describes_grid(self, capsys):
        assert main(["campaign", "show", "E4"]) == 0
        out = capsys.readouterr().out
        assert "cps-skew: 6 cases" in out
        assert "spec key" in out

    def test_run_prints_table_and_summary(self, capsys):
        assert main(["campaign", "run", "E1"]) == 0
        out = capsys.readouterr().out
        assert "APA convergence" in out
        assert "6 executed, 0 cached, 0 failed" in out

    def test_run_with_store_replays_from_cache(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        assert main(["campaign", "run", "E1", "--store", store]) == 0
        capsys.readouterr()
        assert (
            main(
                ["campaign", "run", "E1", "--store", store, "--resume"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 executed, 6 cached, 0 failed" in out

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "E1", "--resume"])

    def test_unknown_campaign(self):
        with pytest.raises(SystemExit, match="unknown campaign"):
            main(["campaign", "run", "E99"])


class TestParams:
    def test_prints_bounds(self, capsys):
        assert (
            main(
                [
                    "params",
                    "--theta", "1.001",
                    "--d", "1.0",
                    "--u", "0.01",
                    "--n", "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "S (skew bound)" in out
        assert "f=3" in out

    def test_explicit_f(self, capsys):
        assert (
            main(
                [
                    "params",
                    "--theta", "1.001",
                    "--d", "1.0",
                    "--u", "0.01",
                    "--n", "8",
                    "--f", "2",
                ]
            )
            == 0
        )
        assert "f=2" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestErrorPaths:
    """Unknown names exit cleanly with did-you-mean hints (no
    tracebacks), and missing inputs produce actionable messages."""

    def test_unknown_experiment_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean 'E4'"):
            main(["run", "E44"])

    def test_unknown_campaign_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean 'STRESS'"):
            main(["campaign", "run", "STRES"])

    def test_unknown_campaign_show(self):
        with pytest.raises(SystemExit, match="unknown campaign"):
            main(["campaign", "show", "E99"])

    def test_unknown_perf_case_suggests_close_match(self):
        with pytest.raises(
            SystemExit, match="did you mean 'queue-churn'"
        ):
            main(["perf", "run", "--case", "queue-churns", "--quick"])

    def test_perf_compare_missing_baseline(self, tmp_path):
        missing = os.path.join(tmp_path, "nope.json")
        with pytest.raises(SystemExit, match="baseline file not found"):
            main(["perf", "compare", "--baseline", missing])

    def test_unknown_scenario_show_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean"):
            main(["scenarios", "show", "eclips"])

    def test_check_run_unknown_scenario_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "run", "no-such-scenario-at-all"])
        assert excinfo.value.code != 0


class TestChurnErrorPaths:
    """Unknown churn profiles and malformed fault schedules exit
    cleanly and non-zero — never with a traceback."""

    def test_unknown_churn_profile_did_you_mean(self):
        with pytest.raises(
            SystemExit, match="did you mean 'single-crash'"
        ) as excinfo:
            main(["check", "run", "single-crsh", "--kind", "churn"])
        assert excinfo.value.code != 0

    def test_scenarios_show_unknown_churn_profile(self):
        with pytest.raises(
            SystemExit, match="did you mean 'flapping-node'"
        ) as excinfo:
            main(["scenarios", "show", "churn:flapping-nod"])
        assert excinfo.value.code != 0

    def test_malformed_schedule_is_tabulated_not_raised(self, capsys):
        # A factory override producing an invalid schedule fails the
        # conformance run (exit 1) with the validation error in the
        # report — no traceback.
        code = main(
            [
                "check", "run", "single-crash", "--kind", "churn",
                "--param", "node=99",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "MalformedScheduleError" in out
        assert "outside the system" in out

    def test_unknown_factory_param_is_tabulated(self, capsys):
        code = main(
            [
                "check", "run", "flapping-node", "--kind", "churn",
                "--param", "bogus=1",
            ]
        )
        assert code == 1
        assert "unexpected keyword" in capsys.readouterr().out

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit, match="key=value"):
            main(
                [
                    "check", "run", "single-crash", "--kind", "churn",
                    "--param", "nodeless",
                ]
            )

    def test_main_converts_malformed_schedule_errors(self, capsys):
        # A schedule error escaping a handler (here: forced through a
        # campaign whose case names an invalid churn override) becomes
        # a clean SystemExit via the main() wrapper.
        from repro.cli import main as cli_main
        from repro.dynamics import MalformedScheduleError

        def handler(_args):
            raise MalformedScheduleError("synthetic failure")

        import repro.cli as cli_module

        parser = cli_module.build_parser()
        args = parser.parse_args(["check", "list"])
        args.handler = handler
        import unittest.mock as mock

        with mock.patch.object(
            cli_module, "build_parser"
        ) as fake_parser:
            fake_parser.return_value.parse_args.return_value = args
            with pytest.raises(
                SystemExit, match="malformed fault schedule"
            ) as excinfo:
                cli_main(["check", "list"])
        assert excinfo.value.code != 0


class TestChurnCli:
    def test_scenarios_list_includes_churn_kind(self, capsys):
        assert main(["scenarios", "list", "--kind", "churn"]) == 0
        out = capsys.readouterr().out
        for key in ("single-crash", "late-join-cohort",
                    "adversary-handoff"):
            assert key in out

    def test_check_run_churn_profile_passes(self, capsys):
        assert main(["check", "run", "single-crash"]) == 0
        out = capsys.readouterr().out
        assert "stabilization" in out
        assert "[churn]" in out

    def test_check_fixture_churn_fires(self, capsys):
        assert main(["check", "fixture", "--fixture", "churn"]) == 0
        out = capsys.readouterr().out
        assert "never occurred" in out
        assert "monitors fire" in out

    def test_campaign_run_churn_stress(self, capsys):
        assert main(["campaign", "run", "CHURN-STRESS"]) == 0
        out = capsys.readouterr().out
        assert "fault schedules" in out
        assert "0 failed" in out


class TestTelemetryCli:
    def _sidecar(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        assert (
            main(
                [
                    "campaign", "run", "E4", "--telemetry",
                    "--store", store,
                ]
            )
            == 0
        )
        capsys.readouterr()
        return store

    def test_list_prints_catalog(self, capsys):
        assert main(["telemetry", "list"]) == 0
        out = capsys.readouterr().out
        assert "events.dispatched.delivery" in out
        assert "tcb.echoes" in out

    def test_campaign_run_writes_sidecar_and_shows_it(
        self, tmp_path, capsys
    ):
        store = self._sidecar(tmp_path, capsys)
        sidecars = [
            name
            for name in os.listdir(store)
            if name.endswith(".telemetry.json")
        ]
        assert len(sidecars) == 1
        assert (
            main(["telemetry", "show", "E4", "--store", store]) == 0
        )
        out = capsys.readouterr().out
        assert "6/6 trials instrumented" in out
        assert "pulses.recorded" in out
        # A direct path works without --store.
        path = os.path.join(store, sidecars[0])
        assert main(["telemetry", "show", path]) == 0

    def test_aggregate_and_diff(self, tmp_path, capsys):
        store = self._sidecar(tmp_path, capsys)
        out_path = os.path.join(tmp_path, "aggregate.json")
        assert (
            main(
                [
                    "telemetry", "aggregate", "--store", store,
                    "--out", out_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 sidecar(s)" in out
        assert os.path.exists(out_path)
        assert (
            main(
                [
                    "telemetry", "diff", "E4", "E4", "--store", store,
                    "--changed-only",
                ]
            )
            == 0
        )
        assert "no matching metrics" in capsys.readouterr().out

    def test_progress_heartbeats_go_to_stderr(self, capsys):
        assert main(["campaign", "run", "E4", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[E4/quick]" in captured.err
        assert "done:" in captured.err
        assert "[E4/quick]" not in captured.out

    def test_profile_prints_hotspots(self, capsys):
        assert (
            main(
                [
                    "campaign", "run", "E4", "--profile",
                    "--profile-top", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tottime" in out
        assert "scheduler" in out

    def test_perf_run_prints_verify_cache_rate(self, tmp_path, capsys):
        assert (
            main(
                [
                    "perf", "run", "--quick", "--case", "queue-churn",
                    "--repeats", "1", "--out", str(tmp_path),
                ]
            )
            == 0
        )
        assert "verify-cache" in capsys.readouterr().out

    def test_unknown_campaign_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown campaign") as info:
            main(
                [
                    "telemetry", "show", "E44",
                    "--store", str(tmp_path),
                ]
            )
        assert info.value.code != 0

    def test_unknown_metric_did_you_mean(self, tmp_path, capsys):
        store = self._sidecar(tmp_path, capsys)
        with pytest.raises(
            SystemExit, match="did you mean 'tcb.echoes'"
        ) as info:
            main(
                [
                    "telemetry", "show", "E4", "--store", store,
                    "--metric", "tcb.echos",
                ]
            )
        assert info.value.code != 0

    def test_missing_sidecar_suggests_the_run_command(self, tmp_path):
        with pytest.raises(
            SystemExit, match="no telemetry sidecar"
        ) as info:
            main(
                [
                    "telemetry", "show", "E4",
                    "--store", str(tmp_path),
                ]
            )
        assert info.value.code != 0

    def test_show_requires_store_or_path(self):
        with pytest.raises(SystemExit, match="--store is required"):
            main(["telemetry", "show", "E4"])


class TestScalingCli:
    def test_queue_requires_store(self):
        with pytest.raises(SystemExit, match="--queue requires"):
            main(["campaign", "run", "E1", "--queue", "/tmp/q"])

    def test_queue_rejects_fresh(self, tmp_path):
        store = os.path.join(tmp_path, "store")
        queue = os.path.join(tmp_path, "q")
        args = ["campaign", "run", "E1", "--queue", queue]
        with pytest.raises(SystemExit, match="incompatible"):
            main(args + ["--store", store, "--fresh"])

    def test_adaptive_requires_ci_width(self):
        with pytest.raises(SystemExit, match="requires --ci-width"):
            main(["campaign", "run", "E1", "--adaptive"])

    def test_ci_width_requires_adaptive(self):
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["campaign", "run", "E1", "--ci-width", "0.1"])

    def test_workers_zero_is_rejected(self):
        with pytest.raises(SystemExit, match="workers must be >= 1"):
            main(["campaign", "run", "E1", "--workers", "0"])

    def test_worker_without_enqueue_exits(self, tmp_path):
        store = os.path.join(tmp_path, "store")
        queue = os.path.join(tmp_path, "q")
        args = ["campaign", "worker", "--queue", queue]
        with pytest.raises(SystemExit, match="no campaign enqueued"):
            main(args + ["--store", store])

    def test_store_list_empty_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no result stores"):
            main(["store", "list", "--store", str(tmp_path)])

    def test_enqueue_worker_merge_round_trip(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        queue = os.path.join(tmp_path, "q")
        enqueue = ["campaign", "enqueue", "E1", "--queue", queue]
        assert main(enqueue + ["--chunk-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "enqueued campaign E1 [quick]: 6/6 trials" in out
        assert "3 chunks" in out
        worker = ["campaign", "worker", "--queue", queue]
        worker += ["--store", store, "--worker-id", "w1"]
        assert main(worker) == 0
        out = capsys.readouterr().out
        assert "worker w1: 3 chunks — 6 trials executed" in out
        assert main(["store", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "6 record(s) (1 shard(s): w1)" in out
        assert main(["store", "merge", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "merged 1 shard(s)" in out
        assert "6 record(s), 0 superseded" in out
        # The merged store replays as a pure cache hit.
        rerun = ["campaign", "run", "E1", "--store", store]
        assert main(rerun + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 6 cached" in out

    def test_enqueue_with_store_skips_cached(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        queue = os.path.join(tmp_path, "q")
        assert main(["campaign", "run", "E1", "--store", store]) == 0
        capsys.readouterr()
        enqueue = ["campaign", "enqueue", "E1", "--queue", queue]
        assert main(enqueue + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert "0/6 trials in 0 chunks" in out

    def test_reenqueue_same_queue_exits(self, tmp_path, capsys):
        queue = os.path.join(tmp_path, "q")
        enqueue = ["campaign", "enqueue", "E1", "--queue", queue]
        assert main(enqueue) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="already has a campaign"):
            main(enqueue)

    def test_store_compact_reports_counts(self, tmp_path, capsys):
        store = os.path.join(tmp_path, "store")
        assert main(["campaign", "run", "E1", "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "compact", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "compacted — 6 record(s) kept, 0 line(s) dropped" in out

    def test_adaptive_run_prints_savings(self, tmp_path, capsys):
        args = ["campaign", "run", "STRESS", "--adaptive"]
        args += ["--ci-width", "1000"]
        args += ["--min-trials", "2", "--max-trials", "4"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "adaptive[max_skew]: 12 trials over 6 cells" in out
        assert "saved 12 vs fixed 4x replication" in out
        assert "6 converged, 0 at cap" in out
        assert "adaptive target: max_skew CI width <= 1000" in out


#: Every parsed key and default of the two commands that execute
#: campaigns.  They share one set of execution flags; ``ablate run``
#: keeps its higher replication cap and has no queue flags.
EXECUTION_DEFAULTS = {
    "adaptive": False,
    "chunk_size": 4,
    "ci_confidence": 0.95,
    "ci_metric": "max_skew",
    "ci_width": None,
    "fresh": False,
    "max_trials": 8,
    "min_trials": 3,
    "progress": False,
    "store": None,
    "timeout": None,
    "workers": 1,
}


class TestExecutionFlags:
    def _parsed(self, argv):
        parsed = vars(build_parser().parse_args(argv))
        return parsed.pop("handler").__name__, parsed

    def test_campaign_run_keys_and_defaults(self):
        handler, parsed = self._parsed(["campaign", "run", "E4"])
        assert handler == "_command_campaign_run"
        assert parsed == {
            **EXECUTION_DEFAULTS,
            "backend": None,
            "campaign": "E4",
            "campaign_command": "run",
            "check": False,
            "command": "campaign",
            "csv": None,
            "lease_ttl": 60.0,
            "perf": False,
            "profile": False,
            "profile_top": 15,
            "queue": None,
            "resume": False,
            "scale": "quick",
            "telemetry": False,
            "worker_id": None,
        }

    def test_ablate_run_keys_and_defaults(self):
        handler, parsed = self._parsed(["ablate", "run"])
        assert handler == "_command_ablate_run"
        assert parsed == {
            **EXECUTION_DEFAULTS,
            "ablate_command": "run",
            "check": False,
            "command": "ablate",
            "component": None,
            "max_trials": 12,
            "out": "results/ablation.json",
            "pairwise": False,
            "seed": 53,
            "tier": "quick",
        }

    def test_ablate_run_checks_adaptive_pairing(self):
        with pytest.raises(SystemExit, match="requires --ci-width"):
            main(["ablate", "run", "--adaptive"])
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["ablate", "run", "--ci-width", "0.1"])
