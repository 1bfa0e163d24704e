"""Tests for the perf subsystem and the trace-level fast path."""

import json
import math
import time

import pytest

from repro import scenarios
from repro.analysis.runner import run_pulse_trial
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.crypto.signatures import clear_verify_cache, verify_cache_stats
from repro.perf import (
    BenchResult,
    PerfProbe,
    available_cases,
    campaign_throughput,
    compare,
    load_baseline,
    load_results,
    write_baseline,
)
from repro.perf.probe import ProbeReading, machine_calibration
from repro.sim.trace import Trace, TraceLevel


class TestPerfProbe:
    def test_captures_wall_time_and_events(self):
        probe = PerfProbe(calibrate=False)
        with probe:
            time.sleep(0.01)
            probe.add_events(500)
        reading = probe.reading()
        assert reading.wall_seconds >= 0.01
        assert reading.events == 500
        assert reading.events_per_sec == pytest.approx(
            500 / reading.wall_seconds
        )

    def test_accumulates_across_blocks(self):
        probe = PerfProbe(calibrate=False)
        for _ in range(3):
            with probe:
                probe.add_events(10)
        assert probe.events == 30
        assert probe.reading().events == 30

    def test_not_reentrant(self):
        probe = PerfProbe(calibrate=False)
        with probe:
            with pytest.raises(RuntimeError):
                probe.__enter__()

    def test_peak_rss_captured_on_posix(self):
        reading = PerfProbe(calibrate=False).reading()
        assert reading.peak_rss_kib > 0

    def test_calibration_is_positive_and_normalizes(self):
        assert machine_calibration(spins=10_000, repeats=1) > 0
        reading = ProbeReading(
            wall_seconds=1.0,
            events=100,
            events_per_sec=100.0,
            peak_rss_kib=1,
            calibration=50.0,
        )
        assert reading.normalized_throughput == pytest.approx(2.0)
        uncalibrated = ProbeReading(
            wall_seconds=1.0,
            events=100,
            events_per_sec=100.0,
            peak_rss_kib=1,
            calibration=0.0,
        )
        assert uncalibrated.normalized_throughput is None


def bench(name, events=1000, wall=2.0, calibration=100.0, **meta):
    return BenchResult(
        name=name,
        events=events,
        wall_seconds=wall,
        events_per_sec=events / wall,
        peak_rss_kib=4096,
        calibration=calibration,
        created="2026-01-01T00:00:00",
        meta=meta,
    )


class TestBenchResult:
    def test_json_round_trip(self):
        original = bench("alpha", trials=12)
        back = BenchResult.from_json_dict(
            json.loads(json.dumps(original.to_json_dict()))
        )
        assert back == original

    def test_write_and_load_file(self, tmp_path):
        result = bench("alpha")
        path = result.write(str(tmp_path))
        assert path.endswith("BENCH_alpha.json")
        assert BenchResult.load(path) == result

    def test_load_results_scans_directory(self, tmp_path):
        bench("alpha").write(str(tmp_path))
        bench("beta").write(str(tmp_path))
        (tmp_path / "unrelated.json").write_text("{}")
        results = load_results(str(tmp_path))
        assert sorted(results) == ["alpha", "beta"]
        assert load_results(str(tmp_path / "missing")) == {}

    def test_normalized_throughput(self):
        assert bench("a").normalized_throughput == pytest.approx(5.0)
        assert bench("a", calibration=0.0).normalized_throughput is None


class TestCompare:
    def test_improvement_within_tolerance_regression(self):
        baseline = {
            "up": bench("up"),
            "flat": bench("flat"),
            "down": bench("down"),
        }
        current = {
            "up": bench("up", events=2000),  # 2.0x
            "flat": bench("flat", events=800),  # 0.8x, within 0.35
            "down": bench("down", events=500),  # 0.5x, regression
        }
        comparison = compare(baseline, current, tolerance=0.35)
        by_name = {v.name: v for v in comparison.verdicts}
        assert by_name["up"].status == "improvement"
        assert by_name["flat"].status == "within-tolerance"
        assert by_name["down"].status == "regression"
        assert by_name["down"].ratio == pytest.approx(0.5)
        assert not comparison.ok
        assert "FAIL" in comparison.summary()

    def test_all_good_passes(self):
        baseline = {"a": bench("a")}
        current = {"a": bench("a", events=990)}  # 1% drop
        comparison = compare(baseline, current, tolerance=0.35)
        assert comparison.ok
        assert "PASS" in comparison.summary()

    def test_missing_case_fails_new_case_passes(self):
        comparison = compare(
            {"gone": bench("gone")}, {"fresh": bench("fresh")}
        )
        by_name = {v.name: v for v in comparison.verdicts}
        assert by_name["gone"].status == "missing"
        assert by_name["fresh"].status == "new"
        assert not comparison.ok
        assert compare({}, {"fresh": bench("fresh")}).ok

    def test_normalization_cancels_machine_speed(self):
        # Same workload, but the "current" machine is 3x faster across
        # the board: raw throughput tripled AND calibration tripled.
        baseline = {"a": bench("a", events=1000, calibration=100.0)}
        current = {"a": bench("a", events=3000, calibration=300.0)}
        verdict = compare(baseline, current).verdicts[0]
        assert verdict.ratio == pytest.approx(1.0)
        assert verdict.ok

    def test_raw_fallback_without_calibration(self):
        baseline = {"a": bench("a", calibration=0.0)}
        current = {"a": bench("a", events=400, calibration=0.0)}
        verdict = compare(baseline, current, tolerance=0.35).verdicts[0]
        assert verdict.status == "regression"
        assert verdict.baseline_value == pytest.approx(500.0)

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            compare({}, {}, tolerance=1.5)


class TestBaselineFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "nested" / "baseline.json")
        write_baseline(
            path, {"a": bench("a")}, notes="why", meta={"host": "ci"}
        )
        baseline = load_baseline(path)
        assert baseline.cases["a"] == bench("a")
        assert baseline.notes == "why"
        assert baseline.meta == {"host": "ci"}
        assert baseline.created


class TestTraceLevels:
    def test_coerce(self):
        assert TraceLevel.coerce(True) is TraceLevel.FULL
        assert TraceLevel.coerce(False) is TraceLevel.NONE
        assert TraceLevel.coerce("pulses") is TraceLevel.PULSES
        assert TraceLevel.coerce(TraceLevel.FULL) is TraceLevel.FULL
        with pytest.raises(ValueError):
            TraceLevel.coerce("verbose")

    def test_levels_gate_record_kinds(self):
        pulses_only = Trace(level="pulses")
        pulses_only.send(
            time=0.0, src=0, dst=1, payload="m", delay=1.0, src_honest=True
        )
        pulses_only.delivery(time=1.0, src=0, dst=1, payload="m")
        pulses_only.timer(time=1.0, node=0, tag="t", local_time=1.0)
        pulses_only.protocol(time=1.0, node=0, kind="k", details=None)
        assert len(pulses_only) == 0
        pulses_only.pulse(time=1.0, node=0, index=1, local_time=1.0)
        assert len(pulses_only) == 1
        assert pulses_only.enabled

    def test_trace_level_none_matches_full_pulses(self):
        """The fast path is semantics-preserving: pulse times are
        byte-identical whether or not records are allocated."""
        params = derive_parameters(1.001, 1.0, 0.02, 6)
        faulty = list(range(6 - params.f, 6))

        def run(level):
            simulation = assemble_cps_simulation(
                params,
                faulty=faulty,
                behavior=scenarios.create("adversary", "mimic-split", params),
                seed=11,
                clock_style="extreme",
                trace=level,
            )
            outcome = run_pulse_trial(simulation, 12, warmup=3)
            assert outcome.result is not None, outcome.error
            return outcome.result

        full = run("full")
        none = run("none")
        pulses = run("pulses")
        assert none.pulses == full.pulses
        assert pulses.pulses == full.pulses
        assert none.events_processed == full.events_processed
        assert none.end_time == full.end_time
        assert len(none.trace) == 0
        assert len(full.trace) > len(pulses.trace) > 0


class TestVerifyCache:
    def test_hits_accumulate(self):
        from repro.crypto.pki import PublicKeyInfrastructure
        from repro.crypto.signatures import verify

        clear_verify_cache()
        signature = PublicKeyInfrastructure(2).key_pair(0).sign("m")
        assert verify(signature, 0, "m")
        assert verify(signature, 0, "m")
        assert not verify(signature, 1, "m")
        stats = verify_cache_stats()
        assert stats.hits >= 1
        clear_verify_cache()
        assert verify_cache_stats().hits == 0


class TestPerfCases:
    def test_registry_names(self):
        assert "e5-stress" in available_cases()
        assert "telemetry-overhead" in available_cases()

    def test_queue_churn_runs(self):
        from repro.perf import run_case

        result = run_case("queue-churn", scale="quick", repeats=1)
        assert result.events == 100_000
        assert result.events_per_sec > 0
        assert result.normalized_throughput is not None

    def test_meta_reports_verify_cache_stats(self):
        from repro.perf import run_case

        result = run_case("queue-churn", scale="quick", repeats=1)
        cache = result.meta["verify_cache"]
        assert set(cache) == {"hits", "misses", "hit_rate"}
        assert cache["hits"] >= 0 and cache["misses"] >= 0
        # The round trip through BENCH_*.json keeps the stats.
        restored = BenchResult.from_json_dict(result.to_json_dict())
        assert restored.meta["verify_cache"] == cache

    def test_each_measured_repeat_starts_cold(self):
        from repro.perf import run_case

        once = run_case("cps-full-trace", scale="quick", repeats=1)
        twice = run_case("cps-full-trace", scale="quick", repeats=2)
        cache = once.meta["verify_cache"]
        # The warmup run cannot prime the memo: real misses are timed.
        assert cache["misses"] > 0 and cache["hit_rate"] < 1.0
        assert twice.meta["verify_cache"] == {
            "hits": 2 * cache["hits"],
            "misses": 2 * cache["misses"],
            "hit_rate": cache["hit_rate"],
        }

    def test_telemetry_overhead_case_asserts_identity(self):
        from repro.perf import run_case

        result = run_case(
            "telemetry-overhead", scale="quick", repeats=1
        )
        meta = result.meta
        assert meta["bare_seconds"] > 0
        assert meta["instrumented_seconds"] > 0
        assert "overhead_fraction" in meta
        assert meta["dispatched"] == result.events // 2
        cache = meta["verify_cache"]
        assert cache["hits"] + cache["misses"] > 0


class TestCampaignThroughput:
    def test_aggregates_executed_trials(self):
        from repro.campaigns import execute_campaign
        from repro.campaigns.spec import (
            CampaignSpec,
            MeasurementSpec,
            ScenarioSpec,
        )

        spec = CampaignSpec(
            name="PERF-T",
            scenarios=(
                ScenarioSpec(
                    builder="cps-skew",
                    base={"d": 1.0, "seed": 3, "adversary": "silent"},
                    cases={"*": ({"n": 5, "u": 0.01, "theta": 1.001},)},
                ),
            ),
            measurements={"*": MeasurementSpec(pulses=4, warmup=1)},
        )
        run = execute_campaign(spec, scale="quick")
        assert run.failed == 0
        summary = campaign_throughput(run)
        assert summary["measured"] == 1
        assert summary["unit"] == "events"
        assert summary["events"] > 0
        assert summary["events_per_sec"] > 0
        assert not math.isnan(summary["duration"])
        assert summary["cases"][0]["builder"] == "cps-skew"
