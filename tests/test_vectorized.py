"""The vectorized backend and the ``build_simulation`` facade.

The backbone is the differential oracle: the same registry-keyed case,
built twice through :func:`repro.build.build_simulation` — once on the
event engine, once on the round-batched numpy engine — must produce an
*identical* monitor verdict matrix, and (for deterministic delay
policies) pulse streams that agree to floating-point tolerance.
Random-delay scenarios are compared at the verdict level only: the two
engines deliver messages in different orders, so draw-order equality is
unattainable by construction (see ``repro.sim.vectorized.delays``).

The rest covers the facade contract (backend resolution, deprecation
shims, hash stability of ``MeasurementSpec.backend``), the unsupported-
scenario envelope, the delay-matrix fast paths against the scalar
policies they mirror, the class path against a forced block path and
the rounds that must still take the block path, and the CLI/perf
``--backend`` plumbing.
"""

import dataclasses
import hashlib
import json
import random
import warnings

import numpy as np
import pytest

from repro.build import (
    BACKENDS,
    BuiltSimulation,
    UnknownBackendError,
    build_simulation,
    resolve_backend,
)
from repro.campaigns.spec import MeasurementSpec, canonical_json
from repro.checks.conformance import (
    check_scenario,
    conformance_matrix,
    run_cps_conformance,
)
from repro.cli import main
from repro.core.cps import (
    CpsRoundSummary,
    assemble_cps_simulation,
    build_cps_simulation,
)
from repro.core.params import derive_parameters
from repro.perf.bench import load_results
from repro.perf.cases import run_case
from repro.scenarios import REGISTRY, create
from repro.sim.clocks import HardwareClock
from repro.sim.errors import (
    ClockError,
    ConfigurationError,
    ModelViolation,
    SimulationError,
)
from repro.sim.network import (
    DelayPolicy,
    NetworkConfig,
    PerLinkDelayPolicy,
    SkewingDelayPolicy,
)
from repro.sim.vectorized import (
    UnsupportedScenarioError,
    VectorizedSimulation,
    engine,
)
from repro.sim.vectorized.delays import delay_matrix, delay_rows
from repro.sync.crusader import BOT

BASE_CASE = {"n": 6, "theta": 1.001, "d": 1.0, "u": 0.02}

#: Deterministic-delay differential sample: every drift profile and
#: every closed-form deterministic delay policy appears at least once.
DETERMINISTIC_SCENARIOS = [
    {"delay": "maximum", "drift": "extreme"},
    {"delay": "minimum", "drift": "mixed"},
    {"delay": "skewing", "drift": "staggered"},
    {"delay": "eclipse", "drift": "random"},
    {"delay": "biased-partition", "drift": "extreme"},
    {"delay": "flicker-partition", "drift": "mixed"},
    {"delay": "constant-fraction", "drift": "random"},
]


#: Registry delay policies whose delays come as class rows
#: (``delay_rows``), so unobserved runs take the class path.
STRUCTURED = [
    "maximum", "minimum", "constant-fraction", "skewing", "eclipse",
    "biased-partition", "flicker-partition",
]

DRIFTS = ["random", "extreme", "mixed", "staggered"]


def _case(**keys):
    case = dict(BASE_CASE)
    case.setdefault("adversary", "silent")
    case.update(keys)
    return case


def _verdict_dicts(verdicts):
    return [v.as_dict() for v in verdicts]


def _run_both(case, pulses=6, seed=11):
    event = run_cps_conformance(case, pulses, seed, backend="event")
    vector = run_cps_conformance(
        case, pulses, seed, backend="vectorized"
    )
    return event, vector


class TestDifferentialOracle:
    @pytest.mark.parametrize(
        "scenario",
        DETERMINISTIC_SCENARIOS,
        ids=lambda s: f"{s['delay']}-{s['drift']}",
    )
    def test_verdicts_and_pulses_identical(self, scenario):
        case = _case(**scenario)
        (ev, ev_result), (vec, vec_result) = _run_both(case)
        assert _verdict_dicts(ev) == _verdict_dicts(vec)
        assert all(v.ok for v in ev)
        assert set(ev_result.pulses) == set(vec_result.pulses)
        for node, times in ev_result.pulses.items():
            assert vec_result.pulses[node] == pytest.approx(
                times, abs=1e-9
            )

    def test_random_delays_verdict_level_only(self):
        # Different (but both admissible) delay draws: the monitor
        # matrix must agree, pulse times need not.
        case = _case(delay="random", drift="random")
        (ev, _er), (vec, _vr) = _run_both(case)
        assert [(v.monitor, v.ok) for v in ev] == [
            (v.monitor, v.ok) for v in vec
        ]
        assert all(v.ok for v in vec)

    def test_quota_stop_semantics_match(self):
        # The event engine halts the instant the slowest node emits
        # its quota-filling pulse, so round P's broadcasts never
        # happen; tcb-consistency sees honest * (P - 1) evaluations.
        case = _case(delay="maximum", drift="extreme")
        pulses = 5
        (ev, _er), (vec, _vr) = _run_both(case, pulses=pulses)
        honest = BASE_CASE["n"] - derive_parameters(
            theta=1.001, u=0.02, d=1.0, n=6
        ).f
        for verdicts in (ev, vec):
            tcb = next(
                v for v in verdicts if v.monitor == "tcb-consistency"
            )
            assert tcb.checked == honest * (pulses - 1)

    def test_final_skew_matches(self):
        from repro.analysis import metrics

        case = _case(delay="skewing", drift="extreme")
        (_ev, ev_result), (_vec, vec_result) = _run_both(case)

        def honest_pulses(result):
            return {v: p for v, p in result.pulses.items() if p}

        assert metrics.max_skew(
            honest_pulses(vec_result)
        ) == pytest.approx(
            metrics.max_skew(honest_pulses(ev_result)), abs=1e-9
        )


class TestFacade:
    def test_backend_catalog(self):
        assert BACKENDS == ("event", "vectorized")
        assert resolve_backend(None) == "event"
        assert resolve_backend("vectorized") == "vectorized"

    def test_unknown_backend_did_you_mean(self):
        with pytest.raises(UnknownBackendError, match="vectorized"):
            resolve_backend("vectorised")

    def test_built_simulation_carries_backend(self):
        built = build_simulation(_case(), backend="vectorized")
        assert isinstance(built, BuiltSimulation)
        assert built.backend == "vectorized"
        assert isinstance(built.simulation, VectorizedSimulation)
        simulation, params, f, effective = built.legacy_tuple()
        assert simulation is built.simulation
        assert params is built.params
        assert f == built.f

    def test_event_default(self):
        built = build_simulation(_case())
        assert built.backend == "event"
        assert not isinstance(built.simulation, VectorizedSimulation)

    def test_identical_clocks_across_backends(self):
        # Both engines must see the same hardware clocks for the same
        # (case, seed) — the root of the differential guarantee.
        case = _case(drift="random")
        ev = build_simulation(case, backend="event", seed=5)
        vec = build_simulation(case, backend="vectorized", seed=5)
        for a, b in zip(ev.simulation.clocks, vec.simulation.clocks):
            for t in (0.0, 1.0, 7.5, 31.25):
                assert a.local_time(t) == pytest.approx(
                    b.local_time(t), abs=1e-12
                )


class TestUnsupportedScenarios:
    @pytest.mark.parametrize(
        "case",
        [
            _case(adversary="mimic-split"),
            _case(adversary="coordinated-offset"),
            {**_case(), "churn": "single-crash"},
        ],
        ids=["mimic-split", "coordinated-offset", "churn"],
    )
    def test_build_time_rejection(self, case):
        with pytest.raises(UnsupportedScenarioError):
            build_simulation(case, backend="vectorized")
        # The same case builds fine on the event engine.
        assert build_simulation(case, backend="event").simulation

    def test_non_cps_modes_tabulated_as_errors(self):
        report = check_scenario(
            "churn", "single-crash", backend="vectorized"
        )
        assert not report.ok
        assert "UnsupportedScenarioError" in report.error


class TestDelayMatrix:
    N = 6

    def _policies(self):
        for key in REGISTRY.keys("delay"):
            yield key, REGISTRY.create("delay", key, self.N)

    def test_shapes_with_partial_receiver_block(self):
        # Regression: sender-only masks (skewing) once broadcast to
        # (1, senders) instead of (receivers, senders).
        config = NetworkConfig(n=self.N, d=1.0, u=0.02)
        senders = list(range(self.N))
        receivers = senders[:3]
        send_real = np.linspace(0.0, 0.5, self.N)
        rng = np.random.default_rng(0)
        for key, policy in self._policies():
            matrix = delay_matrix(
                policy, config, senders, receivers, send_real, rng
            )
            assert matrix.shape == (3, self.N), key

    def test_fast_paths_match_scalar_policies(self):
        config = NetworkConfig(n=self.N, d=1.0, u=0.02)
        senders = list(range(self.N))
        # Send times span both phases of flicker-partition's period.
        send_real = np.linspace(0.0, 25.0, self.N)
        for key, policy in self._policies():
            if key == "random":
                continue
            matrix = delay_matrix(
                policy, config, senders, senders, send_real, None
            )
            for i in senders:
                for j in senders:
                    expected = policy.delay(
                        config, j, i, float(send_real[j]), None, True
                    )
                    assert matrix[i, j] == pytest.approx(
                        expected, abs=1e-12
                    ), key

    def test_class_rows_cover_the_structured_policies(self):
        config = NetworkConfig(n=self.N, d=1.0, u=0.02)
        nodes = list(range(self.N))
        send_real = np.linspace(0.0, 25.0, self.N)
        covered = {
            key
            for key, policy in self._policies()
            if delay_rows(policy, config, nodes, nodes, send_real)
            is not None
        }
        assert covered == set(STRUCTURED)
        per_link = PerLinkDelayPolicy({(0, 1): 0.99})
        assert delay_rows(per_link, config, nodes, nodes, send_real) is None


class TestDeprecationShims:
    def test_build_cps_simulation_warns_and_matches(self):
        params = derive_parameters(theta=1.001, u=0.02, d=1.0, n=4)
        with pytest.warns(DeprecationWarning, match="assemble"):
            deprecated = build_cps_simulation(params, seed=3)
        reference = assemble_cps_simulation(params, seed=3)
        old = deprecated.run(max_pulses=4)
        new = reference.run(max_pulses=4)
        assert old.pulses == new.pulses

    def test_build_registry_simulation_warns_and_matches(self):
        from repro.campaigns.builders import build_registry_simulation

        case = _case(delay="skewing", drift="mixed")
        with pytest.warns(DeprecationWarning, match="build_simulation"):
            sim, params, f, effective = build_registry_simulation(
                case, seed=9
            )
        built = build_simulation(case, seed=9)
        assert f == built.f
        assert params.S == built.params.S
        old = sim.run(max_pulses=4)
        new = built.simulation.run(max_pulses=4)
        assert old.pulses == new.pulses


class TestHashStability:
    def test_default_backend_omitted_from_spec_dict(self):
        # Pre-facade spec keys (and the committed result stores keyed
        # by them) must hash unchanged.
        assert "backend" not in MeasurementSpec().as_dict()
        spec = MeasurementSpec(backend="vectorized")
        assert spec.as_dict()["backend"] == "vectorized"
        assert canonical_json(MeasurementSpec()) == canonical_json(
            MeasurementSpec(backend="event")
        )
        assert canonical_json(spec) != canonical_json(
            MeasurementSpec()
        )

    def test_invalid_backend_rejected_at_construction(self):
        with pytest.raises(UnknownBackendError):
            MeasurementSpec(backend="vectorised")

    def test_matrix_payload_backend_key_only_when_non_default(self):
        event = conformance_matrix(kinds=("drift",))
        vector = conformance_matrix(
            kinds=("drift",), backend="vectorized"
        )
        assert "backend" not in event
        assert vector["backend"] == "vectorized"
        assert vector["pass"]
        # Both payloads stay JSON-serializable (the CLI writes them).
        json.dumps(event), json.dumps(vector)


class TestCliBackendFlag:
    def test_check_run_vectorized(self, capsys):
        assert (
            main(
                [
                    "check", "run", "maximum", "--kind", "delay",
                    "--backend", "vectorized",
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_backend_did_you_mean(self):
        with pytest.raises(SystemExit, match="did you mean"):
            main(
                [
                    "check", "run", "maximum", "--kind", "delay",
                    "--backend", "vectorised",
                ]
            )

    def test_check_matrix_refuses_default_out(self, capsys, tmp_path):
        import os

        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            main(
                [
                    "check", "matrix", "--backend", "vectorized",
                    "--kind", "drift",
                ]
            )
        except SystemExit:
            pass  # matrix verdict exit code is irrelevant here
        finally:
            os.chdir(cwd)
        out = capsys.readouterr().out
        assert "not overwriting" in out
        assert not (tmp_path / "results" / "conformance.json").exists()


class TestPerfBackendThreading:
    def test_override_rejected_for_unaware_case(self):
        with pytest.raises(ConfigurationError, match="e9-vectorized"):
            run_case("queue-churn", backend="vectorized")

    def test_e9_case_defaults_to_vectorized(self):
        result = run_case("e9-vectorized-1k", repeats=1)
        assert result.meta["backend"] == "vectorized"
        assert result.meta["n"] == 1000
        assert result.meta["max_skew"] <= result.meta["bound_S"] + 1e-9

    def test_e9_cases_count_honest_node_rounds(self, capsys, tmp_path):
        # Modeled events are kept in meta but never graded.
        assert main(
            [
                "perf", "run", "--quick", "--case", "e9-vectorized-1k",
                "--repeats", "1", "--out", str(tmp_path),
            ]
        ) == 0
        assert "node-rounds/s" in capsys.readouterr().out
        result = load_results(str(tmp_path))["e9-vectorized-1k"]
        params = derive_parameters(theta=1.001, u=0.01, d=1.0, n=1000)
        assert result.meta["unit"] == "node-rounds"
        assert result.events == (params.n - params.f) * result.meta["pulses"]
        assert result.meta["modeled_events"] > 100 * result.events


class TestE9ScaleCampaign:
    def test_registered_with_vectorized_measurements(self):
        from repro.analysis import experiments  # noqa: F401
        from repro.campaigns import campaign_definition

        spec = campaign_definition("E9-SCALE").spec()
        assert all(
            m.backend == "vectorized"
            for m in spec.measurements.values()
        )
        cases = spec.scenarios[0].grid_for("full")
        assert sorted(c["n"] for c in cases) == [100, 1000, 10000]

    def test_experiment_id_resolves(self):
        from repro.analysis.experiments import EXPERIMENTS

        assert "E9-SCALE" in EXPERIMENTS


#: Bit-identity pins: SHA-256 of the honest pulse streams, end_time and
#: events_processed (plus the observer stream for "checks"), recorded
#: with the per-row searchsorted / full-sort kernel the fused block
#: kernel replaced; the "segments/<delay>" pins were recorded on the
#: block path before class-structured rounds skipped it.  Any change
#: to an IEEE operation or its order moves a hash.
PINNED = {
    "random/maximum": "1257c178916b9cd6f3afd28ab0ba0120"
    "a24d214844442976586fe572f030f189",
    "random/random": "dee9d18e370356b36d49f1654571f4f6"
    "0abd0e40588233da2780c50a5f710304",
    "random/flicker-partition": "fe97925f926a11a698df26c2919cd980"
    "ecfabd55faf31d5a8a30002cac80e16e",
    "extreme/maximum": "e92bcfca47e8047197d09de038e0fb66"
    "7cbcafcabd9bfbe826d38eeef588183d",
    "extreme/random": "b8d531302390b8277d6802684e87a60e"
    "e178b07154be26c3af622d41a7a5764a",
    "extreme/flicker-partition": "5291a9af96dc17ff1fe8af84f897bf5f"
    "554e215010606ef01995616c7a759ab4",
    "mixed/maximum": "cdce08e5273a5a2eacb1aedaa2534ce5"
    "57e138c531f32aaa4a65d0e05f0e40e7",
    "mixed/random": "3e98a7db40a463c1652f0e49e1854115"
    "9da1bd8168609fcb765d9618051e5e62",
    "mixed/flicker-partition": "03f4371ec9b7a4c021b1582a29587a8e"
    "19dd691acdd85242e7f075efac14925f",
    "staggered/maximum": "268f2ca33d48a43da78e4be16c67a9f0"
    "2ba4009a9f53aa709c9bee6c52e4972a",
    "staggered/random": "8cb9554924495625646daf3624a7abc2"
    "62d34f560683eb27eaafad3aa3402351",
    "staggered/flicker-partition": "a242574e20ff4a27f14dfce49685b762"
    "f3f04292f848c6e5f7c7d550a8080062",
    "discard": "01ba99ca0accfb905dd70a283a61ba3c"
    "d2ab5e137c0c1cfb956d019a16699cc4",
    "segments": "2f94bb8e7bbd8dcb13e883218204c519"
    "cd5cda5081fc8b13599a10d8b1a1a54d",
    "segments/skewing": "a4d0ceb6d4e37b9b9e13b02c1b57db1a"
    "e91662dd80c191b4faa4af2c677d2a3c",
    "segments/eclipse": "2232a585ae18e23c6d280f85748146a2"
    "894143fc3001689177a6b9a39905153b",
    "until": "0cf7307a76822b18a87e788d94cd13a4"
    "45b05cf77d0ffd7a80c86879fd45c349",
    "checks": "80638768692e7853a33553f6bb3e642d"
    "8d2d7fa3ca347e39f53db5eecc19535e",
}

PIN_CASE = {
    "n": 301, "theta": 1.001, "d": 1.0, "u": 0.02, "adversary": "silent"
}


class _Recorder:
    """A ``checks=`` observer that keeps the stream it is fed."""

    def __init__(self):
        self.stream = []

    def on_pulse(self, time, node, index, local_time):
        self.stream.append(["pulse", time, node, index, local_time])

    def on_annotate(self, time, node, kind, details):
        if isinstance(details, CpsRoundSummary):
            details = [
                details.pulse_round, details.pulse_local,
                sorted(
                    (k, None if v is BOT else v)
                    for k, v in details.estimates.items()
                ),
                details.num_bot, list(details.interval),
                details.correction,
            ]
        self.stream.append([kind, time, node, details])


def _fingerprint(result, recorder=None):
    payload = {
        "pulses": {str(v): t for v, t in result.honest_pulses().items()},
        "end_time": result.end_time,
        "events": result.events_processed,
    }
    if recorder is not None:
        payload["annotations"] = recorder.stream
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pinned_build(**keys):
    return build_simulation(
        dict(PIN_CASE, **keys), backend="vectorized", seed=5
    )


def _segment_simulation(delay):
    """n = 301 on 0.03-long clock segments, so breakpoints fall among
    every row's arrival times."""
    params = _pinned_build(drift="mixed", delay="skewing").params
    rng = random.Random(9)
    clocks = [
        HardwareClock.random_drift(
            rng, params.theta, offset=rng.uniform(0.0, params.S),
            horizon=12.0, segment_length=0.03,
        )
        for _ in range(params.n)
    ]
    return VectorizedSimulation(
        params, clocks, faulty=range(params.n - params.f, params.n),
        delay_policy=create("delay", delay, params.n),
    )


class TestBitIdentity:
    @pytest.fixture(params=["one-row", "budget"], autouse=True)
    def blocks(self, request, monkeypatch):
        # One-row blocks exercise every block boundary; the default
        # byte budget runs n = 301 as a single block.
        if request.param == "one-row":
            monkeypatch.setattr(engine, "BLOCK_BYTES", 1)
            assert engine.block_rows(151) == 1
        else:
            assert engine.block_rows(151) >= 151

    @pytest.mark.parametrize(
        "delay", ["maximum", "random", "flicker-partition"]
    )
    @pytest.mark.parametrize(
        "drift", ["random", "extreme", "mixed", "staggered"]
    )
    def test_registry_grid(self, drift, delay):
        built = _pinned_build(drift=drift, delay=delay)
        result = built.simulation.run(max_pulses=4)
        assert _fingerprint(result) == PINNED[f"{drift}/{delay}"]

    def test_fewer_faulty_than_f_discards(self):
        params = _pinned_build(drift="mixed", delay="skewing").params
        simulation = VectorizedSimulation(
            params,
            create("drift", "mixed", params, 5),
            faulty=range(params.n - 100, params.n),
            delay_policy=create("delay", "skewing", params.n),
        )
        assert params.f > 100  # so the f - b discard is positive
        result = simulation.run(max_pulses=4)
        assert _fingerprint(result) == PINNED["discard"]

    def test_breakpoints_inside_arrival_windows(self):
        # Random delays take the block path, so blocks evaluate
        # entries on several segments.
        result = _segment_simulation("random").run(max_pulses=4)
        assert _fingerprint(result) == PINNED["segments"]

    @pytest.mark.parametrize("delay", ["skewing", "eclipse"])
    def test_breakpoints_inside_class_extremes(self, monkeypatch, delay):
        # Class-structured delays take the class path; receivers whose
        # earliest and latest arrivals lie on different clock segments
        # have their whole row evaluated (rows given as an index
        # array instead of a block slice).
        original = engine._VectorClock.local_times
        row_kinds = []

        def spy(table, rows, t, out):
            row_kinds.append(type(rows))
            return original(table, rows, t, out)

        monkeypatch.setattr(engine._VectorClock, "local_times", spy)
        result = _segment_simulation(delay).run(max_pulses=4)
        assert _fingerprint(result) == PINNED[f"segments/{delay}"]
        assert np.ndarray in row_kinds

    def test_until_cuts_mid_round(self):
        # Untraced: pulses are recorded without the time-ordered pass.
        built = build_simulation(
            dict(PIN_CASE, drift="random", delay="random"),
            backend="vectorized", seed=3, trace="none",
        )
        result = built.simulation.run(until=4.521)
        counts = {len(t) for t in result.honest_pulses().values()}
        assert counts == {2, 3}
        assert _fingerprint(result) == PINNED["until"]

    def test_observed_stream(self):
        recorder = _Recorder()
        built = build_simulation(
            dict(PIN_CASE, drift="mixed", delay="eclipse"),
            backend="vectorized", seed=5, checks=recorder,
        )
        result = built.simulation.run(max_pulses=4)
        assert _fingerprint(result, recorder) == PINNED["checks"]


def _force_blocks(monkeypatch):
    """Send every round down the (receivers × dealers) block path."""
    monkeypatch.setattr(engine, "delay_rows", lambda *args, **kw: None)


def _count_matrices(monkeypatch):
    """Count ``delay_matrix`` calls, i.e. block-path blocks."""
    calls = []
    original = engine.delay_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "delay_matrix", counting)
    return calls


def _outcome(simulation):
    """Pulses, events and end time, or the error text, of a run."""
    try:
        result = simulation.run(max_pulses=4)
    except SimulationError as error:
        return type(error).__name__, str(error)
    return result.pulses, result.events_processed, result.end_time


class TestClassPath:
    """Class rows and per-receiver extremes against the block path."""

    @pytest.mark.parametrize("n", [3, 7, 301])
    @pytest.mark.parametrize("drift", DRIFTS)
    @pytest.mark.parametrize("delay", STRUCTURED)
    def test_matches_forced_block_path(self, monkeypatch, delay, drift, n):
        def outcome():
            return _outcome(
                _pinned_build(n=n, drift=drift, delay=delay).simulation
            )

        blocks = _count_matrices(monkeypatch)
        fast = outcome()
        assert not blocks  # every round took the class path
        _force_blocks(monkeypatch)
        assert outcome() == fast
        assert blocks

    def test_large_unobserved_run_forms_no_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("delay_matrix called")

        monkeypatch.setattr(engine, "delay_matrix", refuse)
        built = _pinned_build(n=2000, drift="extreme", delay="maximum")
        result = built.simulation.run(max_pulses=4)
        assert {len(t) for t in result.honest_pulses().values()} == {4}

    def test_model_violation_text_matches(self, monkeypatch):
        def message():
            built = _pinned_build(
                n=7, drift="mixed", delay="constant-fraction"
            )
            built.simulation.delay_policy.fraction = 1.5
            with pytest.raises(ModelViolation) as error:
                built.simulation.run(max_pulses=4)
            return str(error.value)

        fast = message()
        assert "produced a delay outside" in fast
        _force_blocks(monkeypatch)
        assert message() == fast


class _Ordered(DelayPolicy):
    """A custom policy: fast from lower to higher node ids."""

    def delay(self, config, src, dst, send_time, payload, link_is_honest):
        low, high = config.delay_bounds(link_is_honest)
        return low if src < dst else high


def _shrunk_window():
    # A smaller d narrows the TCB window while the network keeps its
    # delays, so some arrivals miss their windows.
    simulation = _pinned_build(
        n=7, drift="mixed", delay="skewing"
    ).simulation
    simulation.params = dataclasses.replace(simulation.params, d=0.95)
    return simulation


def _custom_policy(policy):
    params = _pinned_build(n=7, drift="mixed").params
    return VectorizedSimulation(
        params, create("drift", "mixed", params, 5),
        faulty=range(params.n - params.f, params.n), delay_policy=policy,
    )


def _fewer_faulty():
    params = _pinned_build(n=7, drift="mixed").params
    return VectorizedSimulation(
        params, create("drift", "mixed", params, 5), faulty=[6],
        delay_policy=create("delay", "skewing", params.n),
    )


#: Runs the block path must keep serving, each built fresh per call.
BLOCK_PATH = {
    "random": lambda: _pinned_build(
        n=7, drift="mixed", delay="random"
    ).simulation,
    "per-link": lambda: _custom_policy(
        PerLinkDelayPolicy({(0, 1): 0.99}, SkewingDelayPolicy([2, 3]))
    ),
    "custom": lambda: _custom_policy(_Ordered()),
    "checks": lambda: build_simulation(
        dict(PIN_CASE, n=7, drift="mixed", delay="skewing"),
        backend="vectorized", seed=5, checks=_Recorder(),
    ).simulation,
    "full-trace": lambda: build_simulation(
        dict(PIN_CASE, n=7, drift="mixed", delay="skewing"),
        backend="vectorized", seed=5, trace="full",
    ).simulation,
    "discard": _fewer_faulty,
    "shrunk-window": _shrunk_window,
}


class TestPathSelection:
    @pytest.mark.parametrize("name", sorted(BLOCK_PATH))
    def test_block_path_still_runs(self, monkeypatch, name):
        blocks = _count_matrices(monkeypatch)
        chosen = _outcome(BLOCK_PATH[name]())
        assert blocks
        _force_blocks(monkeypatch)
        assert _outcome(BLOCK_PATH[name]()) == chosen

    def test_shrunk_window_mixes_paths(self, monkeypatch):
        # Only the rounds with an arrival outside its window fall back.
        blocks = _count_matrices(monkeypatch)
        _outcome(_shrunk_window())
        mixed = len(blocks)
        _force_blocks(monkeypatch)
        _outcome(_shrunk_window())
        assert 0 < mixed < len(blocks) - mixed


def _reference_vote(params, nh, h, start, pulse_local):
    """The mask / where / full-sort vote the fused kernel must equal."""
    rows = np.arange(len(h))
    diagonal = (rows, rows + start)
    base = pulse_local[:, None]
    accept = (h > base) & (h <= base + params.tcb_window + 1e-9)
    accept[diagonal] = False
    shift = params.d - params.u + params.S
    estimates = np.where(accept, h - base - shift, np.nan)
    estimates[diagonal] = 0.0
    counts = 1 + accept.sum(axis=1)
    discard = np.maximum(params.f - (params.n - counts), 0)
    ordered = np.sort(estimates, axis=1)
    latest = np.where(accept, h, -np.inf).max(axis=1)
    return (
        counts, ordered[rows, discard],
        ordered[rows, counts - 1 - discard], latest,
    )


class TestBlockKernel:
    @pytest.mark.parametrize("honest", [21, 30], ids=["no-discard",
                                                      "discard"])
    @pytest.mark.parametrize("outside", [0.0, 0.2], ids=["inside",
                                                         "outside"])
    @pytest.mark.parametrize("observing", [False, True])
    def test_matches_reference(self, honest, outside, observing):
        # n = 41 tolerates f = 20; 30 honest nodes leave 11 faulty, so
        # every receiver discards 9 estimates from each end.
        params = derive_parameters(theta=1.001, u=0.02, d=1.0, n=41)
        kernel = engine._BlockKernel(params, list(range(honest)), 8)
        rng = np.random.default_rng(honest)
        for start in (0, 8, honest - 5):
            size = min(8, honest - start)
            pulse_local = rng.uniform(2.0, 20.0, size)
            h = pulse_local[:, None] + rng.uniform(
                -outside, params.tcb_window + outside, (size, honest)
            )
            expected = _reference_vote(params, honest, h, start,
                                       pulse_local)
            vote = kernel.vote(h.copy(), start, pulse_local, observing)
            got = (vote.counts, vote.low, vote.high, vote.latest)
            for mine, theirs in zip(got, expected):
                assert mine.tolist() == theirs.tolist()


class TestClockTable:
    def _clocks(self):
        params = derive_parameters(theta=1.001, u=0.02, d=1.0, n=40)
        clocks = create("drift", "mixed", params, 2)
        clocks += create("drift", "random", params, 3)
        return clocks

    def test_inverse_and_forward_match_scalar_bit_for_bit(self):
        clocks = self._clocks()
        table = engine._VectorClock(clocks)
        rng = np.random.default_rng(4)
        local = rng.uniform(1.0, 150.0, len(clocks))
        assert list(table.real_times(local)) == [
            clock.real_time(value) for clock, value in zip(clocks, local)
        ]
        t = rng.uniform(0.0, 150.0, (len(clocks), 7))
        out = table.local_times(slice(0, len(clocks)), t, np.empty_like(t))
        assert out.tolist() == [
            [clock.local_time(x) for x in row]
            for clock, row in zip(clocks, t)
        ]

    def test_early_local_time_raises_scalar_error(self):
        clocks = [
            HardwareClock.constant_rate(1.0, offset=0.5),
            HardwareClock.from_rates([(2.0, 1.001)], offset=0.25),
        ]
        local = np.array([0.75, 0.125])
        with pytest.raises(ClockError) as scalar:
            clocks[1].real_time(local[1])
        with pytest.raises(ClockError) as batched:
            engine._VectorClock(clocks).real_times(local)
        assert str(batched.value) == str(scalar.value)

    def test_block_rows_budget(self):
        assert engine.block_rows(501) == 523  # n <= 1k: one block
        assert engine.block_rows(5001) == 52  # n = 10k
        assert engine.block_rows(10 ** 7) == 1
