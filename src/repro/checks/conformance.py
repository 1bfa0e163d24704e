"""Conformance runs: every registry scenario against the paper bounds.

The conformance engine turns the scenario registry into a test matrix:
each entry is dropped into a fixed reference configuration, executed at
a CI-friendly scale with streaming monitors attached, and judged
against the closed-form bounds of :mod:`repro.analysis.theory`.  Two
execution modes cover the catalog:

``cps``
    Pulse-synchronization scenarios (``cps``-tagged adversaries, every
    delay policy, drift profile, and topology).  The simulation is
    assembled by the same registry-keyed facade the STRESS campaign
    uses (:func:`repro.build.build_simulation`) with the Theorem 17 /
    Lemma 11 monitors attached through the scheduler's ``checks=``
    hook; ``backend=`` selects the event or vectorized engine, which is
    how the cross-backend differential suite reuses this machinery as
    its oracle.
``apa``
    Round-model adversaries (``apa``-tagged) run iterated approximate
    agreement and are judged by :class:`ApaContractionMonitor`
    (Theorem 9).
``churn``
    Fault-schedule profiles (registry kind ``churn``) run CPS under
    membership dynamics and are judged by
    :class:`StabilizationMonitor`: scheduled recoveries must occur,
    rejoiners must re-stabilize within a pulse budget, and survivors
    must stay live.  The static Theorem 17 monitors do not apply — a
    recovering node legitimately pulses outside the skew bound while it
    contracts.
``fuzz``
    Promoted fuzz fixtures (registry kind ``fuzz``, see
    :mod:`repro.fuzz`) replay their stored case and are judged against
    their recorded *expectation*: a shrunk counterexample passes while
    the monitors still fire on it, an interesting corner passes while
    the bounds still hold.  The fixture carries its own seed, so the
    sweep seed does not perturb the replay.

Everything here is deterministic given ``seed`` — verdict payloads
contain no wall-clock data — which is what makes persisted conformance
artifacts byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import theory
from repro.build import build_simulation
from repro.campaigns.spec import derive_seed
from repro.checks.monitors import (
    ApaContractionMonitor,
    CheckSet,
    MonitorVerdict,
    PeriodWindowMonitor,
    ProgressMonitor,
    SkewBoundMonitor,
    StabilizationMonitor,
    TcbConsistencyMonitor,
)
from repro.core.params import ProtocolParameters, max_faults
from repro.scenarios import REGISTRY
from repro.sync.approx_agreement import run_apa

#: Promoted fuzz fixtures are judged by a single expectation check: a
#: counterexample fixture must still make the monitors fire, an
#: interesting corner must still pass (see :mod:`repro.fuzz`).
FUZZ_EXPECTATION_MONITOR = "fuzz-expectation"
FUZZ_EXPECTATION_CLAIM = (
    "Fuzz: a promoted fixture reproduces its recorded expectation"
)

#: Monitor catalog in display order: name -> claim (matrix columns).
MONITOR_CATALOG: Dict[str, str] = {
    SkewBoundMonitor.name: SkewBoundMonitor.claim,
    PeriodWindowMonitor.name: PeriodWindowMonitor.claim,
    ProgressMonitor.name: ProgressMonitor.claim,
    TcbConsistencyMonitor.name: TcbConsistencyMonitor.claim,
    ApaContractionMonitor.name: ApaContractionMonitor.claim,
    StabilizationMonitor.name: StabilizationMonitor.claim,
    FUZZ_EXPECTATION_MONITOR: FUZZ_EXPECTATION_CLAIM,
}

#: Monitors applicable to each execution mode.
CPS_MONITORS: Tuple[str, ...] = (
    SkewBoundMonitor.name,
    PeriodWindowMonitor.name,
    ProgressMonitor.name,
    TcbConsistencyMonitor.name,
)
APA_MONITORS: Tuple[str, ...] = (ApaContractionMonitor.name,)
CHURN_MONITORS: Tuple[str, ...] = (StabilizationMonitor.name,)
FUZZ_MONITORS: Tuple[str, ...] = (FUZZ_EXPECTATION_MONITOR,)

#: Monitors per execution mode (used by the matrix renderer too).
MODE_MONITORS: Dict[str, Tuple[str, ...]] = {
    "cps": CPS_MONITORS,
    "apa": APA_MONITORS,
    "churn": CHURN_MONITORS,
    "fuzz": FUZZ_MONITORS,
}

#: The reference configuration conformance runs drop scenarios into —
#: the STRESS campaign's base system in the typical regime.
CPS_BASE_CASE: Dict[str, Any] = {
    "n": 6,
    "theta": 1.001,
    "d": 1.0,
    "u": 0.02,
    "adversary": "silent",
    "delay": "maximum",
    "drift": "extreme",
}

#: Topology rows need a sparse-graph-friendly size (matches STRESS).
TOPOLOGY_N = 8

#: Pulses measured per scale (quick keeps the full matrix CI-friendly).
PULSES_BY_SCALE: Dict[str, int] = {"quick": 8, "full": 20}

#: Churn scenarios run longer: a rejoiner must catch up to the quota
#: after losing pulses to its outage, and every scheduled event has to
#: fire before the run ends.
CHURN_PULSES_BY_SCALE: Dict[str, int] = {"quick": 14, "full": 28}

#: Stabilization-monitor tolerances: a rejoiner may spend this many
#: pulses contracting (the listen-then-join estimate is O(S), so a few
#: Lemma 16 halvings suffice — the budget leaves headroom for adverse
#: delay/drift draws), and a finally-active node must have pulsed
#: within this many maximum periods of the run's end.
RESYNC_PULSE_BUDGET = 6
TAIL_WINDOW_PERIODS = 2.0

#: APA reference run (mirrors the E1 campaign's n=9 row).
APA_N = 9
APA_INITIAL_RANGE = 64.0
APA_TARGET = 1.0


def cps_check_set(
    params: ProtocolParameters,
    honest: Sequence[int],
    expected_pulses: int,
) -> CheckSet:
    """The Theorem 17 / Lemma 11 monitors for one CPS deployment."""
    honest = list(honest)
    return CheckSet(
        [
            SkewBoundMonitor(theory.cps_skew_bound(params), len(honest)),
            PeriodWindowMonitor(
                theory.cps_min_period_bound(params),
                theory.cps_max_period_bound(params),
                len(honest),
            ),
            ProgressMonitor(honest, expected_pulses),
            TcbConsistencyMonitor(
                theory.tcb_consistency_bound(params), len(honest)
            ),
        ]
    )


@dataclass(frozen=True)
class ScenarioReport:
    """Conformance verdicts of one scenario in one mode."""

    kind: str
    key: str
    mode: str
    seed: int
    verdicts: Tuple[MonitorVerdict, ...]
    error: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.kind}:{self.key}"

    @property
    def ok(self) -> bool:
        return self.error is None and all(v.ok for v in self.verdicts)

    def verdict_for(self, monitor: str) -> Optional[MonitorVerdict]:
        for verdict in self.verdicts:
            if verdict.monitor == monitor:
                return verdict
        return None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "mode": self.mode,
            "seed": self.seed,
            "ok": self.ok,
            "error": self.error,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def scenario_mode(kind: str, key: str) -> str:
    """``"cps"``, ``"apa"``, ``"churn"``, or ``"fuzz"`` — how a
    registry entry is conformance-run."""
    entry = REGISTRY.get(kind, key)
    if entry.kind == "adversary" and "apa" in entry.tags:
        return "apa"
    if entry.kind == "churn":
        return "churn"
    if entry.kind == "fuzz":
        return "fuzz"
    return "cps"


def applicable_monitors(kind: str, key: str) -> Tuple[str, ...]:
    """Monitor names that apply to ``(kind, key)``."""
    return MODE_MONITORS[scenario_mode(kind, key)]


def scenario_case(
    kind: str,
    key: str,
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The reference case dict with ``(kind, key)`` plugged in.

    ``overrides`` become the entry's factory keyword arguments (the
    ``<kind>_params`` case key) — the CLI's ``--param`` plumbing.
    """
    case = dict(CPS_BASE_CASE)
    if kind == "topology":
        case["n"] = TOPOLOGY_N
    case[kind] = key
    if overrides:
        case[f"{kind}_params"] = dict(overrides)
    return case


def conformance_seed(seed: int, kind: str, key: str) -> int:
    """Deterministic per-scenario seed (independent of sweep order)."""
    return derive_seed(seed, "conformance", {"kind": kind, "key": key})


def run_cps_conformance(
    case: Dict[str, Any],
    pulses: int,
    seed: int,
    trace: Any = "pulses",
    backend: str = "event",
) -> Tuple[List[MonitorVerdict], Any]:
    """Run one registry-keyed CPS case with monitors attached.

    Returns ``(verdicts, simulation_result)``; the result is surfaced
    so differential tests can compare pulse streams across trace
    levels and across backends (the vectorized engine must produce a
    verdict-identical monitor matrix).
    """
    built = build_simulation(case, backend=backend, seed=seed, trace=trace)
    simulation, params = built.simulation, built.params
    checks = cps_check_set(params, simulation.honest, pulses)
    simulation.attach_checks(checks)
    result = simulation.run(max_pulses=pulses)
    return checks.finish(), result


def churn_check_set(
    schedule: Any, params: ProtocolParameters
) -> CheckSet:
    """The stabilization monitor for one churn deployment."""
    return CheckSet(
        [
            StabilizationMonitor(
                schedule,
                params.n,
                envelope=params.S,
                resync_budget=RESYNC_PULSE_BUDGET,
                tail_window=TAIL_WINDOW_PERIODS * params.p_max_bound,
            )
        ]
    )


def run_churn_conformance(
    case: Dict[str, Any],
    pulses: int,
    seed: int,
    trace: Any = "pulses",
) -> Tuple[List[MonitorVerdict], Any]:
    """Run one churn-keyed CPS case with the stabilization monitor.

    Returns ``(verdicts, simulation_result)`` like
    :func:`run_cps_conformance`.
    """
    built = build_simulation(case, seed=seed, trace=trace)
    simulation, params = built.simulation, built.params
    checks = churn_check_set(simulation.dynamics.schedule, params)
    simulation.attach_checks(checks)
    result = simulation.run(max_pulses=pulses)
    return checks.finish(), result


def run_apa_conformance(
    key: str,
    seed: int,
    overrides: Optional[Dict[str, Any]] = None,
) -> Tuple[List[MonitorVerdict], Any]:
    """Run iterated APA under one registry adversary with the Theorem 9
    monitor."""
    n = APA_N
    f = max_faults(n)
    faulty = list(range(n - f, n))
    iterations = math.ceil(math.log2(APA_INITIAL_RANGE / APA_TARGET))
    adversary = REGISTRY.create("adversary", key, None, **(overrides or {}))
    honest = [v for v in range(n) if v not in faulty]
    inputs = {
        v: APA_INITIAL_RANGE * index / max(len(honest) - 1, 1)
        for index, v in enumerate(honest)
    }
    outcome = run_apa(
        inputs, n, f, faulty, adversary, iterations=iterations, seed=seed
    )
    monitor = ApaContractionMonitor()
    monitor.observe_ranges(outcome.ranges())
    return [monitor.finish()], outcome


def check_scenario(
    kind: str,
    key: str,
    scale: str = "quick",
    seed: int = 0,
    trace: Any = "pulses",
    overrides: Optional[Dict[str, Any]] = None,
    backend: str = "event",
) -> ScenarioReport:
    """Conformance-run one registry scenario and report per-monitor
    verdicts.

    ``seed`` is the *sweep* seed; the scenario's own seed is derived
    from it deterministically.  ``overrides`` are forwarded to the
    scenario factory (the CLI's ``--param``).  Execution errors are
    tabulated (an errored scenario fails conformance but never aborts
    a matrix sweep).  ``backend`` selects the engine for ``cps``-mode
    scenarios; the other modes are event-only, so a non-default
    backend tabulates them as errors rather than silently falling
    back.
    """
    scenario_seed = conformance_seed(seed, kind, key)
    mode = "cps"
    try:
        mode = scenario_mode(kind, key)
        if mode != "cps" and backend != "event":
            from repro.sim.vectorized import UnsupportedScenarioError

            raise UnsupportedScenarioError(
                f"backend {backend!r} does not support mode {mode!r} "
                f"scenarios; use backend='event'"
            )
        if mode == "apa":
            verdicts, _outcome = run_apa_conformance(
                key, scenario_seed, overrides
            )
        elif mode == "fuzz":
            # Lazy import: repro.fuzz builds on this module.
            from repro.fuzz.oracle import (
                expectation_verdict,
                replay_fixture,
            )

            payload = REGISTRY.create("fuzz", key, None)
            run = replay_fixture(payload, trace=trace)
            verdicts = [expectation_verdict(payload, run)]
        elif mode == "churn":
            pulses = CHURN_PULSES_BY_SCALE.get(
                scale, CHURN_PULSES_BY_SCALE["quick"]
            )
            case = scenario_case(kind, key, overrides)
            verdicts, _result = run_churn_conformance(
                case, pulses, scenario_seed, trace=trace
            )
        else:
            pulses = PULSES_BY_SCALE.get(scale, PULSES_BY_SCALE["quick"])
            case = scenario_case(kind, key, overrides)
            verdicts, _result = run_cps_conformance(
                case, pulses, scenario_seed, trace=trace, backend=backend
            )
        error = None
    except Exception as exc:  # noqa: BLE001 - sweeps tabulate failures
        verdicts, error = [], f"{type(exc).__name__}: {exc}"
    return ScenarioReport(
        kind=kind,
        key=key,
        mode=mode,
        seed=scenario_seed,
        verdicts=tuple(verdicts),
        error=error,
    )


def conformance_matrix(
    scale: str = "quick",
    seed: int = 0,
    kinds: Optional[Sequence[str]] = None,
    backend: str = "event",
) -> Dict[str, Any]:
    """Sweep every applicable registry scenario; JSON-ready verdicts.

    The payload is deterministic given ``seed`` (no timestamps or
    durations), so writing it twice with the same inputs produces
    byte-identical files.  A non-default ``backend`` is recorded in
    the payload; the default is omitted so the committed
    ``results/conformance.json`` stays byte-identical to the
    pre-facade format.
    """
    reports: List[ScenarioReport] = []
    for entry in REGISTRY.entries():
        if kinds is not None and entry.kind not in kinds:
            continue
        reports.append(
            check_scenario(
                entry.kind, entry.key, scale, seed, backend=backend
            )
        )
    failed = [report.qualified for report in reports if not report.ok]
    payload = {
        "scale": scale,
        "seed": seed,
        "monitors": list(MONITOR_CATALOG),
        "scenarios": [report.as_dict() for report in reports],
        "total": len(reports),
        "failed": failed,
        "pass": not failed,
    }
    if backend != "event":
        payload["backend"] = backend
    return payload


def matrix_payload_bytes(payload: Dict[str, Any]) -> bytes:
    """The canonical on-disk serialization of a verdict payload.

    Byte-for-byte what :func:`~repro.campaigns.store.dump_json_summary`
    writes (indent 2, sorted keys, trailing LF) — the byte-identity
    regression test compares a freshly computed matrix against the
    committed ``results/conformance.json`` through this function, so it
    must stay in lockstep with the store's serializer.
    """
    import json

    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


def render_matrix(payload: Dict[str, Any]) -> str:
    """The scenario x monitor pass/fail table for ``stdout``."""
    monitors = payload["monitors"]
    label_width = max(
        [len("scenario")]
        + [
            len(f"{entry['kind']}:{entry['key']}")
            for entry in payload["scenarios"]
        ]
    )
    widths = [max(len(name), 4) for name in monitors]
    lines = [
        f"conformance matrix [{payload['scale']}] — paper-bound "
        f"monitors over every registry scenario"
    ]
    header = "  ".join(
        [f"{'scenario':<{label_width}}"]
        + [f"{name:>{width}}" for name, width in zip(monitors, widths)]
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in payload["scenarios"]:
        cells = []
        by_monitor = {
            verdict["monitor"]: verdict for verdict in entry["verdicts"]
        }
        for name, width in zip(monitors, widths):
            verdict = by_monitor.get(name)
            if entry["error"] is not None and name in MODE_MONITORS.get(
                entry["mode"], ()
            ):
                cell = "ERR"
            elif verdict is None:
                cell = "—"
            else:
                cell = "PASS" if verdict["ok"] else "FAIL"
            cells.append(f"{cell:>{width}}")
        label = f"{entry['kind']}:{entry['key']}"
        lines.append("  ".join([f"{label:<{label_width}}"] + cells))
    failed = payload["failed"]
    lines.append("")
    if failed:
        lines.append(
            f"{len(failed)}/{payload['total']} scenarios FAILED: "
            + ", ".join(failed)
        )
    else:
        lines.append(
            f"all {payload['total']} scenarios PASS every applicable "
            f"monitor"
        )
    return "\n".join(lines)


def render_report(report: ScenarioReport) -> str:
    """Human-readable verdicts for one scenario."""
    lines = [
        f"{report.qualified} [{report.mode}] seed={report.seed} — "
        + ("PASS" if report.ok else "FAIL")
    ]
    if report.error is not None:
        lines.append(f"  error      {report.error}")
    for verdict in report.verdicts:
        status = "PASS" if verdict.ok else "FAIL"
        lines.append(
            f"  {verdict.monitor:<16} {status}  "
            f"({verdict.checked} checks) — {verdict.claim}"
        )
        for violation in verdict.violations:
            lines.append(f"    ! {violation.describe()}")
    return "\n".join(lines)
