"""The counterexample oracle: one fuzz payload through the monitors.

A fuzz payload is runnable data — ``{"case", "pulses", "seed"}`` — and
the oracle contract is exactly the conformance engine's: build the
simulation with :func:`repro.build.build_simulation`, attach the
applicable check set through the scheduler's ``checks=`` hook (the
churn stabilization monitor when the case names a fault schedule, the
Theorem 17 / Lemma 11 set otherwise), run, and collect verdicts.  Any
verdict with violations is a counterexample.

Everything is deterministic given the payload — replaying a fixture
twice, or at different trace levels, produces byte-identical
:func:`verdict_payload` serializations; the determinism tests and the
``repro fuzz replay`` CLI rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.analysis import metrics
from repro.build import build_simulation
from repro.checks.conformance import (
    FUZZ_EXPECTATION_CLAIM,
    FUZZ_EXPECTATION_MONITOR,
    RESYNC_PULSE_BUDGET,
    churn_check_set,
    cps_check_set,
)
from repro.checks.monitors import MonitorVerdict, Violation


@dataclass
class FuzzRun:
    """One executed fuzz case: verdicts plus the run's raw material."""

    verdicts: Tuple[MonitorVerdict, ...]
    result: Any
    params: Any
    simulation: Any
    mode: str  # "cps" | "churn"

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def violations(self) -> List[Violation]:
        return [
            violation
            for verdict in self.verdicts
            for violation in verdict.violations
        ]


def run_fuzz_case(
    case: Dict[str, Any],
    pulses: int,
    seed: int,
    trace: Any = "pulses",
) -> FuzzRun:
    """Execute one registry-keyed case with its monitors attached."""
    built = build_simulation(case, seed=seed, trace=trace)
    simulation, params = built.simulation, built.params
    mode = "churn" if "churn" in case else "cps"
    if mode == "churn":
        checks = churn_check_set(simulation.dynamics.schedule, params)
    else:
        checks = cps_check_set(params, simulation.honest, pulses)
    simulation.attach_checks(checks)
    result = simulation.run(max_pulses=pulses)
    return FuzzRun(
        verdicts=tuple(checks.finish()),
        result=result,
        params=params,
        simulation=simulation,
        mode=mode,
    )


def replay_fixture(payload: Dict[str, Any], trace: Any = "pulses") -> FuzzRun:
    """Re-execute a serialized fixture (same engine path as the search)."""
    return run_fuzz_case(
        payload["case"], payload["pulses"], payload["seed"], trace=trace
    )


def verdict_payload(
    fixture: Dict[str, Any], run: FuzzRun
) -> Dict[str, Any]:
    """The canonical, byte-stable replay output of one fixture.

    Contains the full verdicts *and* the honest pulse streams, so the
    determinism test can assert byte identity across invocations and
    across ``PULSES`` vs ``FULL`` trace levels (no wall-clock data).
    """
    expect = fixture.get("expect", "pass")
    fired = not run.ok
    return {
        "fixture_id": fixture.get("fixture_id"),
        "expect": expect,
        "ok": run.ok,
        "expectation_met": fired == (expect == "violation"),
        "verdicts": [verdict.as_dict() for verdict in run.verdicts],
        "pulses": {
            str(node): times
            for node, times in sorted(run.result.pulses.items())
        },
        "events": run.result.events_processed,
    }


def expectation_verdict(
    payload: Dict[str, Any], run: FuzzRun
) -> MonitorVerdict:
    """Judge a promoted fixture against its recorded expectation.

    A fixture promoted as a *counterexample* (``expect: violation``)
    passes conformance while the monitors still fire on it — it is a
    regression gate on the oracle itself; an *interesting corner*
    (``expect: pass``) passes while the bounds still hold.
    """
    expect = payload.get("expect", "pass")
    fired = not run.ok
    ok = fired == (expect == "violation")
    violations: Tuple[Violation, ...] = ()
    if not ok:
        violations = (
            Violation(
                monitor=FUZZ_EXPECTATION_MONITOR,
                message=(
                    f"fixture expects {expect!r} but the monitors "
                    + ("fired" if fired else "stayed silent")
                ),
                observed=float(fired),
                bound=float(expect == "violation"),
            ),
        )
    return MonitorVerdict(
        monitor=FUZZ_EXPECTATION_MONITOR,
        claim=FUZZ_EXPECTATION_CLAIM,
        ok=ok,
        checked=len(run.verdicts),
        violations=violations,
    )


@dataclass(frozen=True)
class InterestScore:
    """How close a *passing* run came to its bounds (0 = slack, 1 =
    grazing)."""

    skew_over_s: float = 0.0
    resync_over_budget: float = 0.0
    envelope_over_s: float = 0.0
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def score(self) -> float:
        return max(
            self.skew_over_s, self.resync_over_budget, self.envelope_over_s
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "score": self.score,
            "skew_over_s": self.skew_over_s,
            "resync_over_budget": self.resync_over_budget,
            "envelope_over_s": self.envelope_over_s,
        }


def interest_score(run: FuzzRun) -> InterestScore:
    """Score a surviving example by how hard it pressed the bounds.

    ``skew_over_s``
        Worst observed honest skew over Theorem 17's ``S`` (for churn
        runs, over the never-disturbed stable cohort).
    ``resync_over_budget``
        Slowest applied activation's pulses-to-resync over the
        conformance resync budget (churn only).
    ``envelope_over_s``
        Worst post-resync alignment envelope over ``S`` (churn only).
    """
    result, params = run.result, run.params
    if run.mode == "churn":
        schedule = run.simulation.dynamics.schedule
        cohort_ids = [
            v
            for v in schedule.stable_nodes(params.n)
            if result.pulses.get(v)
        ]
        cohort = {v: result.pulses[v] for v in cohort_ids}
        try:
            skew_ratio = metrics.max_skew(cohort) / params.S
        except Exception:  # noqa: BLE001 - empty cohort scores zero
            skew_ratio = 0.0
        resync_ratio = 0.0
        envelope_ratio = 0.0
        for time, _kind, node in run.simulation.dynamics.activations_applied():
            report = metrics.stabilization_report(
                result.pulses, node, time, cohort_ids, params.S
            )
            if not report.resynced:
                continue
            resync_ratio = max(
                resync_ratio,
                report.pulses_to_resync / RESYNC_PULSE_BUDGET,
            )
            if report.envelope == report.envelope:  # drop NaNs
                envelope_ratio = max(
                    envelope_ratio, report.envelope / params.S
                )
        return InterestScore(
            skew_over_s=skew_ratio,
            resync_over_budget=resync_ratio,
            envelope_over_s=envelope_ratio,
        )
    honest = {
        v: result.pulses[v]
        for v in run.simulation.honest
        if result.pulses.get(v)
    }
    try:
        skew_ratio = metrics.max_skew(honest) / params.S
    except Exception:  # noqa: BLE001 - no pulses scores zero
        skew_ratio = 0.0
    return InterestScore(skew_over_s=skew_ratio)
