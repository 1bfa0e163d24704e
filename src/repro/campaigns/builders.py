"""Trial builders: named functions that run one campaign case.

A builder takes ``(case, measurement, seed)`` and returns a flat dict of
JSON-serializable metrics; the executor wraps it in failure tabulation
(any exception becomes an ``error`` record, mirroring ``TrialOutcome``
semantics) so sweeps never die on a protocol-level error.

Builders are referenced *by name* in specs so that trial plans stay
plain data.  The campaign executor resolves the name in the parent
process and ships the function to pool workers by pickle reference, so
any *module-level* builder works with ``workers > 1`` regardless of the
multiprocessing start method.  Register your own with
:func:`register_builder`, or pass a fully-qualified
``"package.module:function"`` name, which is imported on demand.

The built-in builders carry the measurement logic of experiments E1
(APA convergence), E4 (CPS skew), E5 (resilience range), E6 (baseline
comparison), the registry-driven stress tier (``cps-stress``), and the
sharded property-based fuzz budgets (``fuzz-probe``);
``analysis/experiments.py`` declares the grids and assembles the
tables.

Scenario-typed case keys (``adversary``, ``delay``, ``topology``,
``drift``) are resolved through the scenario registry
(:mod:`repro.scenarios`), so a case names behaviours by stable string
key instead of constructing objects — and a typo fails at plan time
with a did-you-mean hint.
"""

from __future__ import annotations

import importlib
import math
from typing import Any, Callable, Dict, List, Tuple

from repro import scenarios
from repro.analysis import metrics, theory
from repro.analysis.runner import TrialOutcome, run_pulse_trial
from repro.baselines.chain_relay import (
    ChainStretchAttack,
    build_chain_simulation,
    derive_chain_parameters,
)
from repro.baselines.lynch_welch import (
    LwTimingAttack,
    build_lw_simulation,
    derive_lw_parameters,
    lw_max_faults,
)
from repro.baselines.srikanth_toueg import (
    StRushAttack,
    build_st_simulation,
    derive_st_parameters,
)
from repro.campaigns.spec import MeasurementSpec
from repro.core.attacks import timing_split_group
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters, max_faults
from repro.sim.clocks import HardwareClock
from repro.sync.approx_agreement import run_apa

TrialBuilder = Callable[[Dict[str, Any], MeasurementSpec, int], Dict[str, Any]]

BUILDERS: Dict[str, TrialBuilder] = {}


class TrialFailure(RuntimeError):
    """Raised by builders for per-trial failures the executor tabulates."""


def register_builder(name: str) -> Callable[[TrialBuilder], TrialBuilder]:
    """Decorator registering a builder under ``name``."""

    def decorate(function: TrialBuilder) -> TrialBuilder:
        BUILDERS[name] = function
        return function

    return decorate


def resolve_builder(name: str) -> TrialBuilder:
    """Look up a registered builder, or import a ``module:function`` one."""
    if name in BUILDERS:
        return BUILDERS[name]
    if ":" in name:
        module_name, _, attribute = name.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, attribute)
    raise KeyError(
        f"unknown builder {name!r}; registered: {sorted(BUILDERS)}"
    )


# ----------------------------------------------------------------------
# Shared scenario plumbing
# ----------------------------------------------------------------------


def cps_group_a(n: int) -> List[int]:
    """The even-id half used as "group A" by the timing-split attacks."""
    return timing_split_group(n)


#: Adversary factories for CPS sweeps, keyed by the names used in the
#: E4/E9 tables.  Each takes the derived protocol parameters.  Backed
#: by the scenario registry; the explicit key order preserves the
#: historical table row order.
CPS_ADVERSARIES: Dict[str, Callable[[Any], Any]] = {
    key: (
        lambda params, _key=key: scenarios.create(
            "adversary", _key, params
        )
    )
    for key in ("silent", "mimic-split", "equivocating-subset")
}

#: Round-model adversary factories for the APA sweeps (E1), keyed by
#: the names used in the tables.  Registry-backed like the above.
APA_ADVERSARIES: Dict[str, Callable[[], Any]] = {
    key: (
        lambda _key=key: scenarios.create("adversary", _key, None)
    )
    for key in ("extreme-values", "split-bot", "equivocating")
}


def measured_pulse_trial(
    simulation: Any, measurement: MeasurementSpec
) -> TrialOutcome:
    """Run a pulse trial under the measurement's liveness policy."""
    outcome = run_pulse_trial(
        simulation, measurement.pulses, warmup=measurement.warmup
    )
    if measurement.liveness == "require" and not outcome.live:
        raise TrialFailure(outcome.error or "liveness violated")
    return outcome


def _skew_metrics(outcome: TrialOutcome) -> Tuple[float, float]:
    """(max skew, steady skew), inf when the run died."""
    if outcome.report is None:
        return float("inf"), float("inf")
    return outcome.report.max_skew, outcome.report.steady_skew


def _events_of(outcome: TrialOutcome) -> int:
    """Events the simulator processed (0 when the run died at build time).

    Recorded in every pulse-trial builder's metrics so ``--perf`` campaign
    runs can compute per-case throughput (events / trial duration).
    """
    return outcome.result.events_processed if outcome.result else 0


def case_delay_policy(case: Dict[str, Any], n: int, default: str = "skewing"):
    """Resolve the case's ``delay`` key through the scenario registry."""
    return scenarios.create(
        "delay", case.get("delay", default), n,
        **case.get("delay_params", {})
    )


# ----------------------------------------------------------------------
# E1 — APA convergence (Theorem 9 / Corollary 2)
# ----------------------------------------------------------------------


@register_builder("apa-convergence")
def apa_convergence_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """Iterated APA from a spread of honest inputs under one adversary."""
    n = case["n"]
    initial_range = case.get("initial_range", 64.0)
    target = case.get("target", 1.0)
    iterations = math.ceil(math.log2(initial_range / target))
    f = max_faults(n)
    faulty = list(range(n - f, n))
    adversary = APA_ADVERSARIES[case["adversary"]]()
    honest = [v for v in range(n) if v not in faulty]
    inputs = {
        v: initial_range * index / max(len(honest) - 1, 1)
        for index, v in enumerate(honest)
    }
    low, high = min(inputs.values()), max(inputs.values())
    outcome = run_apa(inputs, n, f, faulty, adversary, iterations=iterations)
    ranges = outcome.ranges()
    halved = all(
        ranges[i + 1] <= ranges[i] / 2.0 + 1e-9
        for i in range(len(ranges) - 1)
    )
    validity = all(
        low - 1e-9 <= value <= high + 1e-9
        for value in outcome.outputs.values()
    )
    return {
        "f": f,
        "iterations": iterations,
        "rounds": 2 * iterations,
        "initial_range": ranges[0],
        "final_range": ranges[-1],
        "halving_bound": theory.apa_halving_bound(ranges[0], iterations),
        "halved": halved,
        "validity": validity,
    }


# ----------------------------------------------------------------------
# E4 — CPS skew vs the Theorem 17 bound
# ----------------------------------------------------------------------


@register_builder("cps-skew")
def cps_skew_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One CPS system under one adversary, skew measured against S."""
    n, u, theta = case["n"], case["u"], case["theta"]
    params = derive_parameters(theta, case.get("d", 1.0), u, n)
    faulty = list(range(n - params.f, n))
    behavior = CPS_ADVERSARIES[case["adversary"]](params)
    simulation = assemble_cps_simulation(
        params,
        faulty=faulty,
        behavior=behavior,
        delay_policy=case_delay_policy(case, n),
        seed=seed,
        clock_style=case.get("clock_style", "extreme"),
        trace=measurement.trace,
    )
    outcome = measured_pulse_trial(simulation, measurement)
    if outcome.report is None:
        return {
            "f": params.f,
            "max_skew": float("nan"),
            "steady_skew": float("nan"),
            "bound_S": params.S,
            "within": False,
            "live": False,
            "events": _events_of(outcome),
        }
    measured = outcome.report.max_skew
    return {
        "f": params.f,
        "max_skew": measured,
        "steady_skew": outcome.report.steady_skew,
        "bound_S": params.S,
        "within": measured <= params.S + 1e-9,
        "live": outcome.live,
        "events": _events_of(outcome),
    }


# ----------------------------------------------------------------------
# E5 — resilience range: CPS vs Lynch-Welch across f
# ----------------------------------------------------------------------


def _extreme_clocks(params: Any, n: int, theta: float) -> List[HardwareClock]:
    return [
        HardwareClock.constant_rate(
            1.0 if v % 2 == 0 else theta,
            offset=0.0 if v % 2 == 0 else params.S,
            theta=theta,
        )
        for v in range(n)
    ]


@register_builder("cps-vs-lw-resilience")
def resilience_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """The same timing attack against one algorithm at one fault count."""
    n, theta, d, u = case["n"], case["theta"], case["d"], case["u"]
    f = case["f"]
    algorithm = case["algorithm"]
    faulty = list(range(n - f, n)) if f else []
    delay_policy = case_delay_policy(case, n)
    if algorithm == "CPS":
        params = derive_parameters(theta, d, u, n, f=max_faults(n))
        behavior = (
            scenarios.create("adversary", "mimic-split", params)
            if f
            else None
        )
        simulation = assemble_cps_simulation(
            params,
            clocks=_extreme_clocks(params, n, theta),
            faulty=faulty,
            behavior=behavior,
            delay_policy=delay_policy,
            seed=seed,
            trace=measurement.trace,
        )
        tolerated = f <= max_faults(n)
    elif algorithm == "Lynch-Welch":
        # The protocol is told the true f so it can discard.
        params = derive_lw_parameters(theta, d, u, n, f=max(f, 1))
        behavior = LwTimingAttack(params, cps_group_a(n)) if f else None
        simulation = build_lw_simulation(
            params,
            clocks=_extreme_clocks(params, n, theta),
            faulty=faulty,
            behavior=behavior,
            delay_policy=delay_policy,
            seed=seed,
            trace=measurement.trace,
        )
        tolerated = f <= lw_max_faults(n)
    else:
        raise TrialFailure(f"unknown algorithm {algorithm!r}")
    outcome = measured_pulse_trial(simulation, measurement)
    measured, steady = _skew_metrics(outcome)
    return {
        "tolerated": tolerated,
        "max_skew": measured,
        "steady_skew": steady,
        "bound": params.S,
        "steady_within": steady <= params.S + 1e-9,
        "events": _events_of(outcome),
    }


# ----------------------------------------------------------------------
# E6 — introduction comparison: CPS vs the three baselines
# ----------------------------------------------------------------------

E6_ALGORITHMS: Tuple[str, ...] = (
    "CPS (this paper)",
    "Lynch-Welch [25]",
    "Signed relay [28]/[21]",
    "Chain relay [2]-style",
)


@register_builder("algorithm-comparison")
def algorithm_comparison_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """Steady skew of one algorithm at one size in the typical regime."""
    n, theta, d, u = case["n"], case["theta"], case["d"], case["u"]
    algorithm = case["algorithm"]
    f = max_faults(n)
    faulty = list(range(n - f, n))
    if algorithm == "CPS (this paper)":
        params = derive_parameters(theta, d, u, n)
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty,
            behavior=scenarios.create("adversary", "mimic-split", params),
            delay_policy=case_delay_policy(case, n),
            seed=seed,
            clock_style="extreme",
            trace=measurement.trace,
        )
        theory_skew = params.S
    elif algorithm == "Lynch-Welch [25]":
        # Lynch-Welch runs at its own maximum resilience.
        f = lw_max_faults(n)
        params = derive_lw_parameters(theta, d, u, n, f=f)
        simulation = build_lw_simulation(
            params,
            faulty=list(range(n - f, n)) if f else [],
            behavior=(
                LwTimingAttack(params, cps_group_a(n)) if f else None
            ),
            delay_policy=case_delay_policy(case, n),
            seed=seed,
            trace=measurement.trace,
        )
        theory_skew = params.S
    elif algorithm == "Signed relay [28]/[21]":
        params = derive_st_parameters(theta, d, u, n)
        simulation = build_st_simulation(
            params,
            faulty=faulty,
            behavior=StRushAttack(params),
            seed=seed,
            trace=measurement.trace,
        )
        theory_skew = theory.st_skew_bound(params)
    elif algorithm == "Chain relay [2]-style":
        params = derive_chain_parameters(theta, d, u, n)
        simulation = build_chain_simulation(
            params,
            faulty=faulty,
            behavior=ChainStretchAttack(params),
            seed=seed,
            trace=measurement.trace,
        )
        theory_skew = theory.chain_skew_bound(params)
    else:
        raise TrialFailure(f"unknown algorithm {algorithm!r}")
    outcome = measured_pulse_trial(simulation, measurement)
    steady = (
        outcome.report.steady_skew if outcome.report else float("inf")
    )
    return {
        "f": f,
        "theory_skew": theory_skew,
        "steady_skew": steady,
        "skew_over_d": steady / d,
        "events": _events_of(outcome),
    }


# ----------------------------------------------------------------------
# Registry-driven stress trials: any adversary x delay x drift x topology
# ----------------------------------------------------------------------


@register_builder("cps-churn")
def cps_churn_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One CPS run under a fault schedule, judged on re-stabilization.

    The case follows :func:`repro.build.build_simulation` conventions
    plus a mandatory ``churn`` registry key.  Static pulse-index
    metrics do not apply to disrupted nodes, so the row reports the
    *stable cohort's* skew (never-disturbed nodes stay index-aligned)
    and the time-aligned stabilization metrics of
    :mod:`repro.analysis.metrics` for every applied activation.
    """
    from repro.build import build_simulation

    built = build_simulation(
        case,
        backend=measurement.backend,
        seed=seed,
        trace=measurement.trace,
    )
    simulation, params = built.simulation, built.params
    controller = simulation.dynamics
    if controller is None:
        raise TrialFailure("cps-churn cases must name a 'churn' profile")
    result = simulation.run(max_pulses=measurement.pulses)
    schedule = controller.schedule
    stable = [
        v
        for v in schedule.stable_nodes(params.n)
        if result.pulses[v]
    ]
    cohort = {v: result.pulses[v] for v in stable}
    cohort_skew = (
        metrics.max_skew(cohort, skip=measurement.warmup)
        if stable
        else float("inf")
    )
    reports = [
        metrics.stabilization_report(
            result.pulses, node, time, stable, params.S
        )
        for time, _kind, node in controller.activations_applied()
    ]
    resynced = [report for report in reports if report.resynced]
    envelopes = [
        report.envelope
        for report in resynced
        if report.envelope == report.envelope  # drop NaNs
    ]
    # "resynced" demands every *scheduled* activation was applied and
    # healed — an activation whose trigger never fired (run too short)
    # must not report vacuous success.
    scheduled = len(schedule.activations())
    return {
        "f": built.f,
        "corruptions": schedule.corruptions,
        "disruptions": len(controller.applied),
        "activations": scheduled,
        "resynced": len(resynced) == len(reports) == scheduled,
        "resync_pulses": max(
            (report.pulses_to_resync for report in resynced), default=0
        ),
        "envelope": max(envelopes, default=0.0),
        "cohort_skew": cohort_skew,
        "bound_S": params.S,
        "cohort_within": cohort_skew <= params.S + 1e-9,
        "events": result.events_processed,
        **built.effective,
    }


@register_builder("fuzz-probe")
def fuzz_probe_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One sharded fuzz budget through the property-based search loop.

    The case names a strategy space (``strategy``), an example budget
    (``budget``), and a ``shard`` index whose only job is to vary the
    derived per-trial seed — so ``repro campaign run FUZZ --workers 8``
    fans independent search shards across the process pool.  The row is
    the :class:`~repro.fuzz.driver.FuzzReport` flattened to metrics;
    any counterexample is reported by content hash and is exactly
    reproducible via ``repro fuzz run --strategy S --budget B --seed
    <fuzz_seed>`` (the search loop is deterministic in that triple).

    The import is deferred so pool workers only pay for Hypothesis when
    a fuzz campaign actually runs.
    """
    from repro.fuzz import search

    report = search(
        strategy=case.get("strategy", "valid"),
        budget=int(case.get("budget", 50)),
        seed=seed,
        max_interesting=int(case.get("max_interesting", 1)),
        trace=measurement.trace,
    )
    counterexample = report.counterexample
    return {
        "fuzz_seed": report.seed,
        "executions": report.executions,
        "found": report.found,
        "ok": report.ok,
        "counterexample_id": (
            f"fuzz-{counterexample['fixture_id']}" if counterexample else ""
        ),
        "violations": (
            len(counterexample["summary"].get("violations", []))
            if counterexample
            else 0
        ),
        "interesting": len(report.interesting),
    }


@register_builder("cps-stress")
def cps_stress_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One CPS run fully assembled from scenario-registry keys.

    See :func:`repro.build.build_simulation` for the case conventions;
    ``measurement.backend`` selects the engine, which is how the
    E9-SCALE campaign reaches n = 10,000 on the vectorized backend.
    """
    from repro.build import build_simulation

    built = build_simulation(
        case,
        backend=measurement.backend,
        seed=seed,
        trace=measurement.trace,
    )
    simulation, params = built.simulation, built.params
    outcome = measured_pulse_trial(simulation, measurement)
    measured, steady = _skew_metrics(outcome)
    return {
        "f": built.f,
        "max_skew": measured,
        "steady_skew": steady,
        "bound_S": params.S,
        "within": steady <= params.S + 1e-9,
        "live": outcome.live,
        "events": _events_of(outcome),
        **built.effective,
    }


@register_builder("cps-ablation")
def cps_ablation_trial(
    case: Dict[str, Any], measurement: MeasurementSpec, seed: int
) -> Dict[str, Any]:
    """One ablation-matrix cell: a challenge run judged by monitors.

    The case follows :func:`repro.build.build_simulation` conventions
    plus the optional ``ablate`` key (components switched off) and an
    optional ``pulses`` override (churn challenges need the longer
    conformance-tier run regardless of the measurement tier).  The row
    is the per-monitor verdict map of the applicable conformance check
    set (:func:`~repro.checks.conformance.cps_check_set`, or the
    stabilization set for churn-keyed cases) plus skew metrics — what
    the importance reporter diffs between baseline and ablated cells.

    Ablated runs are *expected* to violate bounds; a failing monitor is
    a metric here, never a trial error.  A deadlocked run (the
    ``tcb-filter`` ablation stalls every round on a silent dealer) also
    tabulates: the event queue drains, progress fails, and skews over
    the too-few pulses come back as ``inf``.
    """
    from repro.build import build_simulation
    from repro.checks.conformance import (
        cps_check_set,
        churn_check_set,
    )
    from repro.sim.errors import ConfigurationError

    pulses = int(case.get("pulses", measurement.pulses))
    built = build_simulation(
        case,
        backend=measurement.backend,
        seed=seed,
        trace=measurement.trace,
    )
    simulation, params = built.simulation, built.params
    if case.get("churn") is not None:
        checks = churn_check_set(
            simulation.dynamics.schedule, params
        )
    else:
        checks = cps_check_set(params, simulation.honest, pulses)
    simulation.attach_checks(checks)
    result = simulation.run(max_pulses=pulses)
    verdicts = checks.finish()
    honest_pulses = {
        v: result.pulses[v]
        for v in simulation.honest
        if result.pulses[v]
    }
    try:
        measured = metrics.max_skew(
            honest_pulses, skip=measurement.warmup
        )
    except ConfigurationError:
        measured = float("inf")
    return {
        "f": built.f,
        "pulses": pulses,
        "live": all(
            len(result.pulses[v]) >= pulses for v in simulation.honest
        ),
        "max_skew": measured,
        "bound_S": params.S,
        "monitors": {v.monitor: v.ok for v in verdicts},
        "violations": {
            v.monitor: len(v.violations) for v in verdicts
        },
        "events": result.events_processed,
        **built.effective,
    }
