"""Experiments E1-E10, ablations A1-A3, and the STRESS campaign.

The paper is a theory paper without an empirical section, so each
experiment operationalizes one stated claim (theorem/lemma/corollary) or
one comparison from the introduction.  Every function returns a
:class:`~repro.analysis.reporting.Table`; the CLI, the tests and the
generated ``docs/EXPERIMENTS.md`` all render these.

``scale="quick"`` keeps runtimes in seconds (CI-friendly);
``scale="full"`` covers wider sweeps.  The campaign-ported experiments
(E1/E4/E5/E6, plus the registry-driven STRESS campaign) additionally
accept any scale a spec declares a tier for — E5 and STRESS define
``"stress"`` tiers whose cases name scenario-registry entries.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from repro.ablation import (
    AblationSpec,
    ablation_campaign_spec,
    ablation_report,
    ablation_table,
    render_ablation_table,
)
from repro.analysis import metrics, theory
from repro.analysis.reporting import Table
from repro.analysis.runner import run_pulse_trial
from repro.baselines.lynch_welch import lw_max_faults
from repro.campaigns import (
    CampaignDefinition,
    CampaignRun,
    CampaignSpec,
    MeasurementSpec,
    ScenarioSpec,
    execute_campaign,
    register_campaign,
)
from repro.campaigns.builders import (
    APA_ADVERSARIES,
    CPS_ADVERSARIES,
    E6_ALGORITHMS,
    cps_group_a as _cps_group_a,
)
from repro.core.attacks import (
    CpsMimicDealerAttack,
    CpsRushingEchoAttack,
    FastToFaultyDelayPolicy,
)
from repro.core.cps import CpsNode, assemble_cps_simulation
from repro.core.lower_bound import FixedPeriodProtocol, run_lower_bound
from repro.core.params import derive_parameters, max_faults
from repro.sim.adversary import SilentAdversary
from repro.sim.clocks import HardwareClock
from repro.sim.network import RandomDelayPolicy
from repro.sync.crusader import (
    BOT,
    CbEquivocatingDealer,
    CbSubsetDealer,
    CrusaderBroadcastNode,
)
from repro.sync.round_model import SynchronousNetwork

# Canonical model parameters of the "typical regime" (u << d, theta-1 << 1)
# the introduction argues about.  d normalizes the time unit.
TYPICAL = {"theta": 1.001, "d": 1.0, "u": 0.01}


# ======================================================================
# E1 — Theorem 9 / Corollary 2: APA convergence
# ======================================================================


def e1_campaign() -> CampaignSpec:
    """The E1 grid as a declarative campaign."""
    adversaries = tuple(APA_ADVERSARIES)
    return CampaignSpec(
        name="E1",
        description="APA convergence (Theorem 9, Corollary 2)",
        scenarios=(
            ScenarioSpec(
                builder="apa-convergence",
                base={"initial_range": 64.0, "target": 1.0},
                axes={
                    "quick": {"n": (5, 9), "adversary": adversaries},
                    "full": {
                        "n": (5, 9, 16, 25),
                        "adversary": adversaries,
                    },
                },
            ),
        ),
        measurements={"*": MeasurementSpec(pulses=0, warmup=0)},
    )


def e1_table(run: CampaignRun) -> Table:
    """Assemble the E1 table from campaign trial records."""
    table = Table(
        "E1 — APA convergence (Theorem 9, Corollary 2)",
        [
            "n",
            "f",
            "adversary",
            "iterations",
            "rounds",
            "initial range",
            "final range",
            "bound (l/2^k)",
            "halved every iter",
            "validity ok",
        ],
    )
    nan = float("nan")
    for record in run.records:
        m = record.metrics
        table.add_row(
            record.case["n"],
            m.get("f", max_faults(record.case["n"])),
            record.case["adversary"],
            m.get("iterations", 0),
            m.get("rounds", 0),
            m.get("initial_range", nan),
            m.get("final_range", nan),
            m.get("halving_bound", nan),
            m.get("halved", False),
            m.get("validity", False),
        )
    table.add_note(
        "Corollary 2: 2*ceil(log2(l/eps)) rounds reach eps at resilience "
        "ceil(n/2)-1."
    )
    return table


def e1_apa_convergence(scale: str = "quick") -> Table:
    """Honest range halves per APA iteration, for every adversary."""
    return e1_table(execute_campaign(e1_campaign(), scale=scale))


# ======================================================================
# E2 — Figure 4: crusader broadcast properties
# ======================================================================


def e2_crusader(scale: str = "quick") -> Table:
    """Validity and crusader consistency of Algorithm CB."""
    sizes = [4, 7] if scale == "quick" else [4, 7, 10, 15]
    table = Table(
        "E2 — Crusader broadcast (Figure 4)",
        [
            "n",
            "f",
            "scenario",
            "outputs",
            "validity ok",
            "consistency ok",
        ],
    )
    for n in sizes:
        f = max_faults(n)
        scenarios = []
        # Honest dealer, all-silent faulty.
        faulty = list(range(n - f, n))
        scenarios.append(("honest-dealer", 0, faulty, None))
        # Faulty dealer equivocating 0/1.
        scenarios.append(
            (
                "equivocating-dealer",
                n - 1,
                faulty,
                CbEquivocatingDealer(n - 1, 0, 1),
            )
        )
        # Faulty dealer sending only to a subset.
        honest = [v for v in range(n) if v not in faulty]
        scenarios.append(
            (
                "subset-dealer",
                n - 1,
                faulty,
                CbSubsetDealer(n - 1, 1, honest[: len(honest) // 2 + 1]),
            )
        )
        for name, dealer, faulty_set, adversary in scenarios:
            nodes = {
                v: CrusaderBroadcastNode(dealer, input_value=1)
                for v in range(n)
                if v not in faulty_set
            }
            network = SynchronousNetwork(
                dict(nodes), n, f, faulty_set, adversary
            )
            outputs = network.run(2)
            values = set(outputs.values())
            non_bot = {v for v in values if v is not BOT}
            if dealer not in faulty_set:
                validity = values == {1}
            else:
                validity = True  # vacuous for faulty dealers
            consistency = len(non_bot) <= 1
            rendered = ", ".join(
                f"{node}:{output!r}" for node, output in sorted(outputs.items())
            )
            table.add_row(n, f, name, rendered, validity, consistency)
    return table


# ======================================================================
# E3 — Lemmas 10-13: TCB acceptance and estimate accuracy
# ======================================================================


def e3_tcb_accuracy(scale: str = "quick") -> Table:
    """Measured estimate errors against the delta bound."""
    if scale == "quick":
        configs = [(1.0005, 0.01), (1.002, 0.05), (1.005, 0.1)]
    else:
        configs = [
            (1.0002, 0.005),
            (1.0005, 0.01),
            (1.001, 0.02),
            (1.002, 0.05),
            (1.005, 0.1),
            (1.01, 0.2),
        ]
    table = Table(
        "E3 — TCB estimate accuracy (Lemmas 10-13)",
        [
            "theta",
            "u",
            "honest accepts",
            "validity err max",
            "delta bound",
            "within (L12)",
            "faulty consistency err",
            "within (L13)",
        ],
    )
    n, pulses = 6, 10
    for theta, u in configs:
        params = derive_parameters(theta, 1.0, u, n)
        faulty = list(range(n - params.f, n))
        behavior = CpsMimicDealerAttack(params, _cps_group_a(n))
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty,
            behavior=behavior,
            delay_policy=RandomDelayPolicy(seed=7),
            seed=11,
        )
        outcome = run_pulse_trial(simulation, pulses)
        assert outcome.result is not None and outcome.live, outcome.error
        honest_pulses = outcome.result.honest_pulses()
        honest = sorted(honest_pulses)
        validity_err = 0.0
        consistency_err = 0.0
        accepts = 0
        rejections_of_honest = 0
        for v in honest:
            node = simulation.protocol(v)
            for summary in node.summaries:
                r = summary.pulse_round - 1
                for w, estimate in summary.estimates.items():
                    if w == v:
                        continue
                    if w in honest:
                        if estimate is BOT:
                            rejections_of_honest += 1
                            continue
                        accepts += 1
                        true_offset = (
                            honest_pulses[w][r] - honest_pulses[v][r]
                        )
                        error = estimate - true_offset
                        validity_err = max(
                            validity_err, abs(error) if error < 0 else error
                        )
        # Lemma 13: pairwise consistency for faulty dealers.
        for r in range(pulses):
            for x in faulty:
                per_node = {}
                for v in honest:
                    summaries = simulation.protocol(v).summaries
                    if r < len(summaries):
                        estimate = summaries[r].estimates.get(x)
                        if estimate is not BOT and estimate is not None:
                            per_node[v] = estimate
                for v in per_node:
                    for w in per_node:
                        if v == w:
                            continue
                        gap = (
                            per_node[v]
                            - per_node[w]
                            - (
                                honest_pulses[w][r]
                                - honest_pulses[v][r]
                            )
                        )
                        consistency_err = max(consistency_err, abs(gap))
        table.add_row(
            theta,
            u,
            accepts,
            validity_err,
            params.delta,
            validity_err < params.delta + 1e-9,
            consistency_err,
            consistency_err < params.delta + 1e-9,
        )
    table.add_note(
        "Lemma 10 additionally guarantees zero honest-dealer rejections "
        "when faulty links respect d-u; asserted in the test suite."
    )
    return table


# ======================================================================
# E4 — Theorem 17 / Corollary 4: CPS skew
# ======================================================================


def _cps_adversaries(params) -> Dict[str, Callable[[], object]]:
    """Adversary factories bound to ``params`` (used by E9)."""
    return {
        name: (lambda make=make: make(params))
        for name, make in CPS_ADVERSARIES.items()
    }


def e4_campaign() -> CampaignSpec:
    """The E4 grid: (n, u, theta) systems crossed with the attack suite."""
    return CampaignSpec(
        name="E4",
        description="CPS skew vs bound (Theorem 17 / Corollary 4)",
        scenarios=(
            ScenarioSpec(
                builder="cps-skew",
                base={"d": 1.0, "seed": 3, "clock_style": "extreme"},
                axes={"*": {"adversary": tuple(CPS_ADVERSARIES)}},
                cases={
                    "quick": (
                        {"n": 6, "u": 0.01, "theta": 1.001},
                        {"n": 9, "u": 0.05, "theta": 1.002},
                    ),
                    "full": (
                        {"n": 6, "u": 0.01, "theta": 1.001},
                        {"n": 9, "u": 0.05, "theta": 1.002},
                        {"n": 12, "u": 0.01, "theta": 1.0005},
                        {"n": 16, "u": 0.1, "theta": 1.005},
                    ),
                },
            ),
        ),
        measurements={
            "quick": MeasurementSpec(pulses=15, warmup=5),
            "full": MeasurementSpec(pulses=30, warmup=5),
        },
    )


def e4_table(run: CampaignRun) -> Table:
    """Assemble the E4 table from campaign trial records."""
    table = Table(
        "E4 — CPS skew vs bound (Theorem 17 / Corollary 4)",
        [
            "n",
            "f",
            "u",
            "theta",
            "adversary",
            "max skew",
            "steady skew",
            "bound S",
            "within",
            "live",
        ],
    )
    for record in run.records:
        case = record.case
        m = record.metrics
        table.add_row(
            case["n"],
            m.get("f", max_faults(case["n"])),
            case["u"],
            case["theta"],
            case["adversary"],
            m.get("max_skew", float("nan")),
            m.get("steady_skew", float("nan")),
            m.get("bound_S", float("nan")),
            m.get("within", False),
            m.get("live", False),
        )
    table.add_note(
        "f = ceil(n/2)-1 everywhere — beyond the ceil(n/3)-1 barrier of "
        "the signature-free setting."
    )
    return table


def e4_cps_skew(scale: str = "quick") -> Table:
    """Measured worst-case skew against the proven bound S."""
    return e4_table(execute_campaign(e4_campaign(), scale=scale))


# ======================================================================
# E5 — resilience range: CPS vs Lynch-Welch across f
# ======================================================================


_E5_N = 9


def e5_campaign() -> CampaignSpec:
    """The E5 grid: fault count crossed with {CPS, Lynch-Welch}.

    The ``stress`` tier additionally crosses the grid with registry-named
    delay policies — the same resilience question asked under an eclipse
    and a flickering partition instead of only the static timing split.
    """
    f_axis = tuple(range(max_faults(_E5_N) + 1))
    algorithms = ("CPS", "Lynch-Welch")
    return CampaignSpec(
        name="E5",
        description="Resilience range (CPS vs Lynch-Welch)",
        scenarios=(
            ScenarioSpec(
                builder="cps-vs-lw-resilience",
                base={
                    "n": _E5_N,
                    "theta": 1.001,
                    "d": 1.0,
                    "u": 0.02,
                    "seed": 5,
                },
                axes={
                    "*": {"f": f_axis, "algorithm": algorithms},
                    "stress": {
                        "f": f_axis,
                        "algorithm": algorithms,
                        "delay": (
                            "skewing",
                            "eclipse",
                            "flicker-partition",
                        ),
                    },
                },
            ),
        ),
        measurements={
            "quick": MeasurementSpec(pulses=30, warmup=8),
            "full": MeasurementSpec(pulses=60, warmup=8),
            "stress": MeasurementSpec(pulses=40, warmup=8),
        },
    )


def e5_table(run: CampaignRun) -> Table:
    """Assemble the E5 table from campaign trial records.

    Stress-tier records carry a registry-named ``delay`` case key; the
    extra column appears only then, so quick/full tables stay
    byte-identical to the pre-registry output.
    """
    with_delay = any("delay" in record.case for record in run.records)
    table = Table(
        "E5 — Resilience range (CPS vs Lynch-Welch)",
        [
            "f",
            "algorithm",
            *(["delay"] if with_delay else []),
            "tolerated by design",
            "max skew",
            "steady skew",
            "bound",
            "steady within",
        ],
    )
    n = _E5_N
    for record in run.records:
        m = record.metrics
        n = record.case["n"]
        table.add_row(
            record.case["f"],
            record.case["algorithm"],
            *([record.case.get("delay", "skewing")] if with_delay else []),
            m.get("tolerated", False),
            m.get("max_skew", float("inf")),
            m.get("steady_skew", float("inf")),
            m.get("bound", float("nan")),
            m.get("steady_within", False),
        )
    table.add_note(
        f"n={n}: LW tolerates f <= {lw_max_faults(n)}; CPS tolerates "
        f"f <= {max_faults(n)} (Theorem 17).  Beyond its tolerance LW "
        "stops contracting: the timing split pins each group to a "
        "different honest extreme and drift accumulates unchecked."
    )
    return table


def e5_resilience(scale: str = "quick") -> Table:
    """Same timing attack against CPS and LW for f = 0..ceil(n/2)-1."""
    return e5_table(execute_campaign(e5_campaign(), scale=scale))


# ======================================================================
# E6 — introduction comparison table: all four algorithms
# ======================================================================


def e6_campaign() -> CampaignSpec:
    """The E6 grid: system size crossed with all four algorithms."""
    return CampaignSpec(
        name="E6",
        description="Algorithm comparison (introduction / related work)",
        scenarios=(
            ScenarioSpec(
                builder="algorithm-comparison",
                base={**TYPICAL, "seed": 1},
                axes={
                    "quick": {"n": (5, 9), "algorithm": E6_ALGORITHMS},
                    "full": {
                        "n": (5, 9, 13, 17),
                        "algorithm": E6_ALGORITHMS,
                    },
                },
            ),
        ),
        measurements={
            "quick": MeasurementSpec(pulses=10, warmup=3),
            "full": MeasurementSpec(pulses=20, warmup=3),
        },
    )


def e6_table(run: CampaignRun) -> Table:
    """Assemble the E6 table from campaign trial records."""
    table = Table(
        "E6 — Algorithm comparison (introduction / related work)",
        [
            "algorithm",
            "n",
            "f",
            "theory skew",
            "steady skew",
            "skew / d",
        ],
    )
    for record in run.records:
        m = record.metrics
        table.add_row(
            record.case["algorithm"],
            record.case["n"],
            m.get("f", max_faults(record.case["n"])),
            m.get("theory_skew", float("nan")),
            m.get("steady_skew", float("inf")),
            m.get("skew_over_d", float("inf")),
        )
    table.add_note(
        "Typical regime u << d, theta-1 << 1: CPS and LW sit near "
        "u + (theta-1)d, signed relays near d, chain relays grow with f."
    )
    return table


def e6_baselines(scale: str = "quick") -> Table:
    """Skew of CPS vs the three baselines in the typical regime."""
    return e6_table(execute_campaign(e6_campaign(), scale=scale))


# ======================================================================
# E7 — Theorem 5: lower bound construction
# ======================================================================


def e7_lower_bound(scale: str = "quick") -> Table:
    """The three-execution adversary vs CPS and a fixed-period pulser."""
    d = 1.0
    theta = 1.02
    u_tildes = [0.15, 0.45, 0.9] if scale == "quick" else [
        0.05, 0.15, 0.3, 0.45, 0.6, 0.9,
    ]
    table = Table(
        "E7 — Lower bound (Theorem 5)",
        [
            "protocol",
            "u~",
            "max exec skew",
            "bound 2u~/3",
            ">= bound",
            "identity sum",
            "2u~",
            "well-defined",
        ],
    )
    cps_params = derive_parameters(theta, d, 0.0, 3, f=1)

    def protocols():
        yield "CPS (n=3)", lambda _v: CpsNode(cps_params)
        yield "fixed-period", lambda _v: FixedPeriodProtocol(2.0 * d)

    for name, factory in protocols():
        for u_tilde in u_tildes:
            # Run until well past the fast clocks' saturation time
            # 2*u_tilde / (3 (theta-1)); periods are ~2d.
            saturation = 2.0 * u_tilde / (3.0 * (theta - 1.0))
            pulses = int(math.ceil(saturation / (1.5 * d))) + 6
            result = run_lower_bound(
                factory, theta, d, u_tilde, max_pulses=pulses
            )
            saturated = result.saturated_pulse_indices()
            index = saturated[-1] if saturated else (
                result.common_pulse_count() - 1
            )
            measured = result.max_skew_at(index)
            identity = result.theorem_identity(index)
            table.add_row(
                name,
                u_tilde,
                measured,
                theory.lower_bound_skew(u_tilde),
                measured >= theory.lower_bound_skew(u_tilde) - 1e-9,
                identity,
                2.0 * u_tilde,
                True,  # run_lower_bound(check=True) raised otherwise
            )
    table.add_note(
        "CPS derived with u=0: its claimed S is "
        f"{cps_params.S:.4f} — the adversary exceeds it whenever "
        "2u~/3 > S, i.e. the skew is governed by u~, not u."
    )
    return table


# ======================================================================
# E8 — skew degradation when faulty links undercut d - u
# ======================================================================


def e8_utilde_degradation(scale: str = "quick") -> Table:
    """CPS under the rushing-echo attack for growing u_tilde / u."""
    n = 6
    theta, d, u = 1.0005, 1.0, 0.01
    multipliers = [1, 4, 16] if scale == "quick" else [1, 2, 4, 8, 16, 32]
    pulses = 12 if scale == "quick" else 25
    params = derive_parameters(theta, d, u, n)
    faulty = list(range(n - params.f, n))
    table = Table(
        "E8 — Skew vs faulty-link uncertainty (Section 1 discussion)",
        [
            "u~/u",
            "u~",
            "measured skew",
            "bound S (for u)",
            "within S",
            "honest-dealer rejections",
        ],
    )
    for multiplier in multipliers:
        u_tilde = min(u * multiplier, d * 0.45)
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty,
            behavior=CpsRushingEchoAttack(),
            delay_policy=FastToFaultyDelayPolicy(),
            u_tilde=u_tilde,
            seed=2,
            clock_style="extreme",
        )
        outcome = run_pulse_trial(simulation, pulses)
        rejections = 0
        if outcome.result is not None:
            for record in outcome.result.trace.protocol_events("cps-round"):
                summary = record.details
                rejections += sum(
                    1
                    for w, estimate in summary.estimates.items()
                    if estimate is BOT and w not in set(faulty)
                )
        measured = (
            outcome.report.max_skew if outcome.report else float("inf")
        )
        table.add_row(
            multiplier,
            u_tilde,
            measured,
            params.S,
            measured <= params.S + 1e-9,
            rejections,
        )
    table.add_note(
        "u~ = u: Lemma 10 holds, zero honest rejections, skew <= S.  "
        "u~ > u: rushed echoes force honest-dealer rejections and the "
        "skew bound no longer holds (Theorem 5 explains why it cannot)."
    )
    return table


# ======================================================================
# E9 — Theorem 17 period bounds
# ======================================================================


def e9_periods(scale: str = "quick") -> Table:
    """Measured P_min / P_max against the Theorem 17 bounds."""
    systems = (
        [(6, 0.01, 1.001)]
        if scale == "quick"
        else [(6, 0.01, 1.001), (9, 0.05, 1.002), (12, 0.1, 1.005)]
    )
    pulses = 15 if scale == "quick" else 30
    table = Table(
        "E9 — Period bounds (Theorem 17)",
        [
            "n",
            "adversary",
            "P_min measured",
            "P_min bound",
            "P_max measured",
            "P_max bound",
            "within",
        ],
    )
    for n, u, theta in systems:
        params = derive_parameters(theta, 1.0, u, n)
        faulty = list(range(n - params.f, n))
        for name, make in _cps_adversaries(params).items():
            simulation = assemble_cps_simulation(
                params,
                faulty=faulty,
                behavior=make(),
                delay_policy=RandomDelayPolicy(seed=13),
                seed=13,
                clock_style="extreme",
            )
            outcome = run_pulse_trial(simulation, pulses)
            if outcome.report is None:
                table.add_row(n, name, *(float("nan"),) * 4, False)
                continue
            report = outcome.report
            within = (
                report.min_period >= params.p_min_bound - 1e-9
                and report.max_period <= params.p_max_bound + 1e-9
            )
            table.add_row(
                n,
                name,
                report.min_period,
                params.p_min_bound,
                report.max_period,
                params.p_max_bound,
                within,
            )
    return table


# ======================================================================
# E10 — Lemma 16 dynamics: convergence from the worst allowed start
# ======================================================================


def e10_convergence(scale: str = "quick") -> Table:
    """Per-pulse skew trajectory from maximal initial offsets."""
    n = 6
    theta, d, u = 1.0005, 1.0, 0.02
    pulses = 12 if scale == "quick" else 25
    params = derive_parameters(theta, d, u, n)
    faulty = list(range(n - params.f, n))
    clocks = [
        HardwareClock.constant_rate(
            1.0 if v % 2 == 0 else theta,
            offset=0.0 if v % 2 == 0 else params.S,
            theta=theta,
        )
        for v in range(n)
    ]
    simulation = assemble_cps_simulation(
        params,
        clocks=clocks,
        faulty=faulty,
        behavior=SilentAdversary(),
        delay_policy=RandomDelayPolicy(seed=4),
        seed=4,
    )
    outcome = run_pulse_trial(simulation, pulses, warmup=0)
    assert outcome.result is not None and outcome.live, outcome.error
    trajectory = metrics.skew_trajectory(outcome.result.honest_pulses())
    table = Table(
        "E10 — Convergence trajectory (Lemma 16)",
        ["pulse", "skew", "bound S", "halving ref", "floor 2*delta"],
    )
    reference = trajectory[0]
    floor = 2.0 * params.delta
    for index, value in enumerate(trajectory):
        table.add_row(
            index + 1,
            value,
            params.S,
            max(reference / (2.0 ** index), floor),
            floor,
        )
    table.add_note(
        "Lemma 16: skew' <= skew/2 + delta (+ drift terms); the trajectory "
        "contracts geometrically to an O(delta) floor."
    )
    return table


# ======================================================================
# Ablations
# ======================================================================


def a1_no_echo_rejection(scale: str = "quick") -> Table:
    """Disable Figure 2's echo-rejection rule; let dealers stagger sends.

    The rule's purpose is timed crusader consistency (Lemma 13): two
    honest nodes accepting the same dealer must compute estimates that
    agree up to ``delta``.  A faulty dealer staggering its sends violates
    that by the stagger amount — unless the rushed echo of the early copy
    gets it rejected.
    """
    n = 6
    theta, d, u = 1.0005, 1.0, 0.01
    pulses = 10
    params = derive_parameters(theta, d, u, n)
    faulty = list(range(n - params.f, n))
    stagger = 1.5 * params.delta  # beyond what Lemma 13 permits
    table = Table(
        "A1 — Echo rejection ablation",
        [
            "echo rejection",
            "stagger",
            "faulty accepted",
            "max consistency err",
            "delta bound",
            "within delta",
        ],
    )
    for enabled in (True, False):
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty,
            behavior=CpsMimicDealerAttack(
                params, _cps_group_a(n), stagger=stagger
            ),
            seed=6,
            echo_rejection=enabled,
        )
        outcome = run_pulse_trial(simulation, pulses)
        assert outcome.result is not None and outcome.live, outcome.error
        honest_pulses = outcome.result.honest_pulses()
        honest = sorted(honest_pulses)
        accepted = 0
        worst = 0.0
        for r in range(pulses):
            for x in faulty:
                per_node = {}
                for v in honest:
                    summaries = simulation.protocol(v).summaries
                    if r < len(summaries):
                        estimate = summaries[r].estimates.get(x)
                        if estimate is not None and estimate is not BOT:
                            per_node[v] = estimate
                accepted += len(per_node)
                for v in per_node:
                    for w in per_node:
                        if v == w:
                            continue
                        gap = abs(
                            per_node[v]
                            - per_node[w]
                            - (honest_pulses[w][r] - honest_pulses[v][r])
                        )
                        worst = max(worst, gap)
        table.add_row(
            enabled,
            stagger,
            accepted,
            worst,
            params.delta,
            worst <= params.delta + 1e-9,
        )
    table.add_note(
        "With the rule the staggered dealer is either rejected or its "
        "estimates agree within delta; without it, honest nodes accept "
        "estimates a full stagger apart — the Lemma 13 invariant breaks "
        "and with it the Theorem 17 analysis."
    )
    return table


def a2_discard_rule(scale: str = "quick") -> Table:
    """Replace the f-b discard with the signature-free fixed-f discard."""
    n = 6
    theta, d, u = 1.0005, 1.0, 0.02
    pulses = 10
    params = derive_parameters(theta, d, u, n)
    faulty = list(range(n - params.f, n))
    table = Table(
        "A2 — Discard rule ablation (f-b vs f)",
        ["rule", "f", "outcome", "measured skew", "bound S"],
    )
    for rule in ("f-b", "f"):
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty,
            behavior=SilentAdversary(),
            seed=8,
            discard_rule=rule,
        )
        outcome = run_pulse_trial(simulation, pulses)
        if outcome.report is None:
            table.add_row(
                rule, params.f, outcome.error, float("nan"), params.S
            )
        else:
            table.add_row(
                rule,
                params.f,
                "ok",
                outcome.report.max_skew,
                params.S,
            )
    table.add_note(
        "At f = ceil(n/2)-1 with silent faulty nodes, discarding a fixed f "
        "per side leaves no values at all: the ⊥-aware rule is what makes "
        "optimal resilience possible."
    )
    return table


def a3_send_offset(scale: str = "quick") -> Table:
    """Drop the theta*S dealer send offset; honest broadcasts get missed."""
    n = 6
    theta, d, u = 1.04, 1.0, 0.45  # regime with S > d - u
    pulses = 8
    params = derive_parameters(theta, d, u, n)
    table = Table(
        "A3 — Dealer send offset ablation",
        [
            "send offset",
            "S",
            "d-u",
            "honest ⊥ outputs",
            "measured skew",
            "within S",
        ],
    )
    for offset in (params.dealer_send_offset, 0.0):
        simulation = assemble_cps_simulation(
            params,
            faulty=[],
            seed=9,
            clock_style="extreme",
            dealer_send_offset=offset,
        )
        outcome = run_pulse_trial(simulation, pulses)
        bots = 0
        if outcome.result is not None:
            for record in outcome.result.trace.protocol_events("cps-round"):
                bots += sum(
                    1
                    for estimate in record.details.estimates.values()
                    if estimate is BOT
                )
        measured = (
            outcome.report.max_skew if outcome.report else float("inf")
        )
        table.add_row(
            offset,
            params.S,
            params.d - params.u,
            bots,
            measured,
            measured <= params.S + 1e-9,
        )
    table.add_note(
        "With S > d-u, a dealer sending at its pulse reaches fast nodes "
        "before slow nodes have pulsed; the theta*S wait is what makes "
        "Lemma 10 hold."
    )
    return table


# ======================================================================
# STRESS — registry-driven scenario campaign
# ======================================================================


def stress_campaign() -> CampaignSpec:
    """Scenario-registry cross products: adversary x delay x drift, plus
    sparse topologies through the Appendix A overlay.

    Every axis value is a scenario-registry key (validated at plan
    time), so extending the stress surface is a registry entry plus one
    tuple element here — no builder code changes.
    """
    return CampaignSpec(
        name="STRESS",
        description=(
            "Registry-driven stress scenarios "
            "(adversary x delay x drift x topology)"
        ),
        seed=17,
        scenarios=(
            ScenarioSpec(
                builder="cps-stress",
                base={"d": 1.0, "u": 0.02, "theta": 1.001},
                axes={
                    "quick": {
                        "n": (6,),
                        "adversary": (
                            "coordinated-offset",
                            "mimic-split",
                        ),
                        "delay": ("eclipse", "skewing"),
                        "drift": ("mixed",),
                    },
                    "full": {
                        "n": (6, 9),
                        "adversary": (
                            "silent",
                            "mimic-split",
                            "equivocating-subset",
                            "coordinated-offset",
                            "replay",
                        ),
                        "delay": (
                            "skewing",
                            "eclipse",
                            "flicker-partition",
                            "random",
                        ),
                        "drift": ("extreme", "mixed", "staggered"),
                    },
                    "stress": {
                        "n": (9, 16, 25),
                        "adversary": (
                            "silent",
                            "mimic-split",
                            "equivocating-subset",
                            "coordinated-offset",
                            "replay",
                            "rushing-echo",
                        ),
                        "delay": (
                            "skewing",
                            "eclipse",
                            "flicker-partition",
                            "biased-partition",
                            "random",
                        ),
                        "drift": ("extreme", "mixed", "staggered"),
                    },
                },
            ),
            ScenarioSpec(
                builder="cps-stress",
                base={
                    "d": 1.0,
                    "u": 0.02,
                    "theta": 1.001,
                    "adversary": "silent",
                    "delay": "random",
                    "drift": "random",
                },
                axes={
                    "quick": {
                        "n": (8,),
                        "topology": ("circulant", "random-regular"),
                    },
                    "full": {
                        "n": (8, 12),
                        "topology": (
                            "complete",
                            "circulant",
                            "random-regular",
                            "small-world",
                        ),
                    },
                    "stress": {
                        "n": (12, 16),
                        "topology": (
                            "complete",
                            "circulant",
                            "random-regular",
                            "small-world",
                        ),
                    },
                },
            ),
        ),
        measurements={
            "quick": MeasurementSpec(pulses=8, warmup=3),
            "full": MeasurementSpec(pulses=15, warmup=5),
            "stress": MeasurementSpec(pulses=25, warmup=5),
        },
    )


def stress_table(run: CampaignRun) -> Table:
    """Assemble the STRESS table from campaign trial records."""
    table = Table(
        "STRESS — registry-driven scenarios "
        "(adversary x delay x drift x topology)",
        [
            "n",
            "f",
            "topology",
            "adversary",
            "delay",
            "drift",
            "max skew",
            "steady skew",
            "bound S",
            "within",
            "live",
        ],
    )
    for record in run.records:
        case = record.case
        m = record.metrics
        table.add_row(
            case["n"],
            m.get("f", float("nan")),
            case.get("topology", "-"),
            case.get("adversary", "silent"),
            case.get("delay", "maximum"),
            case.get("drift", "random"),
            m.get("max_skew", float("inf")),
            m.get("steady_skew", float("inf")),
            m.get("bound_S", float("nan")),
            m.get("within", False),
            m.get("live", False),
        )
    table.add_note(
        "Every scenario axis value is a registry key (repro scenarios "
        "list); topology rows run CPS on the Appendix A overlay and "
        "compare against the overlay-derived bound."
    )
    return table


def stress_scenarios(scale: str = "quick") -> Table:
    """Registry-named adversary/delay/drift/topology cross products."""
    return stress_table(execute_campaign(stress_campaign(), scale=scale))


# ======================================================================
# CHURN-STRESS — fault schedules over the registry scenarios
# ======================================================================


def churn_campaign() -> CampaignSpec:
    """Every churn profile against CPS, crossed with drift (and, at
    full scale, size and delay) axes.

    Campaign-native like STRESS: each ``churn`` axis value names a
    registry profile (``repro scenarios list --kind churn``), the fault
    schedules spend the resilience budget on crashes/joins/handoffs,
    and rejoining nodes restart behind the listen-then-join wrapper.
    """
    profiles = (
        "single-crash",
        "rolling-crashes",
        "crash-recover-wave",
        "late-join-cohort",
        "flapping-node",
        "adversary-handoff",
    )
    return CampaignSpec(
        name="CHURN-STRESS",
        description=(
            "Fault-schedule stress: crash / recovery / late-join / "
            "adversary-handoff dynamics"
        ),
        seed=29,
        scenarios=(
            ScenarioSpec(
                builder="cps-churn",
                base={"d": 1.0, "u": 0.02, "theta": 1.001},
                axes={
                    "quick": {
                        "n": (6,),
                        "churn": profiles,
                        "drift": ("extreme",),
                    },
                    "full": {
                        "n": (6, 9),
                        "churn": profiles,
                        "drift": ("extreme", "mixed"),
                        "delay": ("maximum", "random"),
                    },
                },
            ),
        ),
        measurements={
            # Rejoiners must catch up to the pulse quota after their
            # outage, so churn runs use a higher budget than STRESS.
            "quick": MeasurementSpec(pulses=14, warmup=3),
            "full": MeasurementSpec(pulses=24, warmup=4),
        },
    )


def churn_table(run: CampaignRun) -> Table:
    """Assemble the CHURN-STRESS table from campaign trial records."""
    table = Table(
        "CHURN-STRESS — fault schedules "
        "(crash / recover / late-join / handoff)",
        [
            "n",
            "f",
            "churn",
            "drift",
            "delay",
            "disruptions",
            "resynced",
            "resync pulses",
            "envelope",
            "cohort skew",
            "bound S",
            "cohort within",
        ],
    )
    for record in run.records:
        case = record.case
        m = record.metrics
        table.add_row(
            case["n"],
            m.get("f", float("nan")),
            case.get("churn", "-"),
            case.get("drift", "random"),
            case.get("delay", "maximum"),
            m.get("disruptions", 0),
            m.get("resynced", False),
            m.get("resync_pulses", 0),
            m.get("envelope", float("nan")),
            m.get("cohort_skew", float("inf")),
            m.get("bound_S", float("nan")),
            m.get("cohort_within", False),
        )
    table.add_note(
        "Crashed, dormant, and corrupted nodes all spend the f budget; "
        "'resync pulses' is the worst pulses-to-resync over the "
        "schedule's recoveries/joins (time-aligned against the stable "
        "cohort), 'cohort skew' the index-aligned Definition 3 skew of "
        "the never-disturbed nodes."
    )
    return table


def churn_scenarios(scale: str = "quick") -> Table:
    """Fault-schedule dynamics: crashes, recoveries, joins, handoffs."""
    return churn_table(execute_campaign(churn_campaign(), scale=scale))


# ======================================================================
# FUZZ — sharded property-based search for bound violations
# ======================================================================


def fuzz_campaign() -> CampaignSpec:
    """Sharded fuzz budgets over the strategy spaces of
    :mod:`repro.fuzz`.

    Each trial is one :func:`repro.fuzz.search` run; the ``shard`` axis
    exists solely to vary the derived per-trial seed, so ``--workers``
    fans independent search shards across the pool.  The valid spaces
    must report zero counterexamples; the ``known-bad`` shards (full
    scale) must each find one — they regression-test the oracle itself.
    """
    return CampaignSpec(
        name="FUZZ",
        description=(
            "Property-based fuzz shards: theorem-bound counterexample "
            "search over valid and known-bad strategy spaces"
        ),
        seed=43,
        scenarios=(
            ScenarioSpec(
                builder="fuzz-probe",
                base={},
                axes={
                    "quick": {
                        "strategy": ("valid",),
                        "budget": (25,),
                        "shard": (0, 1),
                    },
                    "full": {
                        "strategy": ("cps", "churn"),
                        "budget": (75,),
                        "shard": (0, 1, 2, 3),
                    },
                },
            ),
            ScenarioSpec(
                builder="fuzz-probe",
                base={"strategy": "known-bad", "budget": 20},
                axes={
                    "quick": {"shard": (0,)},
                    "full": {"shard": (0, 1)},
                },
            ),
        ),
        measurements={
            # The search loop owns its pulse counts (they are part of
            # each synthesized case); the tier only sets trace level.
            "quick": MeasurementSpec(pulses=0, warmup=0),
            "full": MeasurementSpec(pulses=0, warmup=0),
        },
    )


def fuzz_table(run: CampaignRun) -> Table:
    """Assemble the FUZZ table from campaign trial records."""
    table = Table(
        "FUZZ — property-based counterexample search "
        "(sharded strategy spaces)",
        [
            "strategy",
            "shard",
            "budget",
            "executions",
            "found",
            "ok",
            "counterexample",
            "interesting",
        ],
    )
    for record in run.records:
        case = record.case
        m = record.metrics
        table.add_row(
            case.get("strategy", "valid"),
            case.get("shard", 0),
            case.get("budget", 0),
            m.get("executions", 0),
            m.get("found", False),
            m.get("ok", False),
            m.get("counterexample_id", "") or "-",
            m.get("interesting", 0),
        )
    table.add_note(
        "'ok' means the shard ended the way its space predicts: valid "
        "spaces find nothing, the known-bad space (E8's u_tilde >> u "
        "regime) always yields a shrunk counterexample; reproduce any "
        "row with repro fuzz run --strategy S --budget B --seed "
        "<derived>."
    )
    return table


def fuzz_scenarios(scale: str = "quick") -> Table:
    """Sharded property-based search over the fuzz strategy spaces."""
    return fuzz_table(execute_campaign(fuzz_campaign(), scale=scale))


# ======================================================================
# E9-SCALE — vectorized-backend scale study to n = 10,000
# ======================================================================


def e9_scale_campaign() -> CampaignSpec:
    """Skew vs the Theorem 17 bound at n = 100 / 1,000 / 10,000 on the
    vectorized backend (silent adversary, maximum delays, extreme
    drift).

    The event engine dispatches every message individually — at
    n = 10,000 a single pulse round models ~10^8 deliveries, far past
    its reach — so this is the one campaign whose measurement pins
    ``backend="vectorized"``: the round-batched numpy engine
    (:mod:`repro.sim.vectorized`) computes the same protocol semantics
    in a handful of block operations per round, and the differential
    suite pins it verdict- and pulse-identical to the event engine at
    small n.  The u = 0.01 base keeps theta = 1.001 feasible while the
    extreme drift profile exercises the piecewise clock fast paths.
    """
    return CampaignSpec(
        name="E9-SCALE",
        description=(
            "Vectorized-backend scale study: skew vs bound at "
            "n = 100 / 1,000 / 10,000"
        ),
        seed=29,
        scenarios=(
            ScenarioSpec(
                builder="cps-stress",
                base={
                    "theta": 1.001,
                    "d": 1.0,
                    "u": 0.01,
                    "adversary": "silent",
                    "delay": "maximum",
                    "drift": "extreme",
                },
                axes={
                    "quick": {"n": (100, 1000, 10000)},
                    "full": {"n": (100, 1000, 10000)},
                    "stress": {"n": (1000, 10000)},
                },
            ),
        ),
        measurements={
            "quick": MeasurementSpec(
                pulses=5, warmup=2, backend="vectorized"
            ),
            "full": MeasurementSpec(
                pulses=8, warmup=2, backend="vectorized"
            ),
            "stress": MeasurementSpec(
                pulses=12, warmup=3, backend="vectorized"
            ),
        },
    )


def e9_scale_table(run: CampaignRun) -> Table:
    """Assemble the E9-SCALE table from campaign trial records."""
    table = Table(
        "E9-SCALE — vectorized backend at n = 100 / 1,000 / 10,000 "
        "(silent adversary, maximum delays, extreme drift)",
        [
            "n",
            "f",
            "max skew",
            "steady skew",
            "bound S",
            "within",
            "live",
            "modeled events",
        ],
    )
    for record in run.records:
        m = record.metrics
        table.add_row(
            record.case["n"],
            m.get("f", float("nan")),
            m.get("max_skew", float("inf")),
            m.get("steady_skew", float("inf")),
            m.get("bound_S", float("nan")),
            m.get("within", False),
            m.get("live", False),
            m.get("events", 0),
        )
    table.add_note(
        "Runs on the round-batched numpy backend "
        "(repro.sim.vectorized; see docs/VECTORIZED.md); 'modeled "
        "events' counts the deliveries the event engine would have "
        "dispatched, not work done here, so its rate is not comparable "
        "across backends. "
        "The differential suite (tests/test_vectorized.py) pins both "
        "backends verdict-identical at small n."
    )
    return table


def e9_scale_study(scale: str = "quick") -> Table:
    """Vectorized scale study: the bound holds out to n = 10,000."""
    return e9_scale_table(
        execute_campaign(e9_scale_campaign(), scale=scale)
    )


def ablation_matrix(scale: str = "quick") -> Table:
    """Per-component ablation importance (see :mod:`repro.ablation`).

    Executes the baseline-plus-one-off challenge matrix and renders the
    monitor-flip table; ``repro ablate run`` is the full surface
    (stores, pools, adaptive replication, the committed JSON artifact).
    """
    spec = AblationSpec()
    run = execute_campaign(ablation_campaign_spec(spec), scale=scale)
    return render_ablation_table(ablation_report(spec, run))


# ======================================================================
# Registry
# ======================================================================

EXPERIMENTS: Dict[str, Callable[..., Table]] = {
    "E1": e1_apa_convergence,
    "E2": e2_crusader,
    "E3": e3_tcb_accuracy,
    "E4": e4_cps_skew,
    "E5": e5_resilience,
    "E6": e6_baselines,
    "E7": e7_lower_bound,
    "E8": e8_utilde_degradation,
    "E9": e9_periods,
    "E10": e10_convergence,
    "A1": a1_no_echo_rejection,
    "A2": a2_discard_rule,
    "A3": a3_send_offset,
    "E9-SCALE": e9_scale_study,
    "STRESS": stress_scenarios,
    "CHURN-STRESS": churn_scenarios,
    "FUZZ": fuzz_scenarios,
    "ABLATION": ablation_matrix,
}


def run_experiment(name: str, scale: str = "quick") -> Table:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    try:
        function = EXPERIMENTS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    return function(scale=scale)


# E1/E4/E5/E6 are ported to the campaign engine: their grids are
# declarative specs, so ``repro campaign run E4 --workers 8`` executes
# the same trials in parallel (with optional result-store caching) and
# renders the identical table.  STRESS is campaign-native: its grid is
# built entirely from scenario-registry keys.
CAMPAIGN_PORTS = tuple(
    register_campaign(
        CampaignDefinition(
            name=spec_factory().name,
            spec=spec_factory,
            tabulate=table_factory,
            description=spec_factory().description,
        )
    )
    for spec_factory, table_factory in (
        (e1_campaign, e1_table),
        (e4_campaign, e4_table),
        (e5_campaign, e5_table),
        (e6_campaign, e6_table),
        (stress_campaign, stress_table),
        (churn_campaign, churn_table),
        (fuzz_campaign, fuzz_table),
        (e9_scale_campaign, e9_scale_table),
        (ablation_campaign_spec, ablation_table),
    )
)
