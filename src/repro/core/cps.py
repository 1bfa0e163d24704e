"""Algorithm CPS (Figure 3): Crusader Pulse Synchronization.

Each node ``v`` waits until local time ``S`` and then loops over pulses
``r = 1, 2, ...``:

1. generate pulse ``r`` at local time ``H_v(p^r_v)``;
2. act as dealer of its own ``TCB_r`` instance (send ``<r>_v`` at local
   time ``H_v(p^r_v) + theta S``) and participate as receiver in every
   other node's instance;
3. convert each accepted instance output ``h`` into an offset estimate
   ``Delta^r_{v,w} = h - H_v(p^r_v) - d + u - S`` (⊥ stays ⊥; the node's
   own estimate is 0);
4. apply the APA midpoint rule: with ``b`` ⊥ values, sort the non-⊥
   estimates, discard the ``f - b`` lowest and highest, and take the
   midpoint ``Delta^r_v`` of the spanned interval;
5. wait until local time ``H_v(p^r_v) + Delta^r_v + T`` for the next pulse.

Theorem 17: with the parameters of :mod:`repro.core.params`, this is a
``(ceil(n/2)-1)``-secure pulse-synchronization protocol with skew ``S``.

Ablation hooks (used by experiments A1-A3) allow disabling the echo
rejection rule, switching the discard rule to the signature-free ``f``
variant, and changing the dealer send offset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.messages import TcbMessage, tcb_tag
from repro.core.params import ProtocolParameters
from repro.core.tcb import TcbInstance, offset_estimate
from repro.sim.clocks import EPS, HardwareClock, validate_initial_skew
from repro.sim.errors import ConfigurationError
from repro.sim.network import DelayPolicy, NetworkConfig
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sim.scheduler import Simulation
from repro.sim.trace import Trace, TraceSpec
from repro.sync.approx_agreement import midpoint_rule
from repro.sync.crusader import BOT


@dataclass(frozen=True)
class CpsRoundSummary:
    """Diagnostics of one completed CPS round at one node."""

    pulse_round: int
    pulse_local: float
    estimates: Dict[int, Any]
    num_bot: int
    interval: Tuple[float, float]
    correction: float


class CpsNode(TimedProtocol):
    """One (honest) node executing Algorithm CPS."""

    def __init__(
        self,
        params: ProtocolParameters,
        echo_rejection: bool = True,
        discard_rule: str = "f-b",
        dealer_send_offset: Optional[float] = None,
        start_local: Optional[float] = None,
        start_round: Optional[int] = None,
        verify_signatures: bool = True,
        relay_echo: bool = True,
        window_filter: bool = True,
    ) -> None:
        if discard_rule not in ("f-b", "f", "none"):
            raise ConfigurationError(
                f"discard_rule must be 'f-b', 'f', or 'none', "
                f"got {discard_rule!r}"
            )
        self.params = params
        # First-pulse phase and round number; None = the Figure 3
        # defaults (local time S, round 1).  The resynchronization
        # wrapper (repro.dynamics.resync) injects the phase *and* the
        # cohort round a recovering node voted for — TCB instances are
        # tagged by round, so a rejoiner numbering its rounds from 1
        # would discard every cohort message as a mismatch.
        self.start_local = start_local
        self.start_round = start_round
        self.echo_rejection = echo_rejection
        self.discard_rule = discard_rule
        # Ablation toggles (see repro.ablation): trust-all signature
        # verification, direct relay (no echo amplification), and the
        # accept-all window (no TCB filtering).
        self.verify_signatures = verify_signatures
        self.relay_echo = relay_echo
        self.window_filter = window_filter
        self.dealer_send_offset = (
            params.dealer_send_offset
            if dealer_send_offset is None
            else dealer_send_offset
        )
        self.pulse_round = 0
        self.pulse_local = 0.0
        self.instances: Dict[int, TcbInstance] = {}
        self.round_complete = True
        self.summaries: List[CpsRoundSummary] = []

    # ------------------------------------------------------------------
    # TimedProtocol interface

    def on_start(self, api: NodeAPI) -> None:
        first = (
            self.params.S if self.start_local is None else self.start_local
        )
        if self.start_round is not None:
            self.pulse_round = self.start_round - 1
        api.set_timer(first, ("pulse",))

    def on_timer(self, api: NodeAPI, tag: Any) -> None:
        kind = tag[0]
        if kind == "pulse":
            self._begin_round(api)
            return
        if len(tag) >= 2 and tag[1] != self.pulse_round:
            return  # stale timer from an earlier round
        if kind == "dealer-send":
            signature = api.sign(tcb_tag(self.pulse_round))
            api.broadcast(
                TcbMessage(self.pulse_round, api.node_id, signature)
            )
        elif kind == "window-end":
            for instance in self.instances.values():
                instance.on_window_end()
            self._maybe_complete(api)
        elif kind == "finalize":
            dealer = tag[2]
            instance = self.instances.get(dealer)
            if instance is not None:
                instance.on_finalize()
            self._maybe_complete(api)

    def on_message(self, api: NodeAPI, sender: int, payload: Any) -> None:
        if not isinstance(payload, TcbMessage):
            return
        if payload.pulse_round != self.pulse_round or self.round_complete:
            # Early (pre-pulse) and stale receptions fall outside every
            # open window of Figure 2 and are ignored.
            return
        if self.verify_signatures and not payload.is_valid():
            return
        dealer = payload.dealer
        if dealer == api.node_id:
            return  # echoes of our own broadcast carry no information
        instance = self.instances.get(dealer)
        if instance is None or instance.resolved():
            return
        local = api.local_time()
        if sender == dealer:
            actions = instance.on_direct(local)
        else:
            actions = instance.on_echo(local)
        if actions.echo and self.relay_echo:
            api.broadcast(payload)
        if actions.set_finalize_timer is not None:
            api.set_timer(
                actions.set_finalize_timer,
                ("finalize", self.pulse_round, dealer),
            )
            # Observable acceptance (Lemma 11): conformance monitors
            # group these by (round, dealer) and bound their real-time
            # spread; instances later rejected to ⊥ are filtered out
            # via the round summary's estimates.
            api.annotate("tcb-accept", (self.pulse_round, dealer))
        if instance.resolved():
            self._maybe_complete(api)

    # ------------------------------------------------------------------
    # Round lifecycle

    def _begin_round(self, api: NodeAPI) -> None:
        self.pulse_round += 1
        self.pulse_local = api.local_time()
        self.round_complete = False
        api.pulse()
        api.set_timer(
            self.pulse_local + self.dealer_send_offset,
            ("dealer-send", self.pulse_round),
        )
        self.instances = {
            w: TcbInstance(
                dealer=w,
                pulse_round=self.pulse_round,
                pulse_local=self.pulse_local,
                window=self.params.tcb_window,
                finalize_wait=self.params.tcb_finalize_wait,
                echo_rejection=self.echo_rejection,
                window_filter=self.window_filter,
            )
            for w in range(api.n)
            if w != api.node_id
        }
        # The closing timer fires a hair *after* the window bound so that a
        # message arriving exactly at the bound (the Lemma 10 worst case)
        # is still processed first and accepted.
        api.set_timer(
            self.pulse_local + self.params.tcb_window + 2.0 * EPS,
            ("window-end", self.pulse_round),
        )

    def _maybe_complete(self, api: NodeAPI) -> None:
        if self.round_complete:
            return
        if not all(inst.resolved() for inst in self.instances.values()):
            return
        self.round_complete = True
        estimates: Dict[int, Any] = {api.node_id: 0.0}
        for dealer, instance in self.instances.items():
            if instance.output is BOT:
                estimates[dealer] = BOT
            else:
                estimates[dealer] = offset_estimate(
                    instance.output,
                    self.pulse_local,
                    self.params.d,
                    self.params.u,
                    self.params.S,
                )
        non_bot = [v for v in estimates.values() if v is not BOT]
        num_bot = api.n - len(non_bot)
        if self.discard_rule == "none":
            # apa=off ablation: single-shot vote — no ⊥-aware
            # discarding at all, the raw midpoint of every estimate.
            correction, interval = midpoint_rule(non_bot, 0, 0)
        else:
            effective_bot = num_bot if self.discard_rule == "f-b" else 0
            correction, interval = midpoint_rule(
                non_bot, effective_bot, self.params.f
            )
        summary = CpsRoundSummary(
            pulse_round=self.pulse_round,
            pulse_local=self.pulse_local,
            estimates=estimates,
            num_bot=num_bot,
            interval=interval,
            correction=correction,
        )
        self.summaries.append(summary)
        api.annotate("cps-round", summary)
        api.set_timer(
            self.pulse_local + correction + self.params.T, ("pulse",)
        )


# ----------------------------------------------------------------------
# Simulation assembly helpers


def default_clocks(
    params: ProtocolParameters,
    seed: int = 0,
    horizon: float = 0.0,
    style: str = "random",
) -> List[HardwareClock]:
    """Build a plausible clock ensemble for a CPS run.

    ``style`` selects the ensemble: ``"random"`` draws initial offsets in
    ``[0, S]`` and wandering rates in ``[1, theta]``; ``"extreme"`` puts
    half the nodes at rate 1 / offset 0 and half at rate theta / offset S
    (the adversarial corner the analysis is tight against).
    """
    rng = random.Random(seed)
    horizon = horizon or 200.0 * params.d
    clocks: List[HardwareClock] = []
    for node in range(params.n):
        if style == "extreme":
            if node % 2 == 0:
                clocks.append(
                    HardwareClock.constant_rate(
                        1.0, offset=0.0, theta=params.theta
                    )
                )
            else:
                clocks.append(
                    HardwareClock.constant_rate(
                        params.theta, offset=params.S, theta=params.theta
                    )
                )
        elif style == "random":
            clocks.append(
                HardwareClock.random_drift(
                    rng,
                    params.theta,
                    offset=rng.uniform(0.0, params.S),
                    horizon=horizon,
                    segment_length=max(horizon / 40.0, params.d),
                )
            )
        else:
            raise ConfigurationError(f"unknown clock style {style!r}")
    return clocks


def assemble_cps_simulation(
    params: ProtocolParameters,
    clocks: Optional[Sequence[HardwareClock]] = None,
    faulty: Sequence[int] = (),
    behavior=None,
    delay_policy: Optional[DelayPolicy] = None,
    u_tilde: Optional[float] = None,
    seed: int = 0,
    trace: TraceSpec = True,
    clock_style: str = "random",
    checks=None,
    dynamics=None,
    network_timing: Optional[Tuple[float, float]] = None,
    **node_kwargs: Any,
) -> Simulation:
    """Wire a ready-to-run event-engine CPS simulation.

    This is the low-level assembly step: explicit clocks, behaviours,
    and hooks, always on the event backend.  Registry-keyed
    construction and backend selection live in
    :func:`repro.build.build_simulation`, which most callers should
    use instead.

    ``node_kwargs`` are forwarded to :class:`CpsNode` (ablation hooks).
    Initial clock offsets are validated against the ``H_v(0) in [0, S]``
    assumption of Figure 3.  ``checks`` installs a streaming
    :class:`~repro.sim.runtime.SimulationChecks` observer (conformance
    monitors; see :mod:`repro.checks`); ``dynamics`` installs a
    :class:`~repro.sim.runtime.DynamicsHook` (churn schedules; see
    :mod:`repro.dynamics`).

    ``network_timing`` overrides the network's ``(d, u)`` independently
    of the protocol parameters — the ``overlay=off`` ablation runs the
    base-graph parameterization against the overlay network's real
    effective delays.
    """
    net_d, net_u = (
        (params.d, params.u) if network_timing is None else network_timing
    )
    config = NetworkConfig(params.n, net_d, net_u, u_tilde)
    if clocks is None:
        clocks = default_clocks(params, seed=seed, style=clock_style)
    validate_initial_skew(
        [clocks[v] for v in range(params.n) if v not in set(faulty)],
        params.S,
    )
    return Simulation(
        config=config,
        clocks=clocks,
        protocol_factory=lambda v: CpsNode(params, **node_kwargs),
        faulty=faulty,
        behavior=behavior,
        delay_policy=delay_policy,
        f=params.f,
        trace=Trace.from_spec(trace),
        checks=checks,
        dynamics=dynamics,
    )
