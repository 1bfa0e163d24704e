"""Integration tests for the timed discrete-event simulator."""

import pytest

from repro.sim.adversary import (
    ByzantineBehavior,
    HonestUntilCrash,
    ScheduledSendAdversary,
)
from repro.sim.clocks import HardwareClock
from repro.sim.errors import (
    ConfigurationError,
    ForgeryError,
    SimulationError,
)
from repro.sim.network import MaximumDelayPolicy, NetworkConfig
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sim.scheduler import Simulation
from repro.sim.trace import DeliveryRecord, SendRecord


class EchoProtocol(TimedProtocol):
    """Test protocol: pulse at fixed local period; echo received payloads
    once; record everything."""

    def __init__(self, period: float = 10.0) -> None:
        self.period = period
        self.received = []
        self.signed = []

    def on_start(self, api: NodeAPI) -> None:
        api.set_timer(self.period, "tick")

    def on_message(self, api: NodeAPI, sender: int, payload) -> None:
        self.received.append((sender, payload, api.local_time()))

    def on_timer(self, api: NodeAPI, tag) -> None:
        api.pulse()
        if len(self.received) == 0:
            api.broadcast(("hello", api.node_id))
        api.set_timer(api.local_time() + self.period, "tick")


def build(n=3, faulty=(), behavior=None, clocks=None, policy=None, f=None):
    config = NetworkConfig(n, d=1.0, u=0.2)
    clocks = clocks or [HardwareClock.constant_rate() for _ in range(n)]
    return Simulation(
        config,
        clocks,
        protocol_factory=lambda v: EchoProtocol(),
        faulty=faulty,
        behavior=behavior,
        delay_policy=policy or MaximumDelayPolicy(),
        f=f,
    )


class TestBasicMechanics:
    def test_requires_stop_condition(self):
        with pytest.raises(ConfigurationError):
            build().run()

    def test_clock_count_must_match(self):
        config = NetworkConfig(3, d=1.0, u=0.2)
        with pytest.raises(ConfigurationError):
            Simulation(
                config,
                [HardwareClock.constant_rate()],
                protocol_factory=lambda v: EchoProtocol(),
            )

    def test_faulty_count_checked_against_f(self):
        with pytest.raises(ConfigurationError):
            build(faulty=[0, 1], f=1)

    def test_faulty_ids_in_range(self):
        with pytest.raises(ConfigurationError):
            build(faulty=[7])

    def test_pulses_recorded_per_node(self):
        sim = build()
        result = sim.run(max_pulses=3)
        for v in range(3):
            assert len(result.pulses[v]) >= 3
            assert result.pulses[v][0] == pytest.approx(10.0)

    def test_max_pulses_stops_promptly(self):
        result = build().run(max_pulses=2)
        assert all(len(result.pulses[v]) == 2 for v in range(3))

    def test_until_stops_by_time(self):
        result = build().run(until=25.0)
        assert result.end_time <= 25.0 + 1e-9
        assert all(len(result.pulses[v]) == 2 for v in range(3))

    def test_event_cap_raises(self):
        with pytest.raises(SimulationError):
            build().run(max_pulses=1000, max_events=10)

    def test_broadcast_reaches_all_others(self):
        sim = build()
        sim.run(max_pulses=2)
        for v in range(3):
            protocol = sim.protocol(v)
            senders = {sender for sender, _, _ in protocol.received}
            assert senders == {w for w in range(3) if w != v}

    def test_delivery_delay_respected(self):
        sim = build()
        result = sim.run(max_pulses=2)
        sends = {
            (r.src, r.dst): r.time for r in result.trace.of_type(SendRecord)
        }
        for record in result.trace.of_type(DeliveryRecord):
            assert record.time == pytest.approx(
                sends[(record.src, record.dst)] + 1.0
            )

    def test_local_time_follows_clock(self):
        clocks = [
            HardwareClock.constant_rate(1.1, theta=1.1),
            HardwareClock.constant_rate(1.0, theta=1.1),
            HardwareClock.constant_rate(1.0, theta=1.1),
        ]
        sim = build(clocks=clocks)
        result = sim.run(max_pulses=1)
        # Fast node pulses first: local 10 reached at t = 10/1.1.
        assert result.pulses[0][0] == pytest.approx(10.0 / 1.1)
        assert result.pulses[1][0] == pytest.approx(10.0)

    def test_past_timer_warns_but_fires(self):
        class PastTimer(TimedProtocol):
            def on_start(self, api):
                api.set_timer(5.0, "future")

            def on_message(self, api, sender, payload):
                pass

            def on_timer(self, api, tag):
                if tag == "future":
                    api.set_timer(1.0, "past")  # already passed
                else:
                    api.pulse()

        config = NetworkConfig(1, d=1.0, u=0.0)
        sim = Simulation(
            config,
            [HardwareClock.constant_rate()],
            protocol_factory=lambda v: PastTimer(),
        )
        result = sim.run(max_pulses=1)
        assert len(result.pulses[0]) == 1
        assert any("past" in w for w in result.warnings)


class TestAdversaryContext:
    def test_scheduled_sends_are_delivered(self):
        def payload_fn(ctx):
            return ("fake", 2)

        behavior = ScheduledSendAdversary({3.0: [(2, 0, payload_fn, 1.0)]})
        sim = build(faulty=[2], behavior=behavior)
        sim.run(max_pulses=2)
        received = sim.protocol(0).received
        assert (2, ("fake", 2), 4.0) in received

    def test_adversary_cannot_send_from_honest(self):
        class BadBehavior(ByzantineBehavior):
            def on_start(self, ctx):
                ctx.send_from(0, 1, "spoof")

        with pytest.raises(SimulationError):
            build(faulty=[2], behavior=BadBehavior()).run(max_pulses=1)

    def test_adversary_cannot_sign_for_honest(self):
        class BadSigner(ByzantineBehavior):
            def on_start(self, ctx):
                ctx.sign_as(0, "m")

        with pytest.raises(SimulationError):
            build(faulty=[2], behavior=BadSigner()).run(max_pulses=1)

    def test_forgery_is_blocked(self):
        class Forger(ByzantineBehavior):
            def on_start(self, ctx):
                ctx.wake_at(0.5, "go")

            def on_wakeup(self, ctx, tag):
                # Node 0's signature was never delivered to a faulty node.
                from repro.crypto.pki import PublicKeyInfrastructure

                other = PublicKeyInfrastructure(3)
                ctx.send_from(2, 0, other.key_pair(0).sign("m"))

        with pytest.raises(ForgeryError):
            build(faulty=[2], behavior=Forger()).run(max_pulses=2)

    def test_replaying_learned_signature_is_allowed(self):
        sent = []

        class Replayer(ByzantineBehavior):
            def on_deliver(self, ctx, record):
                if not sent:
                    sent.append(record.payload)
                    ctx.send_from(2, 0, record.payload)

        class Signer(EchoProtocol):
            def on_timer(self, api, tag):
                api.pulse()
                api.broadcast(api.sign(("v", api.node_id)))
                api.set_timer(api.local_time() + self.period, "tick")

        config = NetworkConfig(3, d=1.0, u=0.2)
        sim = Simulation(
            config,
            [HardwareClock.constant_rate() for _ in range(3)],
            protocol_factory=lambda v: Signer(),
            faulty=[2],
            behavior=Replayer(),
        )
        sim.run(max_pulses=3)
        assert sent  # the replay happened without ForgeryError

    def test_adversary_observes_pulses(self):
        seen = []

        class Observer(ByzantineBehavior):
            def on_pulse(self, ctx, node, index, time):
                seen.append((node, index, time))

        build(faulty=[2], behavior=Observer()).run(max_pulses=2)
        assert (0, 1, 10.0) in seen

    def test_wakeup_in_past_rejected(self):
        class TimeTraveller(ByzantineBehavior):
            def on_pulse(self, ctx, node, index, time):
                ctx.wake_at(time - 5.0, "nope")

        with pytest.raises(SimulationError):
            build(faulty=[2], behavior=TimeTraveller()).run(max_pulses=2)

    def test_explicit_delay_validated(self):
        class TooFast(ByzantineBehavior):
            def on_start(self, ctx):
                ctx.send_from(2, 0, "m", delay=0.1)

        from repro.sim.errors import ModelViolation

        with pytest.raises(ModelViolation):
            build(faulty=[2], behavior=TooFast()).run(max_pulses=1)


class TestHonestUntilCrash:
    def test_hosted_protocol_behaves_honestly(self):
        behavior = HonestUntilCrash(lambda v: EchoProtocol())
        sim = build(faulty=[2], behavior=behavior)
        sim.run(max_pulses=2)
        # Honest node 0 heard from the hosted faulty node 2.
        senders = {s for s, _, _ in sim.protocol(0).received}
        assert 2 in senders
        assert behavior.hosted_pulses[2]

    def test_crash_silences_node(self):
        behavior = HonestUntilCrash(
            lambda v: EchoProtocol(), default_crash_time=5.0
        )
        sim = build(faulty=[2], behavior=behavior)
        sim.run(max_pulses=3)
        senders = {s for s, _, _ in sim.protocol(0).received}
        # First broadcast would happen at t=10 > crash time 5.
        assert 2 not in senders


# ----------------------------------------------------------------------
# The honest send path: one multicast loop, adversary hooks on demand


class ChattyProtocol(TimedProtocol):
    """Broadcasts and sends one direct message every local period."""

    def __init__(self) -> None:
        self.received = []

    def on_start(self, api: NodeAPI) -> None:
        api.set_timer(1.0 + 0.25 * api.node_id, "tick")

    def on_message(self, api: NodeAPI, sender: int, payload) -> None:
        self.received.append((sender, payload))

    def on_timer(self, api: NodeAPI, tag) -> None:
        api.pulse()
        count = len(self.received)
        api.broadcast(("b", api.node_id, count))
        api.send((api.node_id + 1) % api.n, ("d", api.node_id, count))
        api.set_timer(api.local_time() + 3.0, "tick")


class EdgeDelayPolicy(MaximumDelayPolicy):
    """Admissible delays, two of them off the bounds by less than EPS."""

    def delay(self, config, src, dst, send_time, payload, link_is_honest):
        low, high = config.delay_bounds(link_is_honest)
        if dst == 0:
            return high + 0.5e-9
        if dst == 2:
            return low - 0.5e-9
        return low + (high - low) * ((src + dst) % 3) / 3


class FixedDelayPolicy(MaximumDelayPolicy):
    def __init__(self, delay: float) -> None:
        self.fixed = delay

    def delay(self, config, src, dst, send_time, payload, link_is_honest):
        return self.fixed


def chatty(behavior=None, trace="full", policy=None, faulty=(1,), config=None):
    from repro.sim.trace import Trace

    config = config or NetworkConfig(4, d=1.0, u=0.2, u_tilde=0.5)
    return Simulation(
        config,
        [HardwareClock.constant_rate() for _ in range(config.n)],
        protocol_factory=lambda v: ChattyProtocol(),
        faulty=faulty,
        behavior=behavior,
        delay_policy=policy or EdgeDelayPolicy(),
        trace=Trace(level=trace),
    )


class SendObserver(ByzantineBehavior):
    def __init__(self) -> None:
        self.sends = []

    def on_honest_send(self, ctx, record):
        self.sends.append(record)


class TestHonestSendHook:
    def test_override_sees_every_send_in_order(self):
        observer = SendObserver()
        chatty(observer, trace="pulses").run(max_pulses=4)
        reference = chatty(trace="full").run(max_pulses=4).trace
        honest = [r for r in reference.of_type(SendRecord) if r.src_honest]
        assert len(honest) > 20
        assert observer.sends == honest
        # Each delay is the validated one: off-bound noise is clamped.
        for record in observer.sends:
            low, high = (0.5, 1.0) if record.dst == 1 else (0.8, 1.0)
            assert low <= record.delay <= high
            if record.dst in (0, 2):
                assert record.delay == (high if record.dst == 0 else low)

    def test_hook_may_send_mid_multicast(self):
        # Node 1 is faulty and comes first in node 0's broadcast, so the
        # hook's own push lands between two pushes of one multicast.
        class Acker(ByzantineBehavior):
            def on_honest_send(self, ctx, record):
                if record.dst == 1:
                    ctx.send_from(1, record.src, ("ack", record.payload))

        sim = chatty(Acker())
        result = sim.run(max_pulses=4)
        records = result.trace.records
        sends = [r for r in records if isinstance(r, SendRecord)]
        acks = [r for r in sends if r.payload[0] == "ack"]
        assert acks
        due = sorted(
            (r.time + r.delay, r.src, r.dst, repr(r.payload))
            for r in sends
            if r.time + r.delay <= result.end_time
        )
        delivered = sorted(
            (r.time, r.src, r.dst, repr(r.payload))
            for r in records
            if isinstance(r, DeliveryRecord)
        )
        assert delivered == due

    def test_out_of_bounds_delay_raises_same_violation(self):
        from repro.sim.errors import ModelViolation

        honest = chatty(policy=FixedDelayPolicy(0.5), faulty=())
        with pytest.raises(ModelViolation) as info:
            honest.run(max_pulses=1)
        assert str(info.value) == (
            "delay 0.5 outside [0.8, 1.0] "
            "(src_honest=True, dst_honest=True)"
        )
        to_faulty = chatty(policy=FixedDelayPolicy(0.4))
        with pytest.raises(ModelViolation) as info:
            to_faulty.honest_send(0, 1, "m")
        assert str(info.value) == (
            "delay 0.4 outside [0.5, 1.0] "
            "(src_honest=True, dst_honest=False)"
        )

    def test_duck_typed_behavior_gets_both_hooks(self):
        class Duck:
            def __init__(self):
                self.sends = []
                self.deliveries = []

            def on_start(self, ctx):
                pass

            def on_honest_send(self, ctx, record):
                self.sends.append(record)

            def on_deliver(self, ctx, record):
                self.deliveries.append(record)

            def on_wakeup(self, ctx, tag):
                pass

            def on_pulse(self, ctx, node, index, time):
                pass

        duck = Duck()
        result = chatty(duck).run(max_pulses=3)
        trace = result.trace
        assert duck.sends == [
            r for r in trace.of_type(SendRecord) if r.src_honest
        ]
        assert duck.deliveries == [
            r for r in trace.of_type(DeliveryRecord) if r.dst == 1
        ]
        assert duck.deliveries

    def test_hooks_follow_behavior_assignment(self):
        sim = chatty()
        observer = SendObserver()
        sim.behavior = observer
        sim.run(max_pulses=2)
        assert observer.sends
        assert sim.behavior is observer


# ----------------------------------------------------------------------
# Bit-identity pins: SHA-256 of honest pulses, events_processed and
# end_time (plus a telemetry snapshot or the full record list where
# named), recorded on the per-message send path these runs replaced.

PIN_BASE = {"n": 7, "theta": 1.001, "d": 1.0, "u": 0.02, "drift": "extreme"}

PINNED = {
    "mimic-split/skewing": "c384452a63b8ac88cdb236de6b4661e6"
    "a551ee858da93117bf2cf3b58dae2bd9",
    "mimic-split/eclipse": "2c8e4ef54cdc724b5dadc43e1a9f9be9"
    "a6137282a1385eb40d522523c55a188f",
    "mimic-split/flicker-partition": "575b89c5ed1f792e3073be7f7a9450e7"
    "f71d76fb464f8a9a91948b41d2591b76",
    "mimic-split/random": "bc369bf0f24fc75a3d198d67ead27f66"
    "ec147e258aeec647ac774a24c554d2ff",
    "coordinated-offset/skewing": "51f4bff22ea37ecc39c7bdc3737c365f"
    "1546724f12d482b0b7617d98c37d24e1",
    "coordinated-offset/eclipse": "a832aacc8ab0dfdbdc55941009534c8e"
    "46d60e1f82a3d28fa6563e0bb384842a",
    "coordinated-offset/flicker-partition": "1a0665c738bbfe3f4a4622fe70aa96f5"
    "fea75bccce5a9be6aca11c18ae823aff",
    "coordinated-offset/random": "ba502519026edae71c49ff1c2c8f2a1d"
    "c05f23f4108be784d2679107187b3cd1",
    "replay/skewing": "6e520d56375e4ab002abd3b4180001bb"
    "97875a87ba10d3cf2ef05e92bbc61d1a",
    "replay/eclipse": "8c4c09a3275fc8ff43e14f2e927d6964"
    "f801b3d3ebdf488110edbb4eddeddf4e",
    "replay/flicker-partition": "5e9bb80b71cbbb1b1379fba0f79b9cb8"
    "c866cdadc786b5cc2dbd239b51797933",
    "replay/random": "b9ba488bb7ff93b579aa6a9116c9708b"
    "635e4510ebe895237325d80e7ecb0fda",
    "equivocating-subset/skewing": "a9db38db8ffd6c05b3db51eca31d3dcc"
    "a69fbab639b086a6896c011d17de215b",
    "equivocating-subset/eclipse": "98e5bd97a415b3b6eef24640a90f2f0a"
    "35ec5f8fc65c1d5ec7da5e81c160636d",
    "equivocating-subset/flicker-partition": "41cb3bae6a2cda2ea70b4b3cab542cb7"
    "2f7b52a70bbf8e1ad1939c60c807e7a3",
    "equivocating-subset/random": "d7b1fcbc69cac819cd1cfb6fd44c599d"
    "4393445e287f06792122bf66a372fa58",
    "rushing-echo/u_tilde": "96446de79b31c98358d4103508273dac"
    "7d7e524796c9225f9f08ed61b4dd6970",
    "honest-until-crash": "ac21b2877be604880384659335acef89"
    "1442f1d0483e659953ffaef74d8aa7d0",
    "churn": "53a0104253c3519da267e14224531e8f"
    "f4b0d1b5b2abfbe00bb1eaf968c7451f",
    "telemetry": "335467c017c83fa5a3d0d1999a19ef0d"
    "e16fa2c7c1087ef0fcce105186621ccf",
    "full-trace": "fe42b32c5d6da9944c4fef2e12273d80"
    "24e097349fef09188a09b6a8fe4f6855",
}


def _fingerprint(result, extra=None):
    import hashlib
    import json

    payload = {
        "pulses": {str(v): t for v, t in result.honest_pulses().items()},
        "end_time": result.end_time,
        "events": result.events_processed,
    }
    if extra is not None:
        payload["extra"] = extra
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pinned_run(pulses=6, trace="pulses", **keys):
    from repro.build import build_simulation

    case = dict(PIN_BASE, **keys)
    built = build_simulation(case, seed=5, trace=trace)
    return built.simulation.run(max_pulses=pulses)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "delay", ["skewing", "eclipse", "flicker-partition", "random"]
    )
    @pytest.mark.parametrize(
        "adversary",
        ["mimic-split", "coordinated-offset", "replay", "equivocating-subset"],
    )
    def test_adversary_grid(self, adversary, delay):
        keys = {"adversary": adversary, "delay": delay}
        if adversary == "replay":
            keys["adversary_params"] = {"seed": 3}
        result = _pinned_run(**keys)
        assert _fingerprint(result) == PINNED[f"{adversary}/{delay}"]

    def test_rushing_echo_over_weak_faulty_links(self):
        result = _pinned_run(
            adversary="rushing-echo", delay="random", u_tilde=0.3
        )
        assert _fingerprint(result) == PINNED["rushing-echo/u_tilde"]

    def test_honest_until_crash(self):
        from repro import scenarios
        from repro.core.cps import CpsNode, assemble_cps_simulation
        from repro.core.params import derive_parameters

        params = derive_parameters(1.001, 1.0, 0.02, 7)
        sim = assemble_cps_simulation(
            params,
            clocks=scenarios.create("drift", "extreme", params, 5),
            faulty=[5, 6],
            behavior=HonestUntilCrash(
                lambda v: CpsNode(params), crash_times={6: 12.0}
            ),
            delay_policy=scenarios.create("delay", "random", 7),
            trace="pulses",
        )
        result = sim.run(max_pulses=6)
        assert _fingerprint(result) == PINNED["honest-until-crash"]

    def test_churn_schedule(self):
        result = _pinned_run(
            pulses=8, adversary="replay", delay="random",
            churn="crash-recover-wave",
        )
        assert _fingerprint(result) == PINNED["churn"]

    def test_telemetry_snapshot(self):
        from repro.crypto.signatures import clear_verify_cache
        from repro.telemetry import Telemetry, telemetry_session

        clear_verify_cache()  # the snapshot counts memo hits and misses
        telemetry = Telemetry(label="pin")
        with telemetry_session(telemetry):
            result = _pinned_run(adversary="replay", delay="eclipse")
        assert (
            _fingerprint(result, telemetry.as_dict()) == PINNED["telemetry"]
        )

    def test_full_trace_records(self):
        result = _pinned_run(
            pulses=4, trace="full", adversary="replay",
            delay="flicker-partition",
        )
        records = [repr(record) for record in result.trace.records]
        assert _fingerprint(result, records) == PINNED["full-trace"]
