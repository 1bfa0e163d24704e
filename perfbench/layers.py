"""The per-layer breakdown: which ``repro`` entry points become spans,
how span totals become per-layer metrics, and what each metric predicts.

Layers are named after the modules they time.  :func:`instrument` wraps
the entry points for one traced pass; :func:`layer_metrics` reduces the
tracer's totals to the metrics ``BENCHMARK.json`` lists under
``per_layer``.  :data:`PREDICTIONS` is the layer -> metric -> workload
table later changes cite when they claim a gain.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

#: layer -> (its metrics, the end-to-end metrics and workloads it moves).
PREDICTIONS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "sim.scheduler": (
        ("sim.scheduler.self_share", "sim.scheduler.events"),
        "events_per_s, wall_s on event-byzantine most, stress-campaign "
        "less; nothing on vectorized-10k",
    ),
    "sim.events": (
        ("sim.events.push_calls", "sim.events.push_share"),
        "as sim.scheduler",
    ),
    "sim.network": (
        ("sim.network.delay_calls", "sim.network.delay_share",
         "sim.network.validate_share"),
        "events_per_s on event-byzantine and stress-campaign",
    ),
    "core.cps / core.tcb": (
        ("core.cps.on_message_calls", "core.cps.on_message_self_share",
         "core.cps.on_timer_calls", "core.cps.on_timer_self_share",
         "core.cps.useful_ratio", "core.tcb.calls", "core.tcb.self_share"),
        "event-byzantine, then stress-campaign",
    ),
    "crypto.signatures": (
        ("crypto.signatures.verify_calls", "crypto.signatures.verify_share",
         "crypto.signatures.memo_hit_ratio"),
        "event-byzantine",
    ),
    "sim.knowledge": (
        ("sim.knowledge.learn_calls", "sim.knowledge.learn_share",
         "sim.knowledge.check_calls", "sim.knowledge.check_share"),
        "event-byzantine only (deliveries to the f=6 faulty nodes)",
    ),
    "sim.adversary": (
        ("sim.adversary.hook_calls", "sim.adversary.hook_self_share"),
        "event-byzantine",
    ),
    "sim.clocks": (
        ("sim.clocks.real_time_calls", "sim.clocks.real_time_share",
         "sim.clocks.local_time_calls", "sim.clocks.local_time_share"),
        "node_rounds_per_s on vectorized-10k (clock inversion); little "
        "elsewhere",
    ),
    "sim.vectorized": (
        ("sim.vectorized.run_self_share",
         "sim.vectorized.delay_matrix_calls",
         "sim.vectorized.delay_matrix_share",
         "sim.vectorized.local_times_share"),
        "node_rounds_per_s and peak_rss_mib on vectorized-10k; zero "
        "elsewhere",
    ),
    "build": (
        ("build.calls", "build.self_share", "core.topology.overlay_share"),
        "trial_p50_s, trial_p90_s, trials_per_s on stress-campaign; "
        "setup_s on vectorized-10k; about zero on event-byzantine",
    ),
    "campaigns": (
        ("campaigns.executor_self_share", "campaigns.store_append_share"),
        "trials_per_s on stress-campaign",
    ),
    "checks": (
        ("checks.monitors.calls", "checks.monitors.self_share"),
        "wall_s on stress-campaign (its --check part)",
    ),
    "analysis.runner": (
        ("analysis.runner.metrics_share",),
        "stress-campaign",
    ),
    "tracing": (
        ("trace.overhead_ratio", "trace.unattributed_share", "trace.wall_s"),
        "none (describes the traced run itself)",
    ),
}

#: Per-layer metric name -> unit, in ``BENCHMARK.json`` order.
UNITS: Dict[str, str] = {
    name: (
        "ratio" if name.endswith("_ratio")
        else "share" if name.endswith("_share")
        else "s" if name.endswith("_s")
        else "count"
    )
    for metrics, _moves in PREDICTIONS.values()
    for name in metrics
}


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def instrument(tracer: Any, patches: Any) -> None:
    """Wrap every traced entry point; ``patches`` undoes it all."""
    # Import everything first: a module imported while patched would
    # keep the wrapper after the patches are undone.
    import repro.analysis.experiments  # noqa: F401 - registers STRESS
    import repro.analysis.runner as runner
    import repro.build as build
    import repro.campaigns.builders  # noqa: F401
    import repro.campaigns.executor as executor
    import repro.checks.campaign  # noqa: F401
    import repro.checks.conformance as conformance
    import repro.core.topology as topology
    import repro.crypto.signatures as signatures
    import repro.scenarios  # noqa: F401 - every adversary/delay class
    from repro.campaigns.store import ResultStore
    from repro.checks.monitors import CheckSet
    from repro.core.cps import CpsNode
    from repro.core.tcb import TcbInstance
    from repro.sim.adversary import ByzantineBehavior
    from repro.sim.clocks import HardwareClock
    from repro.sim.events import EventQueue
    from repro.sim.knowledge import SignatureKnowledge
    from repro.sim.network import DelayPolicy, NetworkConfig
    from repro.sim.scheduler import Simulation
    from repro.sim.vectorized import engine

    def method(cls: type, name: str, layer: str, coarse: bool = False):
        patches.set(cls, name, tracer.wrap(layer, vars(cls)[name], coarse))

    def function(original: Any, layer: str, **options: Any) -> None:
        patches.everywhere(original, tracer.wrap(layer, original, **options))

    # Coarse spans: build, run, metric computation, trials.
    function(build.build_simulation, "build", coarse=True)
    method(Simulation, "run", "sim.scheduler.run", coarse=True)
    for name in ("honest_send", "faulty_send", "record_pulse"):
        method(Simulation, name, f"sim.scheduler.{name}")
    method(engine.VectorizedSimulation, "run", "sim.vectorized.run",
           coarse=True)
    function(runner.run_pulse_trial, "analysis.runner.run_pulse_trial",
             coarse=True)
    function(executor.execute_campaign, "campaigns.executor", coarse=True)
    function(executor.run_trial, "campaigns.trial",
             trial_of=lambda plan, *a, **k: f"trial{plan.index}")
    function(conformance.check_scenario, "checks.scenario",
             trial_of=lambda kind, key, *a, **k: f"check:{kind}:{key}")

    # Hot-path spans, aggregated per trial.
    method(EventQueue, "push", "sim.events.push")
    for cls in _subclasses(DelayPolicy):
        if "delay" in vars(cls):
            method(cls, "delay", "sim.network.delay")
    method(NetworkConfig, "validate_delay", "sim.network.validate")
    method(CpsNode, "on_message", "core.cps.on_message")
    method(CpsNode, "on_timer", "core.cps.on_timer")
    for name in ("on_direct", "on_echo", "on_window_end", "on_finalize"):
        method(TcbInstance, name, f"core.tcb.{name}")
    function(signatures.verify, "crypto.signatures.verify")
    method(SignatureKnowledge, "learn_payload", "sim.knowledge.learn")
    method(SignatureKnowledge, "check_payload", "sim.knowledge.check")
    for cls in _subclasses(ByzantineBehavior):
        for hook in ("on_honest_send", "on_deliver", "on_wakeup", "on_pulse"):
            if hook in vars(cls):
                method(cls, hook, f"sim.adversary.{hook}")
    method(HardwareClock, "real_time", "sim.clocks.real_time")
    method(HardwareClock, "local_time", "sim.clocks.local_time")
    function(engine.delay_matrix, "sim.vectorized.delay_matrix")
    method(engine._VectorClock, "local_times", "sim.vectorized.local_times")
    function(topology.simulate_full_connectivity, "core.topology.overlay")
    method(ResultStore, "append", "campaigns.store.append")
    for name in ("on_pulse", "on_annotate", "finish"):
        method(CheckSet, name, "checks.monitors")


def layer_metrics(
    totals: Dict[str, List[float]],
    traced_s: float,
    events: int,
    memo_hits: int,
    memo_misses: int,
) -> Dict[str, float]:
    """Per-layer metrics from ``layer -> [count, inclusive, self]``.

    Times are reported as shares of ``traced_s``, the traced pass's
    duration: a share does not move with the host's speed, and a layer
    a workload never enters reads 0 without reading as a frozen time.
    """

    def get(layer: str) -> List[float]:
        return totals.get(layer, [0, 0.0, 0.0])

    def calls(*layers: str) -> int:
        return int(sum(get(layer)[0] for layer in layers))

    def inclusive(*layers: str) -> float:
        return sum(get(layer)[1] for layer in layers) / traced_s

    def own(*layers: str) -> float:
        return sum(get(layer)[2] for layer in layers) / traced_s

    tcb = [f"core.tcb.{n}" for n in
           ("on_direct", "on_echo", "on_window_end", "on_finalize")]
    hooks = [layer for layer in totals if layer.startswith("sim.adversary.")]
    on_message = calls("core.cps.on_message")
    lookups = memo_hits + memo_misses
    return {
        "sim.scheduler.self_share": own(
            "sim.scheduler.run", "sim.scheduler.honest_send",
            "sim.scheduler.faulty_send", "sim.scheduler.record_pulse",
        ),
        "sim.scheduler.events": events,
        "sim.events.push_calls": calls("sim.events.push"),
        "sim.events.push_share": inclusive("sim.events.push"),
        "sim.network.delay_calls": calls("sim.network.delay"),
        "sim.network.delay_share": inclusive("sim.network.delay"),
        "sim.network.validate_share": inclusive("sim.network.validate"),
        "core.cps.on_message_calls": on_message,
        "core.cps.on_message_self_share": own("core.cps.on_message"),
        "core.cps.on_timer_calls": calls("core.cps.on_timer"),
        "core.cps.on_timer_self_share": own("core.cps.on_timer"),
        "core.cps.useful_ratio": (
            calls("core.tcb.on_direct", "core.tcb.on_echo") / on_message
            if on_message else 0.0
        ),
        "core.tcb.calls": calls(*tcb),
        "core.tcb.self_share": own(*tcb),
        "crypto.signatures.verify_calls": calls("crypto.signatures.verify"),
        "crypto.signatures.verify_share": inclusive(
            "crypto.signatures.verify"
        ),
        "crypto.signatures.memo_hit_ratio": (
            memo_hits / lookups if lookups else 0.0
        ),
        "sim.knowledge.learn_calls": calls("sim.knowledge.learn"),
        "sim.knowledge.learn_share": inclusive("sim.knowledge.learn"),
        "sim.knowledge.check_calls": calls("sim.knowledge.check"),
        "sim.knowledge.check_share": inclusive("sim.knowledge.check"),
        "sim.adversary.hook_calls": calls(*hooks),
        "sim.adversary.hook_self_share": own(*hooks),
        "sim.clocks.real_time_calls": calls("sim.clocks.real_time"),
        "sim.clocks.real_time_share": inclusive("sim.clocks.real_time"),
        "sim.clocks.local_time_calls": calls("sim.clocks.local_time"),
        "sim.clocks.local_time_share": inclusive("sim.clocks.local_time"),
        "sim.vectorized.run_self_share": own("sim.vectorized.run"),
        "sim.vectorized.delay_matrix_calls": calls(
            "sim.vectorized.delay_matrix"
        ),
        "sim.vectorized.delay_matrix_share": inclusive(
            "sim.vectorized.delay_matrix"
        ),
        "sim.vectorized.local_times_share": inclusive(
            "sim.vectorized.local_times"
        ),
        "build.calls": calls("build"),
        "build.self_share": own("build"),
        "core.topology.overlay_share": inclusive("core.topology.overlay"),
        "campaigns.executor_self_share": own("campaigns.executor"),
        "campaigns.store_append_share": inclusive("campaigns.store.append"),
        "checks.monitors.calls": calls("checks.monitors"),
        "checks.monitors.self_share": own("checks.monitors"),
        "analysis.runner.metrics_share": own(
            "analysis.runner.run_pulse_trial"
        ),
    }
