"""The benchmark's three workloads, built only from public ``repro`` calls.

A workload is prepared (untimed: planning and simulation builds), then
executed (timed).  One prepare-plus-execute is a *pass*; a run repeats
passes for its time budget.  Every pass starts cold: the signature
verify memo is cleared and the simulations are freshly built, because a
user pays both on every command-line run.

Each pass checks its own outputs (the correctness gate) and returns a
digest of the honest pulse streams and records, which must be identical
for every pass of the same code and seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from tracing import Patches

#: Slack on the Theorem 17 comparison: vectorized-10k sits exactly at S.
SKEW_SLACK = 1e-9

#: The base model every workload shares (the STRESS campaign's).
BASE = {"theta": 1.001, "d": 1.0, "u": 0.02}


@dataclass
class Trial:
    """One simulation (or campaign trial, or conformance scenario)."""

    ident: str
    seconds: float
    failure: Optional[str] = None
    node_rounds: int = 0
    events: int = 0


@dataclass
class PassResult:
    """What one timed pass produced."""

    wall_s: float
    trials: List[Trial]
    node_rounds: int
    events: int  # dispatched events; 0 on the vectorized backend
    digest: str
    memo_hits: int
    memo_misses: int
    checks: List[Trial] = field(default_factory=list)
    #: Multiplier to reference speed (see ``speed.py``); 1 = raw time.
    factor: float = 1.0
    #: Raw seconds the pass's untimed set-up took.
    prepare_s: float = 0.0

    @property
    def units(self) -> Dict[str, float]:
        """The pass's scaled wall time split into trials, checks, rest."""
        parts = {t.ident: t.seconds for t in self.trials + self.checks}
        parts["rest"] = self.wall_s - sum(parts.values())
        return {ident: self.factor * t for ident, t in parts.items()}

    @property
    def failures(self) -> List[Trial]:
        return [t for t in self.trials + self.checks if t.failure]


def digest_of(items: Sequence[Any]) -> str:
    """SHA-256 of canonical JSON (floats print exactly, as ``repr``)."""
    text = json.dumps(list(items), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def honest_streams(result: Any) -> Dict[str, List[float]]:
    return {str(v): list(t) for v, t in result.honest_pulses().items()}


def gate(result: Any, pulses: int, bound: float, warmup: int) -> Optional[str]:
    """Why a finished run fails the correctness gate, or ``None``."""
    from repro.analysis.metrics import PulseReport, check_liveness

    honest = result.honest_pulses()
    short = sorted(v for v, t in honest.items() if len(t) < pulses)
    if short:
        reached = min(len(honest[v]) for v in short)
        return (
            f"{len(short)} honest node(s) missed the quota "
            f"(lowest {reached} of {pulses} pulses)"
        )
    if not check_liveness(honest, pulses):
        return "pulse times not strictly increasing"
    steady = PulseReport.from_pulses(honest, warmup=warmup).steady_skew
    if not steady <= bound + SKEW_SLACK:
        return f"steady skew {steady!r} exceeds S = {bound!r}"
    return None


def _memo() -> Tuple[int, int]:
    from repro.crypto.signatures import verify_cache_stats

    info = verify_cache_stats()
    return info.hits, info.misses


def _cold() -> None:
    """Forget everything a previous pass cached, then settle the heap."""
    from repro.crypto.signatures import clear_verify_cache

    clear_verify_cache()
    gc.collect()


class Workload:
    """Base: ``prepare`` (untimed) returns state ``execute`` consumes."""

    name = ""
    #: The reference kernel that tracks this workload's kind of work.
    kernel = "python"

    def prepare(self) -> Any:
        raise NotImplementedError

    def execute(self, prepared: Any, tracer: Any = None,
                clock: Callable[[], float] = time.perf_counter) -> PassResult:
        """Run the timed phase, timing it with ``clock``."""
        raise NotImplementedError

    def discard(self, prepared: Any) -> None:
        """Release a prepared state that will not be executed."""


def _span(tracer: Any, layer: str, trial: Optional[str] = None) -> Any:
    """``tracer.span(...)`` when tracing, else a no-op context."""
    return tracer.span(layer, trial) if tracer else contextlib.nullcontext()


class SimulationRuns(Workload):
    """Pre-built simulations, each run to a pulse quota and gated."""

    warmup = 5
    events_dispatched = True

    def __init__(self, cases: List[Tuple[str, Dict[str, Any], int]],
                 backend: str, pulses: int, trace: str) -> None:
        self.cases = cases  # (trial id, case dict, build seed)
        self.backend = backend
        self.pulses = pulses
        self.trace = trace

    def prepare(self) -> Any:
        from repro.build import build_simulation

        _cold()
        return [
            (ident, build_simulation(
                case, backend=self.backend, seed=seed, trace=self.trace
            ))
            for ident, case, seed in self.cases
        ]

    def execute(self, prepared: Any, tracer: Any = None,
                clock: Callable[[], float] = time.perf_counter) -> PassResult:
        hits0, misses0 = _memo()
        trials: List[Trial] = []
        streams: List[Any] = []
        with _span(tracer, "workload", "timed"):
            started = clock()
            self._runs(prepared, tracer, clock, trials, streams)
            wall = clock() - started
        hits1, misses1 = _memo()
        return PassResult(
            wall_s=wall,
            trials=trials,
            node_rounds=sum(t.node_rounds for t in trials),
            events=sum(t.events for t in trials),
            digest=digest_of(streams),
            memo_hits=hits1 - hits0,
            memo_misses=misses1 - misses0,
        )

    def _runs(self, prepared: Any, tracer: Any, clock: Callable[[], float],
              trials: List[Trial], streams: List[Any]) -> None:
        for ident, built in prepared:
            with _span(tracer, "trial", ident):
                trial = Trial(ident, 0.0)
                trials.append(trial)
                begin = clock()
                try:
                    result = built.simulation.run(max_pulses=self.pulses)
                except Exception as exc:  # noqa: BLE001 - gate counts it
                    trial.failure = f"{type(exc).__name__}: {exc}"
                    streams.append([ident, trial.failure])
                    trial.seconds = clock() - begin
                    continue
                with _span(tracer, "metrics"):
                    trial.failure = gate(
                        result, self.pulses, built.params.S, self.warmup
                    )
                    trial.node_rounds = sum(
                        len(t) for t in result.honest_pulses().values()
                    )
                    if self.events_dispatched:
                        trial.events = result.events_processed
                    streams.append([ident, honest_streams(result)])
                trial.seconds = clock() - begin


class EventByzantine(SimulationRuns):
    """n=13, f=6: four active adversaries x three delay policies."""

    name = "event-byzantine"
    ADVERSARIES = (
        "mimic-split", "coordinated-offset", "replay", "equivocating-subset"
    )
    DELAYS = ("skewing", "eclipse", "flicker-partition")

    def __init__(self, seed: int, size: str = "full",
                 ablate: Sequence[str] = ()) -> None:
        n, pulses, adversaries, delays = (
            (13, 40, self.ADVERSARIES, self.DELAYS)
            if size == "full"
            # Tiny: one replay run, where an ablated TCB window stalls
            # every node (smoke.py relies on it), and one mimic-split.
            else (7, 10, ("replay", "mimic-split"), self.DELAYS[:1])
        )
        rng = random.Random(seed)
        cases = []
        for adversary in adversaries:
            for delay in delays:
                run_seed = rng.randrange(1 << 31)
                case = dict(BASE, n=n, adversary=adversary, delay=delay,
                            drift="extreme")
                if adversary == "replay":
                    case["adversary_params"] = {"seed": run_seed}
                if ablate:
                    case["ablate"] = list(ablate)
                cases.append((f"{adversary}+{delay}", case, run_seed))
        super().__init__(cases, "event", pulses, trace="pulses")


class Vectorized10k(SimulationRuns):
    """The E9-SCALE point on the round-batched numpy backend."""

    name = "vectorized-10k"
    events_dispatched = False  # the backend dispatches no events
    kernel = "numpy"
    warmup = 2

    def __init__(self, seed: int, size: str = "full",
                 ablate: Sequence[str] = ()) -> None:
        n = 10_000 if size == "full" else 200
        case = {
            "n": n, "theta": 1.001, "d": 1.0, "u": 0.01,
            "adversary": "silent", "delay": "maximum", "drift": "extreme",
        }
        if ablate:
            case["ablate"] = list(ablate)
        rng = random.Random(seed)
        super().__init__(
            [(f"e9-n{n}", case, rng.randrange(1 << 31))],
            "vectorized", pulses=5, trace="none",
        )


class StressCampaign(Workload):
    """STRESS through the serial executor, then its ``--check`` payload."""

    name = "stress-campaign"

    def __init__(self, seed: int, size: str = "full",
                 ablate: Sequence[str] = (), scratch: str = ".") -> None:
        if ablate:
            raise ValueError("stress-campaign takes no ablation")
        from repro.campaigns import campaign_definition

        self.scale = "full" if size == "full" else "quick"
        spec = campaign_definition("STRESS").spec()
        self.spec = replace(spec, seed=random.Random(seed).randrange(1 << 31))
        # Planning is set-up: it validates every scenario name up front.
        self.spec.trials_for(self.scale)
        self.scratch = scratch

    def prepare(self) -> Any:
        from repro.campaigns import ResultStore

        _cold()
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        return root, ResultStore(root)

    def discard(self, prepared: Any) -> None:
        shutil.rmtree(prepared[0], ignore_errors=True)

    def execute(self, prepared: Any, tracer: Any = None,
                clock: Callable[[], float] = time.perf_counter) -> PassResult:
        from repro.campaigns import execute_campaign, executor
        from repro.checks import conformance
        from repro.checks.campaign import campaign_conformance
        from repro.sim.scheduler import Simulation

        root, store = prepared
        # Capture each run's result, keyed by the campaign trial (or the
        # conformance check) it belongs to, for node-rounds and digests.
        runs: Dict[str, List[Any]] = {}
        owner = ["check"]

        def tap_run(simulation: Any, *args: Any, **kwargs: Any) -> Any:
            result = run_original(simulation, *args, **kwargs)
            runs.setdefault(owner[0], []).append(result)
            return result

        seconds: Dict[str, float] = {}

        def tap_trial(plan: Any, *args: Any, **kwargs: Any) -> Any:
            owner[0] = f"trial{plan.index}"
            begin = clock()
            try:
                return trial_original(plan, *args, **kwargs)
            finally:
                seconds[owner[0]] = clock() - begin
                owner[0] = "check"

        def tap_check(kind: str, key: str, *args: Any, **kwargs: Any) -> Any:
            begin = clock()
            report = check_original(kind, key, *args, **kwargs)
            seconds[f"check:{kind}:{key}"] = clock() - begin
            return report

        run_original = Simulation.run
        trial_original = executor.run_trial
        check_original = conformance.check_scenario
        hits0, misses0 = _memo()
        with Patches() as patches:
            patches.set(Simulation, "run", tap_run)
            patches.everywhere(trial_original, tap_trial)
            patches.everywhere(check_original, tap_check)
            try:
                with _span(tracer, "workload", "timed"):
                    started = clock()
                    run = execute_campaign(
                        self.spec, scale=self.scale, store=store
                    )
                    payload = campaign_conformance(self.spec, self.scale)
                    wall = clock() - started
            finally:
                shutil.rmtree(root, ignore_errors=True)
        hits1, misses1 = _memo()

        def rounds(results: List[Any]) -> int:
            return sum(
                len(t) for r in results for t in r.honest_pulses().values()
            )

        trials = []
        for record in run.records:
            ident = f"trial{record.index}"
            failure = record.error
            if failure is None and not (
                record.metrics.get("within") and record.metrics.get("live")
            ):
                failure = (
                    f"record not within/live: "
                    f"steady {record.metrics.get('steady_skew')!r} vs "
                    f"S {record.metrics.get('bound_S')!r}, "
                    f"live {record.metrics.get('live')}"
                )
            trials.append(Trial(
                ident, seconds[ident], failure,
                node_rounds=rounds(runs.get(ident, [])),
            ))
        checks = []
        for entry in payload["scenarios"]:
            ident = f"check:{entry['kind']}:{entry['key']}"
            failure = None if entry["ok"] else (
                f"conformance failed: {entry['error'] or entry['verdicts']}"
            )
            checks.append(Trial(ident, seconds[ident], failure))
        if not payload["pass"] and not any(c.failure for c in checks):
            checks.append(Trial("check:payload", 0.0, "payload not pass"))
        records = [
            {k: v for k, v in r.to_json_dict().items() if k != "duration"}
            for r in run.records
        ]
        streams = [
            [ident, [honest_streams(r) for r in results]]
            for ident, results in sorted(runs.items())
        ]
        return PassResult(
            wall_s=wall,
            trials=trials,
            checks=checks,
            node_rounds=sum(rounds(results) for results in runs.values()),
            events=sum(
                r.events_processed
                for results in runs.values() for r in results
            ),
            digest=digest_of([records, streams, payload]),
            memo_hits=hits1 - hits0,
            memo_misses=misses1 - misses0,
        )


WORKLOADS = {
    EventByzantine.name: EventByzantine,
    Vectorized10k.name: Vectorized10k,
    StressCampaign.name: StressCampaign,
}
