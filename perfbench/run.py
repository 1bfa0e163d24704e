"""Benchmark entry point: one workload, one seed, one time budget.

Usage (from the repository root)::

    python3 perfbench/run.py --workload event-byzantine --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures untraced passes, then one traced pass, and
reports the per-layer metrics, the tracing overhead and the self-time
accounting; the spans are written to ``.perfbench/`` at the end.

Every pass is checked (the correctness gate, see ``workloads.py``).
The last line of standard output is one JSON object; the exit code is 0
only when every trial passed the gate and every pass produced the same
digest.  ``--size tiny`` and ``--ablate`` exist for ``smoke.py``: tiny
inputs, and a protocol component switched off to prove the gate fires.
"""

from __future__ import annotations

import os

# One thread per run: numpy's BLAS pools must not fan out on a shared
# two-core machine.  Set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run outputs (temporary result stores, span files); git-ignored.
SCRATCH = ROOT / ".perfbench"

#: End-to-end metrics in the JSON line of ``--trace 0``, with units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "node_rounds_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
#: End-to-end figures the report prints but the JSON line leaves out:
#: their run-to-run spread exceeds any bound the driver allows (see
#: README.md), or they can be zero.
REPORTED: Dict[str, str] = {
    "trial_p50_s": "s",
    "trial_p90_s": "s",
    "events_per_s": "1/s",
}

#: Fewest timed passes a run makes, whatever its time budget.
MIN_PASSES = 3
#: Fresh-process set-ups timed per ``--trace 0`` run (median reported).
SETUP_PROBES = {"full": 7, "tiny": 2}
#: Relative slack on "self times add up to the traced wall time".
ACCOUNTING_TOLERANCE = 1e-9


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("event-byzantine", "vectorized-10k",
                                 "stress-campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--ablate", action="append", default=[])
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(args: argparse.Namespace) -> Any:
    from workloads import WORKLOADS

    options: Dict[str, Any] = {"size": args.size, "ablate": args.ablate}
    if args.workload == "stress-campaign":
        SCRATCH.mkdir(exist_ok=True)
        options["scratch"] = str(SCRATCH)
    return WORKLOADS[args.workload](args.seed, **options)


def setup_probe(args: argparse.Namespace) -> None:
    """Child side: set up one pass; print when, and at what speed.

    The printed time excludes the speedometer's own sampling.
    """
    from workloads import WORKLOADS

    with speed.Speedometer(WORKLOADS[args.workload].kernel) as meter:
        workload = make_workload(args)
        prepared = workload.prepare()
        done = time.monotonic() - meter.spent
        factor = meter.factor()
    workload.discard(prepared)
    print(repr(done), repr(factor))


def setup_seconds(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """Fresh-process set-up times: spawn to the first timed call.

    Parent and child read the same system-wide monotonic clock, so the
    figure includes interpreter start, imports, registry, planning and
    the pre-built simulations of one pass.  Each sample is
    ``(raw seconds, speed factor)``; the child measures its own factor
    while it sets up.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--size", args.size]
    for component in args.ablate:
        command += ["--ablate", component]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        spawned = time.monotonic()
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=120, cwd=ROOT)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        done, factor = map(float, child.stdout.split()[-2:])
        samples.append((done - spawned, factor))
    return samples


def run_passes(workload: Any, seconds: float) -> List[Any]:
    """Untraced passes within the budget (at least MIN_PASSES).

    A :class:`speed.Speedometer` runs throughout; each pass is timed on
    its clock and carries its speed factor.
    """
    passes: List[Any] = []
    started = time.perf_counter()
    deadline = started + seconds
    with speed.Speedometer(workload.kernel) as meter:
        while len(passes) < MIN_PASSES or (
            # start another pass only if a typical one still fits
            time.perf_counter() + (time.perf_counter() - started) / len(passes)
            <= deadline
        ):
            begin = meter.clock()
            prepared = workload.prepare()
            prepare_s = meter.clock() - begin
            first = len(meter.samples)
            result = workload.execute(prepared, clock=meter.clock)
            result.factor = meter.factor(first)
            result.prepare_s = prepare_s
            passes.append(result)
    return passes


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated inside the sample's range.

    The inclusive method never extrapolates past the slowest sample,
    which keeps the figure steady when a workload has few trials.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def robust_wall(passes: List[Any]) -> float:
    """A pass's wall time, robust to bursts of interference.

    Each unit of a pass (a trial, a conformance check, the remainder)
    takes its median over the passes; the pass time is their sum.  On a
    shared machine a burst slows some units of some passes, and a
    per-unit median drops it where a median of whole passes cannot.
    """
    return sum(
        statistics.median(p.units[unit] for p in passes)
        for unit in passes[0].units
    )


def trial_latencies(passes: List[Any]) -> List[float]:
    """Per-trial latency at reference speed: its median over passes."""
    return [
        statistics.median(p.factor * p.trials[index].seconds for p in passes)
        for index in range(len(passes[0].trials))
    ]


def end_to_end(
    passes: List[Any], setups: List[Tuple[float, float]]
) -> Dict[str, float]:
    """End-to-end metrics, every time at reference speed."""
    wall = robust_wall(passes)
    latencies = trial_latencies(passes)
    return {
        "setup_s": statistics.median(raw * f for raw, f in setups),
        "wall_s": wall,
        "node_rounds_per_s": passes[0].node_rounds / wall,
        "trials_per_s": len(passes[0].trials) / wall,
        "trial_p50_s": statistics.median(latencies),
        "trial_p90_s": percentile(latencies, 90),
        "events_per_s": passes[0].events / wall,
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }


def traced_pass(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """One traced pass (set-up and timed phase): per-layer metrics."""
    from layers import instrument, layer_metrics
    from tracing import Patches, Tracer

    tracer = Tracer()
    with Patches() as patches:
        instrument(tracer, patches)
        with tracer.span("setup", "setup"):
            prepared = workload.prepare()
        result = workload.execute(prepared, tracer)
    traced_s, self_sum, unattributed = tracer.accounting()
    totals = tracer.layer_totals()
    metrics = layer_metrics(totals, traced_s, result.events,
                            result.memo_hits, result.memo_misses)
    metrics["trace.unattributed_share"] = unattributed / traced_s
    metrics["trace.wall_s"] = traced_s
    SCRATCH.mkdir(exist_ok=True)
    spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(str(spans))
    return {
        "result": result,
        "metrics": metrics,
        "totals": totals,
        "self_sum": self_sum,
        "unattributed": unattributed,
        "spans": spans,
    }


def report_line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<34} {value:>16.6g} {unit:<6} {note}"


def report_end_to_end(
    passes: List[Any], setups: List[Tuple[float, float]]
) -> Dict[str, Tuple[float, str]]:
    """Print the end-to-end figures; return the JSON line's metrics."""
    print("  times are at reference speed (see perfbench/speed.py)")
    values = end_to_end(passes, setups)
    latencies = trial_latencies(passes)
    beyond = sum(1 for t in latencies if t > values["trial_p90_s"])
    walls = [p.wall_s for p in passes]
    per_pass = f"{len(walls)} passes"
    raw_setups = [raw for raw, _factor in setups]
    factors = [p.factor for p in passes]
    notes = {
        "setup_s": (
            f"median of {len(setups)} fresh-process set-ups; "
            f"raw {min(raw_setups):.4g}-{max(raw_setups):.4g}"
        ),
        "wall_s": (
            f"sum of per-unit medians over {per_pass}; raw passes "
            f"{min(walls):.4g}-{max(walls):.4g}, speed factors "
            f"{min(factors):.3f}-{max(factors):.3f}"
        ),
        "node_rounds_per_s": (
            f"{passes[0].node_rounds} node-rounds per pass / wall_s"
        ),
        "trials_per_s": f"{len(latencies)} trials per pass / wall_s",
        "trial_p50_s": f"{len(latencies)} trials, medians of {per_pass}",
        "trial_p90_s": (
            f"{len(latencies)} trials, {beyond} beyond, "
            f"medians of {per_pass}"
        ),
        "peak_rss_mib": f"peak of this process over {per_pass}",
    }
    if passes[0].events:
        notes["events_per_s"] = (
            f"{passes[0].events} dispatched events per pass / wall_s"
        )
    for name, unit in {**END_TO_END, **REPORTED}.items():
        if name in notes:
            print(report_line(name, values[name], unit, notes[name]))
    if not passes[0].events:
        print("  events_per_s: not applicable (no events dispatched)")
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def report_layers(
    passes: List[Any], traced: Dict[str, Any], problems: List[str]
) -> Dict[str, Tuple[float, str]]:
    """Print the per-layer figures and the self-time accounting; return
    the JSON line's metrics.  A broken accounting joins ``problems``."""
    from layers import UNITS

    metrics = traced["metrics"]
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / (
        statistics.median(p.prepare_s + p.wall_s for p in passes)
    )
    base = metrics["core.cps.on_message_calls"]
    lookups = traced["result"].memo_hits + traced["result"].memo_misses
    for name, unit in UNITS.items():
        note = ""
        if name == "core.cps.useful_ratio":
            note = f"base {base} on_message calls"
        elif name == "crypto.signatures.memo_hit_ratio":
            note = f"base {lookups} lookups, memo cold at pass start"
        elif name == "trace.overhead_ratio":
            note = f"vs median of {len(passes)} untraced passes"
        elif unit == "share":
            note = "of trace.wall_s"
        print(report_line(name, metrics[name], unit, note))
    print("  self times of the traced pass (seconds):")
    for layer, (count, inclusive, own) in sorted(
        traced["totals"].items(), key=lambda item: -item[1][2]
    ):
        print(f"    {layer:<36} {int(count):>9} calls "
              f"{inclusive:>10.4f} incl {own:>10.4f} self")
    wall, self_sum = metrics["trace.wall_s"], traced["self_sum"]
    print(f"    sum of self times {self_sum:.6f} s, of which "
          f"unattributed {traced['unattributed']:.6f} s "
          f"= traced wall_s {wall:.6f} s (set-up and timed phase)")
    if abs(self_sum - wall) > ACCOUNTING_TOLERANCE * max(wall, 1.0):
        problems.append("self times do not add up to the traced wall")
    print(f"  spans written to {traced['spans'].relative_to(ROOT)}")
    return {name: (metrics[name], unit) for name, unit in UNITS.items()}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    setups = setup_seconds(args) if args.trace == 0 else []
    workload = make_workload(args)
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    passes = run_passes(workload, budget)
    traced = traced_pass(workload, args) if args.trace == 1 else None

    gated = passes + ([traced["result"]] if traced else [])
    digests = {p.digest for p in gated}
    attempted = sum(len(p.trials) + len(p.checks) for p in gated)
    failures = [t for p in gated for t in p.failures]
    problems = [f"{t.ident}: {t.failure}" for t in failures]
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} digests")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"passes {len(passes)}  trace {'on' if traced else 'off'}")
    if traced is None:
        printed = report_end_to_end(passes, setups)
    else:
        printed = report_layers(passes, traced, problems)

    print(f"  failed_ratio {len(failures)}/{attempted} trials and checks")
    print(f"  digest {sorted(digests)[0]}"
          + ("  (identical across passes"
             + (" and the traced pass)" if traced else ")")
             if len(digests) == 1 else ""))
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in printed.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
