"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------

``list``
    Show the experiment registry with one-line descriptions.
``run E4 [--scale full] [--csv out.csv]``
    Run one experiment and print its table.
``all [--scale quick] [--out results/]``
    Run every experiment, printing tables (and writing CSVs if asked).
``params --theta 1.001 --d 1.0 --u 0.01 --n 8``
    Derive and display CPS parameters and every bound of Theorem 17.
``campaign list``
    Show the declarative campaign catalog (the ported experiments).
``campaign show E4 [--scale full] [--store results/store]``
    Describe a campaign's grid, trial count, spec key, and cache state.
``campaign run E4 [--scale] [--workers 8] [--store DIR] [--resume]
[--fresh] [--timeout S] [--csv out.csv]``
    Execute a campaign through the sweep engine — serially or on a
    process pool — replaying cached trials from the result store, then
    print its table and execution summary.  ``--queue DIR`` switches
    to elastic execution (enqueue chunk leases, join as one worker);
    ``--adaptive --ci-width X`` replicates each grid cell until the
    confidence interval on the headline metric is narrow enough
    (see ``docs/SCALING.md``).
``campaign enqueue E4 --queue DIR [--scale] [--chunk-size 4]
[--store DIR]``
    Publish a campaign's pending chunks to a work-queue directory for
    detached workers.
``campaign worker --queue DIR --store DIR [--worker-id W]
[--lease-ttl 60] [--max-chunks N]``
    Drain a work queue: claim chunk leases (reclaiming stale ones),
    run trials, write this worker's store shard.
``store list|merge|compact --store DIR [KEY ...] [--drop-corrupt]``
    Result-store maintenance: show keys/shards, fold worker shards
    into the base files (deduped by case key), drop superseded or
    (with ``--drop-corrupt``) undecodable lines.
``scenarios list [--kind adversary|delay|topology|drift|churn]``
    Show the scenario registry: every adversary behaviour, delay
    policy, topology, drift profile, and churn (fault-schedule)
    profile a campaign case can name.
``scenarios show eclipse`` / ``scenarios show delay:random``
    Describe one entry: description, paper reference, parameters,
    tags.  Qualify with ``kind:`` when a key exists in several kinds.
    Churn profiles additionally render their fault-event schedule as
    a per-event table (at the reference configuration).
``ablate plan [--tier quick] [--component NAME ...] [--pairwise]``
    Expand the ablation challenge matrix (baseline-plus-one-off per
    component, optionally pairwise) and show every planned trial with
    its content-addressed case key.
``ablate run [--tier quick] [--workers 8] [--store DIR]
[--adaptive --ci-width X] [--out results/ablation.json] [--check]``
    Execute the matrix through the campaign engine, print the
    per-component importance table (monitor flips + skew deltas), and
    write the byte-stable committed artifact — or, with ``--check``,
    verify the committed copy is fresh (the CI gate).
``ablate report [--path results/ablation.json]``
    Render the committed importance artifact without executing
    anything.  Catalog semantics in ``docs/ABLATIONS.md``.
``perf list``
    Show the registered perf cases.
``perf run [--quick] [--case NAME] [--out results/perf]``
    Measure perf cases and write ``BENCH_<name>.json`` files.
``perf compare --baseline results/perf_baseline.json [--tolerance 0.35]``
    Grade fresh measurements against the committed baseline; exits
    non-zero on a regression (the CI perf gate).
``perf baseline [--out results/perf_baseline.json]``
    Re-record the baseline from the current ``BENCH_*.json`` files.
``check list``
    Show the conformance monitors (one per paper guarantee) and the
    scenarios each applies to.
``check run eclipse [--kind delay] [--monitor skew] [--scale quick]
[--param key=value]``
    Conformance-run one registry scenario with streaming monitors
    attached; non-zero exit on any violation.  ``--param`` forwards
    factory overrides (e.g. ``--param cycles=3`` on a churn profile);
    malformed fault schedules exit cleanly with the validation error.
``check matrix [--scale quick] [--out results/conformance.json]``
    Sweep every applicable registry scenario and render the
    scenario x monitor pass/fail matrix (the CI conformance gate).
``check fixture [--fixture broken|churn|all|PATH]``
    Run the deliberately-broken executions and verify the monitors
    fire (exit non-zero if no violation is detected): ``broken`` is
    the E8 ``u_tilde >> u`` corner, ``churn`` the crash whose
    scheduled recovery never happens.  A path to a serialized fuzz
    fixture replays it instead and verifies its recorded expectation.
``fuzz run [--strategy valid|cps|churn|known-bad] [--budget 100]
[--seed 0] [--out results/fuzz/corpus] [--promote]``
    Property-based search for theorem-bound violations: synthesized
    registry cases through the conformance monitors, with Hypothesis
    shrinking any violation to a minimal content-hashed fixture.
    Exit status follows the space's expectation (a violation inside a
    valid space fails; the known-bad space must find one).
``fuzz list [--dir results/fuzz]``
    Show the fixture corpus (found and promoted).
``fuzz replay FIXTURE [--trace pulses|full]``
    Re-execute one fixture and print its canonical verdict payload
    (byte-identical across invocations and trace levels); non-zero
    exit when the recorded expectation is not reproduced.
``fuzz promote FIXTURE [--dest results/fuzz/promoted]``
    Persist a fixture under ``promoted/`` and register it as a
    ``fuzz``-kind scenario entry (a permanent regression gate).

``campaign run --check`` additionally conformance-runs every scenario
the campaign references and, with ``--store``, persists the verdicts
as ``<spec_key>.check.json`` (mirroring ``--perf``).

``campaign run --telemetry`` instruments every executed trial with the
metrics registry, prints the aggregated counters, and, with
``--store``, persists the byte-stable ``<spec_key>.telemetry.json``
sidecar; ``--profile`` attaches cProfile per trial and tabulates the
top hotspots; ``--progress`` prints live heartbeats (trials done,
rolling events/sec, ETA) to stderr.

``telemetry list``
    Show the fixed metric catalog with one-line meanings.
``telemetry show E4 [--scale quick] [--store DIR] [--metric NAME]``
    Render a campaign's persisted telemetry sidecar (or pass a
    ``.telemetry.json`` path directly).
``telemetry aggregate [--store DIR] [--out FILE]``
    Merge every sidecar in a store into one fleet-level aggregate.
``telemetry diff A B [--scale] [--store DIR] [--changed-only]``
    Counter/gauge deltas between two campaigns' sidecars.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from typing import Any, List, Optional

from repro import scenarios
from repro.analysis import theory
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.build import (
    UnknownBackendError,
    UnknownComponentError,
    resolve_backend,
)
from repro.campaigns import (
    CampaignRun,
    CampaignSpec,
    CorruptStoreError,
    ExecutionPolicy,
    QueueError,
    ResultStore,
    available_campaigns,
    campaign_definition,
    execute_campaign,
    run_summary_table,
)
from repro.core.params import derive_parameters, max_faults
from repro.dynamics import MalformedScheduleError


def _unknown_name_exit(
    name: str, noun: str, available: List[str]
) -> SystemExit:
    """A clean CLI error with a did-you-mean hint for close misses."""
    close = difflib.get_close_matches(name, available, n=1)
    hint = f" — did you mean {close[0]!r}?" if close else ""
    return SystemExit(
        f"unknown {noun} {name!r}{hint} "
        f"(available: {', '.join(available)})"
    )


def _parse_param_overrides(pairs: Optional[List[str]]) -> dict:
    """Parse repeated ``--param key=value`` flags into overrides.

    Values are Python literals when they parse as one (ints, floats,
    tuples, ``None``) and strings otherwise.
    """
    import ast

    overrides = {}
    for pair in pairs or []:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise SystemExit(
                f"--param expects key=value, got {pair!r}"
            )
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[key] = value
    return overrides


def _campaign_or_exit(name: str):
    try:
        return campaign_definition(name)
    except KeyError:
        raise _unknown_name_exit(
            name, "campaign", available_campaigns()
        ) from None


def _command_list(_args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS, key=lambda k: (k[0], len(k), k)):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:<4} {doc}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    # Validate the name up front: a KeyError raised *inside* a running
    # experiment must surface as itself, not as "unknown experiment".
    if args.experiment.upper() not in EXPERIMENTS:
        raise _unknown_name_exit(
            args.experiment, "experiment", sorted(EXPERIMENTS)
        )
    table = run_experiment(args.experiment, scale=args.scale)
    print(table.render())
    if args.csv:
        table.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _command_all(args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS, key=lambda k: (k[0], len(k), k)):
        table = run_experiment(name, scale=args.scale)
        print(table.render())
        print()
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            table.to_csv(os.path.join(args.out, f"{name.lower()}.csv"))
    return 0


def _command_params(args: argparse.Namespace) -> int:
    params = derive_parameters(
        theta=args.theta,
        d=args.d,
        u=args.u,
        n=args.n,
        f=args.f,
        T=args.T,
    )
    print(
        f"n={params.n}  f={params.f} (max {max_faults(params.n)})  "
        f"theta={params.theta}  d={params.d}  u={params.u}"
    )
    for name, value in theory.summary(params).items():
        print(f"  {name:<26} {value:.9g}")
    return 0


def _command_campaign_list(_args: argparse.Namespace) -> int:
    for name in available_campaigns():
        definition = campaign_definition(name)
        print(f"{name:<6} {definition.description}")
    return 0


def _command_campaign_show(args: argparse.Namespace) -> int:
    definition = _campaign_or_exit(args.campaign)
    spec = definition.spec()
    info = spec.describe(args.scale)
    print(f"campaign {info['name']} [{info['scale']}] — "
          f"{info['description']}")
    print(f"  seed       {info['seed']}")
    print(f"  spec key   {info['spec_key']}")
    measurement = info["measurement"]
    print(
        f"  measure    pulses={measurement['pulses']} "
        f"warmup={measurement['warmup']} "
        f"liveness={measurement['liveness']}"
    )
    for scenario in info["scenarios"]:
        print(f"  scenario   {scenario['builder']}: "
              f"{scenario['cases']} cases")
    print(f"  trials     {info['trials']}")
    if args.store:
        store = ResultStore(args.store)
        cached = store.count(spec.spec_key(args.scale))
        print(f"  store      {cached}/{info['trials']} trials cached "
              f"in {args.store}")
    return 0


def _execute_with_flags(
    args: argparse.Namespace,
    spec: CampaignSpec,
    scale: str,
    policy: ExecutionPolicy,
    store: Optional[ResultStore],
    instrumentation: Any = None,
) -> CampaignRun:
    """Execute ``spec`` as the shared execution flags ask.

    ``--progress`` attaches a live reporter, and ``--adaptive`` (which
    needs ``--ci-width``, and vice versa) replaces the fixed grid with
    the per-cell stopping rule.  Invalid values exit cleanly.
    """
    if args.adaptive and args.ci_width is None:
        raise SystemExit("--adaptive requires --ci-width")
    if args.ci_width is not None and not args.adaptive:
        raise SystemExit("--ci-width only makes sense with --adaptive")
    reporter = None
    if args.progress:
        from repro.telemetry.progress import ProgressReporter

        reporter = ProgressReporter(label=f"{spec.name}/{scale}")
    progress = reporter.update if reporter is not None else None
    try:
        if args.adaptive:
            from repro.campaigns.adaptive import (
                AdaptivePolicy,
                execute_adaptive_campaign,
            )

            if instrumentation is not None:
                print(
                    "note: per-trial instrumentation is not applied "
                    "under --adaptive; the sidecar records the "
                    "stopping-rule summary instead"
                )
            adaptive = AdaptivePolicy(
                ci_width=args.ci_width,
                metric=args.ci_metric,
                confidence=args.ci_confidence,
                min_trials=args.min_trials,
                max_trials=args.max_trials,
            )
            run = execute_adaptive_campaign(
                spec,
                scale=scale,
                adaptive=adaptive,
                policy=policy,
                store=store,
                reuse=not args.fresh,
                progress=progress,
            )
        else:
            run = execute_campaign(
                spec,
                scale=scale,
                policy=policy,
                store=store,
                reuse=not args.fresh,
                instrumentation=instrumentation,
                progress=progress,
            )
    except (ValueError, QueueError) as exc:
        raise SystemExit(str(exc)) from None
    if reporter is not None:
        reporter.finish()
    return run


def _command_campaign_run(args: argparse.Namespace) -> int:
    if args.resume and not args.store:
        raise SystemExit("--resume requires --store")
    if args.queue and not args.store:
        raise SystemExit(
            "--queue requires --store: elastic workers coordinate "
            "through the shared result store"
        )
    if args.queue and args.fresh:
        raise SystemExit(
            "--fresh is incompatible with --queue (workers skip "
            "persisted case keys); clear the store instead"
        )
    if args.adaptive and args.queue:
        raise SystemExit(
            "--adaptive is incompatible with --queue: the stopping "
            "rule needs round barriers a detached worker fleet "
            "cannot provide"
        )
    definition = _campaign_or_exit(args.campaign)
    spec = definition.spec()
    if args.backend is not None:
        # Re-keying is deliberate: a backend override changes every
        # case/spec hash, so cached event-backend trials are never
        # replayed as vectorized ones (or vice versa).
        from dataclasses import replace

        backend = resolve_backend(args.backend)
        if any(
            m.backend != backend for m in spec.measurements.values()
        ):
            spec = replace(
                spec,
                measurements={
                    scale: replace(m, backend=backend)
                    for scale, m in spec.measurements.items()
                },
            )
    store = ResultStore(args.store) if args.store else None
    try:
        policy = ExecutionPolicy(
            workers=args.workers,
            chunk_size=args.chunk_size,
            timeout=args.timeout,
            queue=args.queue,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    instrumentation = None
    if args.telemetry or args.profile:
        from repro.telemetry.campaign import InstrumentationPlan

        instrumentation = InstrumentationPlan(
            telemetry=args.telemetry,
            profile=args.profile,
            profile_top=args.profile_top,
        )
    run = _execute_with_flags(
        args, spec, args.scale, policy, store, instrumentation
    )
    table = definition.tabulate(run)
    print(table.render())
    print()
    print(run_summary_table(run).render())
    print(run.summary() + f" (workers={policy.workers})")
    if run.adaptive is not None:
        a = run.adaptive
        print(
            f"adaptive[{a['metric']}]: {a['trials']} trials over "
            f"{a['cells']} cells — saved {a['saved']} vs fixed "
            f"{a['max_trials']}x replication ({a['converged']} "
            f"converged, {a['exhausted']} at cap)"
        )
    if args.perf:
        from repro.perf import campaign_throughput

        throughput = campaign_throughput(run)
        unit = throughput["unit"]
        print(
            f"throughput: {throughput['events']} {unit} in "
            f"{throughput['duration']:.2f}s across "
            f"{throughput['measured']} executed trials "
            f"({throughput['events_per_sec']:,.0f} {unit}/sec, "
            f"peak RSS {throughput['peak_rss_kib']} KiB)"
        )
        if store is not None:
            path = store.write_summary(
                spec.spec_key(args.scale), throughput
            )
            print(f"wrote {path}")
    exit_code = 0 if run.failed == 0 else 1
    if args.telemetry:
        from repro.telemetry.campaign import (
            campaign_telemetry,
            render_campaign_telemetry,
        )

        payload = campaign_telemetry(run)
        print(render_campaign_telemetry(payload))
        if store is not None:
            path = store.write_summary(
                spec.spec_key(args.scale),
                payload,
                kind="telemetry",
            )
            print(f"wrote {path}")
    if args.profile:
        from repro.telemetry.profiler import (
            aggregate_hotspots,
            render_hotspots,
        )

        print(
            render_hotspots(
                aggregate_hotspots(run.records, top=args.profile_top)
            )
        )
    if args.check:
        from repro.checks import (
            campaign_conformance,
            render_campaign_conformance,
        )

        payload = campaign_conformance(spec, args.scale)
        print(render_campaign_conformance(payload))
        if store is not None:
            path = store.write_summary(
                spec.spec_key(args.scale),
                payload,
                kind="check",
            )
            print(f"wrote {path}")
        if not payload["pass"]:
            exit_code = 1
    if args.csv:
        table.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return exit_code


def _command_campaign_enqueue(args: argparse.Namespace) -> int:
    from repro.campaigns.queue import WorkQueue

    definition = _campaign_or_exit(args.campaign)
    spec = definition.spec()
    plans = spec.trials_for(args.scale)
    total = len(plans)
    if args.store:
        known = ResultStore(args.store).load(spec.spec_key(args.scale))
        plans = [p for p in plans if p.case_key not in known]
    queue = WorkQueue(args.queue)
    try:
        manifest = queue.enqueue(
            spec, args.scale, plans=plans, chunk_size=args.chunk_size
        )
    except (QueueError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"enqueued campaign {spec.name} [{args.scale}]: "
        f"{manifest['trials']}/{total} trials in "
        f"{manifest['chunks']} chunks at {args.queue}"
    )
    print(f"spec key {manifest['spec_key']}")
    print(
        f"start workers with: repro campaign worker "
        f"--queue {args.queue} --store DIR"
    )
    return 0


def _command_campaign_worker(args: argparse.Namespace) -> int:
    from repro.campaigns.queue import run_worker

    store = ResultStore(args.store)
    try:
        stats = run_worker(
            args.queue,
            store,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            poll=args.poll,
            max_chunks=args.max_chunks,
        )
    except (QueueError, KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"worker {stats['worker']}: {stats['chunks']} chunks — "
        f"{stats['trials']} trials executed, {stats['skipped']} "
        f"skipped (cached), {stats['reclaimed']} leases reclaimed"
    )
    return 0


def _store_keys_or_exit(store: ResultStore, keys: List[str]) -> List[str]:
    if keys:
        return keys
    found = store.keys()
    if not found:
        raise SystemExit(f"no result stores under {store.root!r}")
    return found


def _command_store_list(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    for key in _store_keys_or_exit(store, args.keys):
        try:
            count = store.count(key)
        except CorruptStoreError as exc:
            print(f"{key}: CORRUPT — {exc}")
            continue
        shards = store.shards(key)
        suffix = (
            f" ({len(shards)} shard(s): {', '.join(shards)})"
            if shards
            else ""
        )
        print(f"{key}: {count} record(s){suffix}")
    return 0


def _command_store_merge(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    for key in _store_keys_or_exit(store, args.keys):
        try:
            result = store.merge(key)
        except CorruptStoreError as exc:
            raise SystemExit(str(exc)) from None
        print(
            f"{key}: merged {result['shards']} shard(s) into the "
            f"base file — {result['records']} record(s), "
            f"{result['dropped']} superseded line(s) dropped"
        )
    return 0


def _command_store_compact(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    for key in _store_keys_or_exit(store, args.keys):
        try:
            result = store.compact(key, drop_corrupt=args.drop_corrupt)
        except CorruptStoreError as exc:
            raise SystemExit(
                f"{exc}\n(re-run with --drop-corrupt to discard "
                f"undecodable lines)"
            ) from None
        print(
            f"{key}: compacted — {result['records']} record(s) kept, "
            f"{result['dropped']} line(s) dropped"
        )
    return 0


def _command_scenarios_list(args: argparse.Namespace) -> int:
    entries = scenarios.entries(args.kind)
    for entry in entries:
        print(f"{entry.kind:<10} {entry.key:<22} {entry.description}")
    kinds = args.kind or "/".join(scenarios.KINDS)
    print(f"\n{len(entries)} registered scenarios ({kinds})")
    return 0


def _command_scenarios_show(args: argparse.Namespace) -> int:
    key = args.key
    if args.kind and ":" not in key:
        key = f"{args.kind}:{key}"
    matches = scenarios.find(key)
    if not matches:
        # Surface the registry's did-you-mean hint as a clean exit.
        kind, _, bare = (
            key.partition(":") if ":" in key else (args.kind, "", key)
        )
        if kind:
            # Surfaces the registry's did-you-mean hint; unwrapped from
            # the KeyError repr by the main() handler.
            scenarios.get(kind, bare)
        raise _unknown_name_exit(
            args.key, "scenario", sorted(set(scenarios.keys()))
        )
    if len(matches) > 1:
        names = ", ".join(entry.qualified for entry in matches)
        raise SystemExit(
            f"{args.key!r} is ambiguous: {names} "
            f"(qualify as kind:key or pass --kind)"
        )
    entry = matches[0]
    print(f"{entry.qualified} — {entry.description}")
    if entry.paper_ref:
        print(f"  paper      {entry.paper_ref}")
    if entry.tags:
        print(f"  tags       {', '.join(sorted(entry.tags))}")
    if entry.params:
        print("  parameters")
        for spec in entry.params:
            doc = f"  — {spec.doc}" if spec.doc else ""
            print(f"    {spec.render()}{doc}")
    else:
        print("  parameters (none)")
    if entry.kind == "churn":
        # Churn profiles *are* their fault schedules; render the
        # events as a table (trigger / kind / node) at the reference
        # configuration instead of leaving the schedule opaque.
        from repro.checks.conformance import CPS_BASE_CASE

        params = derive_parameters(
            theta=CPS_BASE_CASE["theta"],
            d=CPS_BASE_CASE["d"],
            u=CPS_BASE_CASE["u"],
            n=CPS_BASE_CASE["n"],
        )
        schedule = scenarios.create("churn", entry.key, params)
        label = schedule.description or "fault events"
        print(f"  schedule   {label} (reference n={params.n})")
        for line in schedule.describe().splitlines():
            print(f"    {line}")
    return 0


DEFAULT_ABLATION = os.path.join("results", "ablation.json")


def _ablation_spec(args: argparse.Namespace):
    from repro.ablation import AblationSpec

    return AblationSpec(
        components=tuple(args.component or ()),
        pairwise=args.pairwise,
        seed=args.seed,
    )


def _case_scenario_summary(case) -> str:
    """The scenario-registry keys a case names, compactly."""
    parts = [
        f"{kind}={case[kind]}"
        for kind in ("adversary", "churn", "topology")
        if case.get(kind) is not None
    ]
    return ", ".join(parts) or "silent"


def _command_ablate_plan(args: argparse.Namespace) -> int:
    from repro.ablation import ablation_campaign_spec, planned_trials

    spec = _ablation_spec(args)
    pairs = planned_trials(spec, args.tier)
    campaign = ablation_campaign_spec(spec)
    print(
        f"ablation matrix [{args.tier}] — {len(pairs)} trials "
        f"({len(spec.selected())} components"
        + (", pairwise" if spec.pairwise else "")
        + f"), seed {spec.seed}, spec key "
        f"{campaign.spec_key(args.tier)}"
    )
    for run, plan in pairs:
        print(
            f"  {run.label:<42} {plan.case_key}  "
            f"seed={plan.seed}  [{_case_scenario_summary(run.case)}]"
        )
    return 0


def _command_ablate_run(args: argparse.Namespace) -> int:
    from repro.ablation import (
        ablation_campaign_spec,
        ablation_payload_bytes,
        ablation_report,
        render_ablation_table,
    )
    from repro.campaigns.store import dump_json_summary

    spec = _ablation_spec(args)
    campaign = ablation_campaign_spec(spec)
    store = ResultStore(args.store) if args.store else None
    try:
        policy = ExecutionPolicy(
            workers=args.workers,
            chunk_size=args.chunk_size,
            timeout=args.timeout,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    run = _execute_with_flags(args, campaign, args.tier, policy, store)
    payload = ablation_report(spec, run)
    print(render_ablation_table(payload).render())
    print()
    print(run.summary() + f" (workers={policy.workers})")
    if run.failed:
        for record in run.failures():
            print(f"  TRIAL ERROR {record.case_key}: {record.error}")
        return 1
    if args.check:
        fresh = ablation_payload_bytes(payload)
        try:
            with open(args.out, "rb") as handle:
                committed = handle.read()
        except FileNotFoundError:
            print(f"{args.out} is missing; run 'repro ablate run' "
                  "to create it")
            return 1
        if committed != fresh:
            print(f"{args.out} is stale; re-run 'repro ablate run' "
                  "and commit the result")
            return 1
        print(f"{args.out} is up to date")
        return 0
    dump_json_summary(args.out, payload)
    print(f"wrote {args.out}")
    return 0


def _command_ablate_report(args: argparse.Namespace) -> int:
    from repro.ablation import render_ablation_table

    try:
        with open(args.path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            f"{args.path} not found; generate it with "
            f"'repro ablate run'"
        ) from None
    print(render_ablation_table(payload).render())
    summary = payload.get("summary", {})
    flips = summary.get("flips", {})
    print()
    for component in sorted(flips):
        names = ", ".join(flips[component]) or "(none)"
        print(f"  {component:<20} flips: {names}")
    print(
        f"\n{summary.get('flipping', 0)}/"
        f"{summary.get('components', 0)} components flip at least "
        f"one monitor (campaign seed {payload.get('seed')}, "
        f"scale {payload.get('scale')})"
    )
    return 0


DEFAULT_BENCH_DIR = os.path.join("results", "perf")
DEFAULT_BASELINE = os.path.join("results", "perf_baseline.json")


def _command_perf_list(_args: argparse.Namespace) -> int:
    """List both perf JSON namespaces (docs/PERFORMANCE.md has detail).

    * registered cases — ``perf run`` writes ``BENCH_<name>.json``
      under ``results/perf`` (gitignored; compared via ``perf
      baseline`` / ``perf compare``);
    * campaign sidecars — ``campaign run NAME --perf --store DIR``
      writes ``<spec_key>.perf.json`` next to the campaign's results
      (spec-keyed, so every measurement knob change re-keys the file).
    """
    from repro.perf import PERF_CASES

    print(
        "registered cases — `repro perf run` writes "
        f"{DEFAULT_BENCH_DIR}/BENCH_<name>.json:"
    )
    for name in sorted(PERF_CASES):
        print(f"  {name:<18} {PERF_CASES[name].description}")
    print()
    print(
        "campaign sidecars — `repro campaign run NAME --perf "
        "--store DIR` writes <spec_key>.perf.json in DIR (spec-keyed "
        "per measurement, including its backend)."
    )
    return 0


def _command_perf_run(args: argparse.Namespace) -> int:
    from repro.perf import available_cases, run_case

    names = args.case or available_cases()
    unknown = sorted(set(names) - set(available_cases()))
    if unknown:
        raise _unknown_name_exit(
            unknown[0], "perf case", available_cases()
        )
    scale = "quick" if args.quick else "full"
    # Only resolve an explicit override: ``None`` must stay ``None`` so
    # backend-aware case bodies keep their own defaults (e9-vectorized-*
    # default to the vectorized engine).
    backend = (
        resolve_backend(args.backend)
        if args.backend is not None
        else None
    )
    for name in names:
        result = run_case(
            name, scale=scale, repeats=args.repeats, backend=backend
        )
        path = result.write(args.out)
        normalized = result.normalized_throughput
        cache = result.meta.get("verify_cache") or {}
        rate = cache.get("hit_rate")
        cache_note = (
            f"verify-cache {rate:.1%}" if rate is not None
            else "verify-cache n/a"
        )
        unit = result.meta.get("unit", "events")
        print(
            f"{name:<18} {result.events:>9} {unit}  "
            f"{result.wall_seconds:8.3f}s  "
            f"{result.events_per_sec:>12,.0f} {unit}/s  "
            f"norm {normalized:.4f}  {cache_note}  -> {path}"
        )
    return 0


def _command_perf_compare(args: argparse.Namespace) -> int:
    from repro.perf import compare, load_baseline, load_results

    if not os.path.exists(args.baseline):
        raise SystemExit(f"baseline file not found: {args.baseline}")
    baseline = load_baseline(args.baseline)
    current = load_results(args.current)
    if not current:
        raise SystemExit(
            f"no BENCH_*.json files under {args.current!r} "
            f"(run 'repro perf run' first)"
        )
    comparison = compare(baseline.cases, current, tolerance=args.tolerance)
    for verdict in comparison.verdicts:
        print(verdict.describe())
    print(comparison.summary())
    return 0 if comparison.ok else 1


def _command_perf_baseline(args: argparse.Namespace) -> int:
    from repro.perf import load_results, write_baseline

    results = load_results(args.current)
    if not results:
        raise SystemExit(
            f"no BENCH_*.json files under {args.current!r} "
            f"(run 'repro perf run' first)"
        )
    path = write_baseline(args.out, results, notes=args.notes)
    print(f"wrote baseline with {len(results)} case(s) to {path}")
    return 0


DEFAULT_CONFORMANCE = os.path.join("results", "conformance.json")


def _resolve_check_scenario(key: str, kind: Optional[str]):
    """Resolve a (possibly qualified) scenario key for ``check run``."""
    lookup = key
    if kind and ":" not in lookup:
        lookup = f"{kind}:{lookup}"
    matches = scenarios.find(lookup)
    if not matches:
        raise _unknown_name_exit(
            key,
            "scenario",
            sorted(set(scenarios.keys())),
        )
    if len(matches) > 1:
        names = ", ".join(entry.qualified for entry in matches)
        raise SystemExit(
            f"{key!r} is ambiguous: {names} "
            f"(qualify as kind:key or pass --kind)"
        )
    return matches[0]


def _resolve_check_monitors(
    requested: Optional[List[str]], kind: str, key: str
) -> Optional[List[str]]:
    """Validate ``--monitor`` names against catalog and applicability."""
    if not requested:
        return None
    from repro.checks import MONITOR_CATALOG, applicable_monitors

    names = list(MONITOR_CATALOG)
    applicable = applicable_monitors(kind, key)
    for name in requested:
        if name not in names:
            raise _unknown_name_exit(name, "monitor", names)
        if name not in applicable:
            raise SystemExit(
                f"monitor {name!r} is not applicable to {kind}:{key} "
                f"(applicable: {', '.join(applicable)})"
            )
    return list(requested)


def _write_conformance_json(path: str, payload) -> None:
    from repro.campaigns.store import dump_json_summary

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    dump_json_summary(path, payload)


def _command_check_list(_args: argparse.Namespace) -> int:
    from repro.checks import (
        MONITOR_CATALOG,
        applicable_monitors,
    )

    counts = {name: 0 for name in MONITOR_CATALOG}
    for entry in scenarios.entries():
        for name in applicable_monitors(entry.kind, entry.key):
            counts[name] += 1
    for name, claim in MONITOR_CATALOG.items():
        print(f"{name:<16} {claim}  [{counts[name]} scenarios]")
    return 0


def _command_check_run(args: argparse.Namespace) -> int:
    from repro.checks import check_scenario, render_report

    entry = _resolve_check_scenario(args.key, args.kind)
    monitors = _resolve_check_monitors(
        args.monitor, entry.kind, entry.key
    )
    report = check_scenario(
        entry.kind,
        entry.key,
        scale=args.scale,
        seed=args.seed,
        overrides=_parse_param_overrides(args.param),
        backend=resolve_backend(args.backend),
    )
    if monitors is not None:
        from dataclasses import replace

        report = replace(
            report,
            verdicts=tuple(
                v for v in report.verdicts if v.monitor in monitors
            ),
        )
    print(render_report(report))
    return 0 if report.ok else 1


def _command_check_matrix(args: argparse.Namespace) -> int:
    from repro.checks import conformance_matrix, render_matrix

    kinds = args.kind if args.kind else None
    backend = resolve_backend(args.backend)
    payload = conformance_matrix(
        scale=args.scale, seed=args.seed, kinds=kinds, backend=backend
    )
    print(render_matrix(payload))
    if args.out:
        if backend != "event" and args.out == DEFAULT_CONFORMANCE:
            # The committed artifact is the event-backend matrix;
            # don't let an exploratory vectorized sweep clobber it.
            print(
                f"not overwriting {DEFAULT_CONFORMANCE} with a "
                f"{backend!r}-backend matrix (pass --out explicitly)"
            )
        else:
            _write_conformance_json(args.out, payload)
            print(f"wrote {args.out}")
    return 0 if payload["pass"] else 1


def _replay_fuzz_fixture_path(path: str) -> int:
    """``check fixture`` on a serialized fuzz fixture: replay it and
    verify its recorded expectation (violation fixtures must fire)."""
    from repro.fuzz import load_fixture, replay_fixture
    from repro.fuzz.corpus import MalformedFixtureError

    try:
        payload = load_fixture(path)
    except MalformedFixtureError as exc:
        raise SystemExit(str(exc)) from None
    run = replay_fixture(payload)
    violations = run.violations()
    for violation in violations:
        print(f"! {violation.describe()}")
    name = f"fuzz-{payload['fixture_id']}"
    if violations:
        print(
            f"{name} fixture raised {len(violations)} violation(s) — "
            f"the monitors fire"
        )
    else:
        print(f"{name} fixture raised NO violations")
    expected = payload.get("expect", "pass") == "violation"
    if bool(violations) == expected:
        return 0
    print(
        f"{name} expects "
        + ("a violation" if expected else "no violations")
        + " — the replay CONTRADICTS the recorded expectation"
    )
    return 1


def _command_check_fixture(args: argparse.Namespace) -> int:
    from repro.checks import run_broken_fixture, run_churn_fixture

    runners = {
        "broken": lambda: run_broken_fixture(seed=args.seed),
        "churn": lambda: run_churn_fixture(seed=args.seed),
    }
    if args.fixture not in (*runners, "all"):
        if os.path.exists(args.fixture) or args.fixture.endswith(".json"):
            return _replay_fuzz_fixture_path(args.fixture)
        raise SystemExit(
            f"--fixture expects broken|churn|all or a fuzz fixture "
            f"path, got {args.fixture!r}"
        )
    names = (
        list(runners) if args.fixture == "all" else [args.fixture]
    )
    exit_code = 0
    for name in names:
        verdicts, _result = runners[name]()
        violations = [
            violation
            for verdict in verdicts
            for violation in verdict.violations
        ]
        for violation in violations:
            print(f"! {violation.describe()}")
        if violations:
            print(
                f"{name} fixture raised {len(violations)} "
                f"violation(s) — the monitors fire"
            )
        else:
            print(
                f"{name} fixture raised NO violations — the "
                f"conformance engine is not detecting anything"
            )
            exit_code = 1
    return exit_code


def _command_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        promote_fixture,
        render_fuzz_report,
        save_fixture,
        search,
    )
    from repro.fuzz.driver import UnknownStrategyError, available_strategies

    try:
        report = search(
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            max_interesting=args.max_interesting,
        )
    except UnknownStrategyError:
        raise _unknown_name_exit(
            args.strategy, "fuzz strategy", available_strategies()
        ) from None
    print(render_fuzz_report(report))
    fixtures = list(report.interesting)
    if report.counterexample is not None:
        fixtures.insert(0, report.counterexample)
    if not args.no_save:
        for fixture in fixtures:
            path = save_fixture(fixture, args.out)
            print(f"wrote {path}")
            if args.promote:
                key, promoted = promote_fixture(fixture)
                print(f"promoted fuzz:{key} -> {promoted}")
    return 0 if report.ok else 1


def _fuzz_fixture_line(path: str, payload: dict) -> str:
    case = payload["case"]
    axes = "/".join(
        str(case[kind])
        for kind in ("adversary", "delay", "drift", "churn")
        if kind in case
    )
    return (
        f"fuzz-{payload['fixture_id']}  {payload['origin']:<11} "
        f"expect={payload['expect']:<9} n={case['n']} "
        f"pulses={payload['pulses']} {axes}  [{path}]"
    )


def _command_fuzz_list(args: argparse.Namespace) -> int:
    from repro.fuzz import list_fixtures, load_fixture

    shown = 0
    for label in ("corpus", "promoted"):
        directory = os.path.join(args.dir, label)
        paths = list_fixtures(directory)
        if not paths:
            continue
        print(f"{label} ({directory}):")
        for path in paths:
            print("  " + _fuzz_fixture_line(path, load_fixture(path)))
            shown += 1
    if not shown:
        print(
            f"no fuzz fixtures under {args.dir!r} "
            f"(run 'repro fuzz run' first)"
        )
    return 0


def _command_fuzz_replay(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz import load_fixture, replay_fixture, verdict_payload
    from repro.fuzz.corpus import MalformedFixtureError

    try:
        payload = load_fixture(args.fixture)
    except MalformedFixtureError as exc:
        raise SystemExit(str(exc)) from None
    run = replay_fixture(payload, trace=args.trace)
    verdicts = verdict_payload(payload, run)
    print(json.dumps(verdicts, indent=2, sort_keys=True))
    return 0 if verdicts["expectation_met"] else 1


def _command_fuzz_promote(args: argparse.Namespace) -> int:
    from repro.fuzz import load_fixture, promote_fixture
    from repro.fuzz.corpus import MalformedFixtureError

    try:
        payload = load_fixture(args.fixture)
    except MalformedFixtureError as exc:
        raise SystemExit(str(exc)) from None
    key, path = promote_fixture(payload, directory=args.dest)
    print(f"promoted fuzz:{key} -> {path}")
    print(
        "replayable via 'repro check run "
        f"{key} --kind fuzz' once registered (fixtures register on "
        "promotion and via repro.fuzz.load_promoted)"
    )
    return 0


def _load_telemetry_sidecar(name: str, scale: str, store_dir):
    """Resolve a campaign name (or a direct path) to its sidecar payload."""
    import json

    if name.endswith(".json"):
        if not os.path.exists(name):
            raise SystemExit(f"telemetry sidecar not found: {name}")
        with open(name, encoding="utf-8") as handle:
            return json.load(handle)
    definition = _campaign_or_exit(name)
    if not store_dir:
        raise SystemExit(
            "--store is required to look up a campaign's sidecar "
            "(or pass a .telemetry.json path directly)"
        )
    store = ResultStore(store_dir)
    key = definition.spec().spec_key(scale)
    payload = store.load_summary(key, kind="telemetry")
    if payload is None:
        raise SystemExit(
            f"no telemetry sidecar for campaign {name!r} "
            f"[{scale}] in {store_dir} — run "
            f"'repro campaign run {name} --scale {scale} "
            f"--telemetry --store {store_dir}' first"
        )
    return payload


def _check_metric_names(
    requested: Optional[List[str]], payload=None
) -> Optional[List[str]]:
    from repro.telemetry import available_metrics

    if not requested:
        return None
    available = available_metrics(payload)
    for name in requested:
        if name not in available:
            raise _unknown_name_exit(name, "metric", available)
    return list(requested)


def _command_telemetry_list(_args: argparse.Namespace) -> int:
    from repro.telemetry import METRIC_CATALOG

    width = max(len(name) for name in METRIC_CATALOG)
    for name, meaning in sorted(METRIC_CATALOG.items()):
        print(f"{name:<{width}}  {meaning}")
    return 0


def _command_telemetry_show(args: argparse.Namespace) -> int:
    from repro.telemetry.campaign import render_campaign_telemetry

    payload = _load_telemetry_sidecar(
        args.campaign, args.scale, args.store
    )
    metrics = _check_metric_names(args.metric, payload)
    print(render_campaign_telemetry(payload, metrics))
    return 0


def _command_telemetry_aggregate(args: argparse.Namespace) -> int:
    import glob
    import json

    from repro.campaigns.store import dump_json_summary
    from repro.telemetry.campaign import (
        aggregate_payloads,
        render_aggregate,
    )

    paths = sorted(
        glob.glob(os.path.join(args.store, "*.telemetry.json"))
    )
    if not paths:
        raise SystemExit(
            f"no *.telemetry.json sidecars under {args.store!r} "
            f"(run 'repro campaign run NAME --telemetry --store "
            f"{args.store}' first)"
        )
    payloads = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    merged = aggregate_payloads(payloads)
    print(
        f"telemetry aggregate: {merged['sidecars']} sidecar(s), "
        f"{merged['instrumented']} instrumented trial(s) — "
        f"{', '.join(merged['campaigns'])}"
    )
    print(render_aggregate(merged["aggregate"]))
    if args.out:
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        dump_json_summary(args.out, merged)
        print(f"wrote {args.out}")
    return 0


def _command_telemetry_diff(args: argparse.Namespace) -> int:
    from repro.telemetry.campaign import diff_rows, render_diff

    left = _load_telemetry_sidecar(args.a, args.scale, args.store)
    right = _load_telemetry_sidecar(args.b, args.scale, args.store)
    rows = diff_rows(left, right)
    metrics = _check_metric_names(args.metric, left)
    print(
        f"telemetry diff: a={left.get('campaign', '?')}"
        f"[{left.get('scale', '?')}] "
        f"b={right.get('campaign', '?')}[{right.get('scale', '?')}]"
    )
    print(render_diff(rows, metrics, changed_only=args.changed_only))
    return 0


def _execution_parent() -> argparse.ArgumentParser:
    """The execution flags of every command that runs a campaign.

    A fresh parser per call: argparse shares parent actions with each
    child, so a child's ``set_defaults`` would otherwise leak into the
    other commands.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (1 = in-process serial)",
    )
    parent.add_argument(
        "--chunk-size", type=int, default=4,
        help="trials per pool task",
    )
    parent.add_argument(
        "--timeout", type=float, default=None,
        help="per-trial timeout in seconds (pool mode only)",
    )
    parent.add_argument(
        "--store", help="result-store directory (enables cache replay)"
    )
    parent.add_argument(
        "--fresh", action="store_true",
        help="ignore cached records and re-execute every trial",
    )
    parent.add_argument(
        "--progress", action="store_true",
        help="print live heartbeats (trials done, rolling events/sec, "
        "ETA) to stderr",
    )
    parent.add_argument(
        "--adaptive", action="store_true",
        help="per-cell adaptive sampling: replicate each grid cell "
        "until the CI width target (--ci-width) is hit, bounded by "
        "--max-trials",
    )
    parent.add_argument(
        "--ci-width", type=float, default=None,
        help="target confidence-interval width on the headline metric "
        "(enables the adaptive stopping rule)",
    )
    parent.add_argument(
        "--ci-metric", default="max_skew",
        help="metric the stopping rule targets (default %(default)s)",
    )
    parent.add_argument(
        "--ci-confidence", type=float, default=0.95,
        help="confidence level of the interval (default %(default)s)",
    )
    parent.add_argument(
        "--min-trials", type=int, default=3,
        help="replicates per cell before the first width check "
        "(default %(default)s)",
    )
    parent.add_argument(
        "--max-trials", type=int, default=8,
        help="replicate cap per cell, converged or not "
        "(default %(default)s)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimal Clock Synchronization with "
            "Signatures' (Lenzen & Loss, PODC 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every simulation-executing subcommand: `campaign run`,
    # `check run`, `check matrix`, and `perf run` accept the same
    # --backend flag (validated with a did-you-mean by
    # repro.build.resolve_backend).  Default None = "whatever the spec
    # or engine defaults to", so campaign specs that pin a backend are
    # not silently overridden.
    backend_parent = argparse.ArgumentParser(add_help=False)
    backend_parent.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend: 'event' (discrete-event reference) "
        "or 'vectorized' (round-batched numpy engine)",
    )

    sub.add_parser("list", help="list experiments").set_defaults(
        handler=_command_list
    )

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id, e.g. E4")
    run_parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    run_parser.add_argument("--csv", help="also write the table as CSV")
    run_parser.set_defaults(handler=_command_run)

    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    all_parser.add_argument("--out", help="directory for CSV outputs")
    all_parser.set_defaults(handler=_command_all)

    params_parser = sub.add_parser(
        "params", help="derive CPS parameters for a deployment"
    )
    params_parser.add_argument("--theta", type=float, required=True)
    params_parser.add_argument("--d", type=float, required=True)
    params_parser.add_argument("--u", type=float, required=True)
    params_parser.add_argument("--n", type=int, required=True)
    params_parser.add_argument("--f", type=int, default=None)
    params_parser.add_argument("--T", type=float, default=None)
    params_parser.set_defaults(handler=_command_params)

    campaign_parser = sub.add_parser(
        "campaign", help="declarative sweep campaigns (parallel, cached)"
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_sub.add_parser(
        "list", help="list the campaign catalog"
    ).set_defaults(handler=_command_campaign_list)

    show_parser = campaign_sub.add_parser(
        "show", help="describe a campaign's grid and cache state"
    )
    show_parser.add_argument("campaign", help="campaign id, e.g. E4")
    show_parser.add_argument("--scale", default="quick")
    show_parser.add_argument(
        "--store", help="result-store directory to inspect"
    )
    show_parser.set_defaults(handler=_command_campaign_show)

    campaign_run_parser = campaign_sub.add_parser(
        "run", help="execute a campaign through the sweep engine",
        parents=[backend_parent, _execution_parent()],
    )
    campaign_run_parser.add_argument("campaign", help="campaign id")
    campaign_run_parser.add_argument("--scale", default="quick")
    campaign_run_parser.add_argument(
        "--resume", action="store_true",
        help="complete a partially-run campaign (requires --store)",
    )
    campaign_run_parser.add_argument(
        "--csv", help="also write the table as CSV"
    )
    campaign_run_parser.add_argument(
        "--perf", action="store_true",
        help="record per-case throughput (events/sec; modeled "
        "events/sec on the vectorized backend) and, with --store, "
        "persist it as <spec_key>.perf.json",
    )
    campaign_run_parser.add_argument(
        "--check", action="store_true",
        help="conformance-run every scenario the campaign references "
        "and, with --store, persist verdicts as <spec_key>.check.json",
    )
    campaign_run_parser.add_argument(
        "--telemetry", action="store_true",
        help="instrument executed trials with the metrics registry and, "
        "with --store, persist <spec_key>.telemetry.json",
    )
    campaign_run_parser.add_argument(
        "--profile", action="store_true",
        help="attach cProfile to every executed trial and tabulate the "
        "top hotspots across the run",
    )
    campaign_run_parser.add_argument(
        "--profile-top", type=int, default=15,
        help="hotspot rows kept per trial and printed (default 15)",
    )
    campaign_run_parser.add_argument(
        "--queue",
        help="run through a work-queue directory instead of a local "
        "pool: enqueue pending chunks there (unless already "
        "enqueued) and join as one worker alongside any external "
        "'repro campaign worker' processes (requires --store)",
    )
    campaign_run_parser.add_argument(
        "--worker-id", default=None,
        help="store shard / lease owner name for queue mode "
        "(default: host-pid)",
    )
    campaign_run_parser.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="seconds without a heartbeat before a queue chunk lease "
        "is presumed dead and reclaimed (default 60)",
    )
    campaign_run_parser.set_defaults(handler=_command_campaign_run)

    enqueue_parser = campaign_sub.add_parser(
        "enqueue",
        help="publish a campaign's chunks to a work-queue directory",
    )
    enqueue_parser.add_argument("campaign", help="campaign id")
    enqueue_parser.add_argument("--scale", default="quick")
    enqueue_parser.add_argument(
        "--queue", required=True,
        help="work-queue directory (fresh per run; shared with every "
        "worker)",
    )
    enqueue_parser.add_argument(
        "--chunk-size", type=int, default=4,
        help="trials per chunk lease",
    )
    enqueue_parser.add_argument(
        "--store",
        help="result-store directory; already-cached trials are not "
        "enqueued",
    )
    enqueue_parser.set_defaults(handler=_command_campaign_enqueue)

    worker_parser = campaign_sub.add_parser(
        "worker",
        help="drain a work queue: claim chunk leases, run trials, "
        "write one store shard",
    )
    worker_parser.add_argument(
        "--queue", required=True, help="work-queue directory"
    )
    worker_parser.add_argument(
        "--store", required=True,
        help="shared result-store directory (this worker writes its "
        "own shard)",
    )
    worker_parser.add_argument(
        "--worker-id", default=None,
        help="shard / lease owner name (default: host-pid)",
    )
    worker_parser.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="seconds without a heartbeat before another worker's "
        "lease is presumed dead and reclaimed (default 60)",
    )
    worker_parser.add_argument(
        "--poll", type=float, default=0.5,
        help="seconds between queue scans while waiting on other "
        "workers' leases (default 0.5)",
    )
    worker_parser.add_argument(
        "--max-chunks", type=int, default=None,
        help="stop after completing this many chunks (default: drain "
        "the queue)",
    )
    worker_parser.set_defaults(handler=_command_campaign_worker)

    store_parser = sub.add_parser(
        "store",
        help="result-store maintenance (shards, merge, compact)",
    )
    store_sub = store_parser.add_subparsers(
        dest="store_command", required=True
    )

    store_list_parser = store_sub.add_parser(
        "list", help="list spec keys, record counts, and shards"
    )
    store_merge_parser = store_sub.add_parser(
        "merge",
        help="fold worker shards into each base file (deduped by "
        "case key, idempotent)",
    )
    store_compact_parser = store_sub.add_parser(
        "compact",
        help="rewrite files without superseded duplicate lines",
    )
    for parser_ in (
        store_list_parser, store_merge_parser, store_compact_parser
    ):
        parser_.add_argument(
            "--store", required=True,
            help="result-store directory",
        )
        parser_.add_argument(
            "keys", nargs="*",
            help="spec keys to operate on (default: every key)",
        )
    store_compact_parser.add_argument(
        "--drop-corrupt", action="store_true",
        help="discard undecodable interior lines instead of failing "
        "(salvages a damaged store)",
    )
    store_list_parser.set_defaults(handler=_command_store_list)
    store_merge_parser.set_defaults(handler=_command_store_merge)
    store_compact_parser.set_defaults(handler=_command_store_compact)

    scenarios_parser = sub.add_parser(
        "scenarios",
        help="the scenario registry (adversaries, delays, topologies, "
        "drift profiles)",
    )
    scenarios_sub = scenarios_parser.add_subparsers(
        dest="scenarios_command", required=True
    )

    scenarios_list_parser = scenarios_sub.add_parser(
        "list", help="list registered scenarios"
    )
    scenarios_list_parser.add_argument(
        "--kind", choices=scenarios.KINDS, default=None,
        help="restrict to one scenario kind",
    )
    scenarios_list_parser.set_defaults(handler=_command_scenarios_list)

    scenarios_show_parser = scenarios_sub.add_parser(
        "show", help="describe one scenario entry"
    )
    scenarios_show_parser.add_argument(
        "key", help="scenario key, optionally qualified as kind:key"
    )
    scenarios_show_parser.add_argument(
        "--kind", choices=scenarios.KINDS, default=None,
        help="disambiguate keys that exist in several kinds",
    )
    scenarios_show_parser.set_defaults(handler=_command_scenarios_show)

    ablate_parser = sub.add_parser(
        "ablate",
        help="protocol ablation engine: per-component importance for "
        "every theorem bound (see docs/ABLATIONS.md)",
    )
    ablate_sub = ablate_parser.add_subparsers(
        dest="ablate_command", required=True
    )

    ablate_shared = argparse.ArgumentParser(add_help=False)
    ablate_shared.add_argument(
        "--tier", choices=("quick", "full"), default="quick",
        help="measurement tier (default quick — the CI matrix)",
    )
    ablate_shared.add_argument(
        "--component", action="append", metavar="NAME",
        help="restrict to this component (repeatable; unknown names "
        "get a did-you-mean hint; default: all)",
    )
    ablate_shared.add_argument(
        "--pairwise", action="store_true",
        help="also switch off every selected pair together "
        "(interaction effects)",
    )
    ablate_shared.add_argument(
        "--seed", type=int, default=53,
        help="campaign seed keying every derived trial seed "
        "(default 53, the committed artifact's seed)",
    )

    ablate_plan_parser = ablate_sub.add_parser(
        "plan",
        help="show the expanded matrix: every planned trial with its "
        "content-addressed case key",
        parents=[ablate_shared],
    )
    ablate_plan_parser.set_defaults(handler=_command_ablate_plan)

    ablate_run_parser = ablate_sub.add_parser(
        "run",
        help="execute the matrix and write the importance artifact",
        parents=[ablate_shared, _execution_parent()],
    )
    ablate_run_parser.set_defaults(max_trials=12)
    ablate_run_parser.add_argument(
        "--out", default=DEFAULT_ABLATION,
        help=f"importance artifact path (default {DEFAULT_ABLATION})",
    )
    ablate_run_parser.add_argument(
        "--check", action="store_true",
        help="verify --out matches the fresh payload byte-for-byte "
        "instead of writing it (the CI freshness gate)",
    )
    ablate_run_parser.set_defaults(handler=_command_ablate_run)

    ablate_report_parser = ablate_sub.add_parser(
        "report",
        help="render the committed importance artifact (no execution)",
    )
    ablate_report_parser.add_argument(
        "--path", default=DEFAULT_ABLATION,
        help=f"artifact to render (default {DEFAULT_ABLATION})",
    )
    ablate_report_parser.set_defaults(handler=_command_ablate_report)

    check_parser = sub.add_parser(
        "check",
        help="conformance engine (theorem-bound monitors over the "
        "scenario registry)",
    )
    check_sub = check_parser.add_subparsers(
        dest="check_command", required=True
    )

    check_sub.add_parser(
        "list", help="list the conformance monitors and their claims"
    ).set_defaults(handler=_command_check_list)

    check_run_parser = check_sub.add_parser(
        "run", help="conformance-run one registry scenario",
        parents=[backend_parent],
    )
    check_run_parser.add_argument(
        "key", help="scenario key, optionally qualified as kind:key"
    )
    check_run_parser.add_argument(
        "--kind", choices=scenarios.KINDS, default=None,
        help="disambiguate keys that exist in several kinds",
    )
    check_run_parser.add_argument(
        "--monitor", action="append",
        help="restrict the report to this monitor (repeatable); must "
        "be applicable to the scenario",
    )
    check_run_parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    check_run_parser.add_argument("--seed", type=int, default=0)
    check_run_parser.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="scenario-factory override (repeatable), e.g. "
        "--param cycles=3 on a churn profile",
    )
    check_run_parser.set_defaults(handler=_command_check_run)

    check_matrix_parser = check_sub.add_parser(
        "matrix",
        help="sweep every applicable registry scenario and render the "
        "scenario x monitor pass/fail matrix",
        parents=[backend_parent],
    )
    check_matrix_parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    check_matrix_parser.add_argument("--seed", type=int, default=0)
    check_matrix_parser.add_argument(
        "--kind", action="append", choices=scenarios.KINDS,
        help="restrict to one scenario kind (repeatable)",
    )
    check_matrix_parser.add_argument(
        "--out", default=DEFAULT_CONFORMANCE,
        help=f"JSON verdicts file (default {DEFAULT_CONFORMANCE}; "
        "empty string to skip)",
    )
    check_matrix_parser.set_defaults(handler=_command_check_matrix)

    check_fixture_parser = check_sub.add_parser(
        "fixture",
        help="run the deliberately-broken executions and verify the "
        "monitors fire",
    )
    check_fixture_parser.add_argument("--seed", type=int, default=2)
    check_fixture_parser.add_argument(
        "--fixture", default="all",
        help="which broken execution to run: the E8 u~>>u corner "
        "('broken'), the crash-without-recovery schedule ('churn'), "
        "both ('all', default), or a path to a serialized fuzz "
        "fixture to replay against its recorded expectation",
    )
    check_fixture_parser.set_defaults(handler=_command_check_fixture)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="property-based search for theorem-bound violations "
        "(Hypothesis strategies over the scenario registry)",
    )
    fuzz_sub = fuzz_parser.add_subparsers(
        dest="fuzz_command", required=True
    )

    fuzz_run_parser = fuzz_sub.add_parser(
        "run", help="run a budgeted search through the monitor oracle"
    )
    fuzz_run_parser.add_argument(
        "--strategy", default="valid",
        help="search space: valid (cps+churn, default), cps, churn, "
        "or known-bad (the E8 u~>>u region the oracle must catch)",
    )
    fuzz_run_parser.add_argument(
        "--budget", type=int, default=100,
        help="Hypothesis examples to generate (default 100)",
    )
    fuzz_run_parser.add_argument("--seed", type=int, default=0)
    fuzz_run_parser.add_argument(
        "--max-interesting", type=int, default=2,
        help="surviving near-bound corners kept as fixtures "
        "(default 2)",
    )
    fuzz_run_parser.add_argument(
        "--out", default=os.path.join("results", "fuzz", "corpus"),
        help="directory for found fixtures "
        "(default results/fuzz/corpus)",
    )
    fuzz_run_parser.add_argument(
        "--no-save", action="store_true",
        help="report only; do not write fixture files",
    )
    fuzz_run_parser.add_argument(
        "--promote", action="store_true",
        help="also promote saved fixtures into results/fuzz/promoted "
        "and the scenario registry",
    )
    fuzz_run_parser.set_defaults(handler=_command_fuzz_run)

    fuzz_list_parser = fuzz_sub.add_parser(
        "list", help="list the fixture corpus (found and promoted)"
    )
    fuzz_list_parser.add_argument(
        "--dir", default=os.path.join("results", "fuzz"),
        help="fuzz results root (default results/fuzz)",
    )
    fuzz_list_parser.set_defaults(handler=_command_fuzz_list)

    fuzz_replay_parser = fuzz_sub.add_parser(
        "replay",
        help="re-execute one fixture and print its canonical verdict "
        "payload (byte-stable)",
    )
    fuzz_replay_parser.add_argument(
        "fixture", help="path to a fuzz fixture JSON file"
    )
    fuzz_replay_parser.add_argument(
        "--trace", choices=("pulses", "full"), default="pulses",
        help="trace level for the replay (verdicts are identical)",
    )
    fuzz_replay_parser.set_defaults(handler=_command_fuzz_replay)

    fuzz_promote_parser = fuzz_sub.add_parser(
        "promote",
        help="persist a fixture under promoted/ and register it as a "
        "fuzz-kind scenario entry",
    )
    fuzz_promote_parser.add_argument(
        "fixture", help="path to a fuzz fixture JSON file"
    )
    fuzz_promote_parser.add_argument(
        "--dest", default=os.path.join("results", "fuzz", "promoted"),
        help="promoted-corpus directory "
        "(default results/fuzz/promoted)",
    )
    fuzz_promote_parser.set_defaults(handler=_command_fuzz_promote)

    perf_parser = sub.add_parser(
        "perf", help="benchmark tracking (probes, baselines, CI gate)"
    )
    perf_sub = perf_parser.add_subparsers(dest="perf_command", required=True)

    perf_sub.add_parser(
        "list", help="list registered perf cases"
    ).set_defaults(handler=_command_perf_list)

    perf_run_parser = perf_sub.add_parser(
        "run", help="measure perf cases and write BENCH_<name>.json",
        parents=[backend_parent],
    )
    perf_run_parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale workloads (seconds, not minutes)",
    )
    perf_run_parser.add_argument(
        "--case", action="append",
        help="measure only this case (repeatable; default: all)",
    )
    perf_run_parser.add_argument(
        "--out", default=DEFAULT_BENCH_DIR,
        help=f"directory for BENCH_*.json (default {DEFAULT_BENCH_DIR})",
    )
    perf_run_parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per case, best run kept (default 3)",
    )
    perf_run_parser.set_defaults(handler=_command_perf_run)

    perf_compare_parser = perf_sub.add_parser(
        "compare",
        help="grade BENCH_*.json files against a baseline (CI gate)",
    )
    perf_compare_parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline JSON file (default {DEFAULT_BASELINE})",
    )
    perf_compare_parser.add_argument(
        "--current", default=DEFAULT_BENCH_DIR,
        help="directory of fresh BENCH_*.json files "
        f"(default {DEFAULT_BENCH_DIR})",
    )
    perf_compare_parser.add_argument(
        "--tolerance", type=float, default=0.35,
        help="accepted fractional throughput drop (default 0.35)",
    )
    perf_compare_parser.set_defaults(handler=_command_perf_compare)

    perf_baseline_parser = perf_sub.add_parser(
        "baseline",
        help="re-record the committed baseline from current results",
    )
    perf_baseline_parser.add_argument(
        "--current", default=DEFAULT_BENCH_DIR,
        help="directory of fresh BENCH_*.json files "
        f"(default {DEFAULT_BENCH_DIR})",
    )
    perf_baseline_parser.add_argument(
        "--out", default=DEFAULT_BASELINE,
        help=f"baseline file to write (default {DEFAULT_BASELINE})",
    )
    perf_baseline_parser.add_argument(
        "--notes", default="",
        help="free-form provenance note stored in the baseline",
    )
    perf_baseline_parser.set_defaults(handler=_command_perf_baseline)

    telemetry_parser = sub.add_parser(
        "telemetry",
        help="inspect campaign telemetry sidecars (counters, spans, "
        "histograms)",
    )
    telemetry_sub = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True
    )

    telemetry_sub.add_parser(
        "list", help="list the metric catalog"
    ).set_defaults(handler=_command_telemetry_list)

    telemetry_show_parser = telemetry_sub.add_parser(
        "show", help="render one campaign's telemetry sidecar"
    )
    telemetry_show_parser.add_argument(
        "campaign",
        help="campaign id (e.g. E4) or a .telemetry.json path",
    )
    telemetry_show_parser.add_argument("--scale", default="quick")
    telemetry_show_parser.add_argument(
        "--store", help="result-store directory holding the sidecar"
    )
    telemetry_show_parser.add_argument(
        "--metric", action="append",
        help="restrict output to this metric (repeatable)",
    )
    telemetry_show_parser.set_defaults(handler=_command_telemetry_show)

    telemetry_aggregate_parser = telemetry_sub.add_parser(
        "aggregate",
        help="merge every sidecar in a store into one aggregate",
    )
    telemetry_aggregate_parser.add_argument(
        "--store", required=True,
        help="result-store directory to scan for *.telemetry.json",
    )
    telemetry_aggregate_parser.add_argument(
        "--out", help="also write the merged aggregate as JSON"
    )
    telemetry_aggregate_parser.set_defaults(
        handler=_command_telemetry_aggregate
    )

    telemetry_diff_parser = telemetry_sub.add_parser(
        "diff", help="counter/gauge deltas between two sidecars"
    )
    telemetry_diff_parser.add_argument(
        "a", help="campaign id or .telemetry.json path (left side)"
    )
    telemetry_diff_parser.add_argument(
        "b", help="campaign id or .telemetry.json path (right side)"
    )
    telemetry_diff_parser.add_argument("--scale", default="quick")
    telemetry_diff_parser.add_argument(
        "--store", help="result-store directory holding the sidecars"
    )
    telemetry_diff_parser.add_argument(
        "--metric", action="append",
        help="restrict output to this metric (repeatable)",
    )
    telemetry_diff_parser.add_argument(
        "--changed-only", action="store_true",
        help="hide metrics whose delta is zero",
    )
    telemetry_diff_parser.set_defaults(handler=_command_telemetry_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except scenarios.UnknownScenarioError as exc:
        # KeyError wraps its message in repr; unwrap for a clean line.
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    except UnknownBackendError as exc:
        raise SystemExit(str(exc)) from None
    except UnknownComponentError as exc:
        raise SystemExit(str(exc)) from None
    except MalformedScheduleError as exc:
        raise SystemExit(f"malformed fault schedule: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
