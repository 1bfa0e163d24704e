"""Per-case throughput accounting for campaign runs (the ``--perf`` flag).

Pulse-trial builders record the simulator events each trial processed
(the ``events`` metric); combined with the executor's per-trial wall
time this yields events/sec per case without re-running anything.  The
vectorized backend dispatches no per-message events, so there the
metric counts *modeled* events and the summary's ``unit`` says so.
:func:`campaign_throughput` aggregates a
:class:`~repro.campaigns.executor.CampaignRun` into a JSON-ready summary
and ``repro campaign run --perf`` persists it next to the trial records
in the result store (``<spec_key>.perf.json``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.campaigns.executor import CampaignRun
from repro.perf.probe import peak_rss_kib

#: What a trial's ``events`` metric counts on each backend: the event
#: engine dispatches its events, the vectorized engine only models the
#: deliveries the event engine would have dispatched.
EVENT_UNITS: Dict[str, str] = {
    "event": "events",
    "vectorized": "modeled-events",
}


def trial_throughput(record: Any) -> Optional[Dict[str, Any]]:
    """Throughput of one executed trial, or None when unmeasurable.

    Cached records replay in microseconds and carry their *original*
    duration, so they are excluded rather than skewing the numbers.
    """
    events = record.metrics.get("events") if record.ok else None
    if record.cached or not events or record.duration <= 0:
        return None
    return {
        "case_key": record.case_key,
        "builder": record.builder,
        "case": dict(record.case),
        "events": events,
        "duration": record.duration,
        "events_per_sec": events / record.duration,
    }


def campaign_throughput(run: CampaignRun) -> Dict[str, Any]:
    """Aggregate per-case and total throughput of a campaign run."""
    cases = []
    for record in run.records:
        throughput = trial_throughput(record)
        if throughput is not None:
            cases.append(throughput)
    total_events = sum(case["events"] for case in cases)
    total_duration = sum(case["duration"] for case in cases)
    return {
        "campaign": run.spec.name,
        "scale": run.scale,
        "trials": len(run.records),
        "measured": len(cases),
        "cached": run.cached,
        "failed": run.failed,
        "unit": EVENT_UNITS[run.spec.measurement_for(run.scale).backend],
        "events": total_events,
        "duration": total_duration,
        "events_per_sec": (
            total_events / total_duration if total_duration > 0 else 0.0
        ),
        "peak_rss_kib": peak_rss_kib(),
        "cases": cases,
    }
