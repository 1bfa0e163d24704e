"""Reduce campaign trial records into the repo's ``Table`` rows.

The executor yields flat :class:`~repro.campaigns.executor.TrialRecord`
lists; experiments group them, pull case/metric values, and emit the
same :class:`~repro.analysis.reporting.Table` objects the CLI and CSV
snapshots already render.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.reporting import Table
from repro.campaigns.executor import CampaignRun, TrialRecord

_MISSING = object()


def value_of(record: TrialRecord, key: str, default: Any = _MISSING) -> Any:
    """A named value from a record: case first, then metrics."""
    if key in record.case:
        return record.case[key]
    if key in record.metrics:
        return record.metrics[key]
    if default is not _MISSING:
        return default
    raise KeyError(
        f"record for {record.builder!r} has no value {key!r} "
        f"(case keys {sorted(record.case)}, "
        f"metric keys {sorted(record.metrics)})"
    )


def group_by(
    records: Iterable[TrialRecord], keys: Sequence[str]
) -> Dict[Tuple[Any, ...], List[TrialRecord]]:
    """Group records by case/metric values, preserving first-seen order."""
    groups: Dict[Tuple[Any, ...], List[TrialRecord]] = {}
    for record in records:
        group = tuple(value_of(record, key) for key in keys)
        groups.setdefault(group, []).append(record)
    return groups


def summary_stats(values: Iterable[float]) -> Dict[str, float]:
    """count / mean / min / max over the finite entries of ``values``."""
    finite = [v for v in values if isinstance(v, (int, float))
              and math.isfinite(v)]
    if not finite:
        return {"count": 0, "mean": float("nan"),
                "min": float("nan"), "max": float("nan")}
    return {
        "count": len(finite),
        "mean": sum(finite) / len(finite),
        "min": min(finite),
        "max": max(finite),
    }


def failure_counts(records: Iterable[TrialRecord]) -> Dict[str, int]:
    """Failures tabulated by error type (the ``Type:`` prefix)."""
    counter: Counter = Counter(
        (record.error or "").split(":", 1)[0]
        for record in records
        if not record.ok
    )
    return dict(counter)


def records_to_table(
    records: Sequence[TrialRecord],
    title: str,
    columns: Sequence[str],
    row_of: Optional[Callable[[TrialRecord], Sequence[Any]]] = None,
) -> Table:
    """Build a :class:`Table`, one row per record in record order.

    Without ``row_of``, each column name is looked up in the record's
    case/metrics via :func:`value_of` (error records render their error
    string in otherwise-missing cells).
    """
    table = Table(title, columns)
    for record in records:
        if row_of is not None:
            table.add_row(*row_of(record))
        else:
            table.add_row(
                *(
                    value_of(record, column, default=record.error)
                    for column in columns
                )
            )
    return table


def run_summary_table(run: CampaignRun) -> Table:
    """Per-builder execution statistics for a campaign run."""
    table = Table(
        f"Campaign {run.spec.name} [{run.scale}] — execution summary",
        [
            "builder",
            "trials",
            "executed",
            "cached",
            "failed",
            "mean s/trial",
        ],
    )
    for builder, group in _by_builder(run.records).items():
        stats = summary_stats(record.duration for record in group
                              if not record.cached)
        table.add_row(
            builder,
            len(group),
            sum(1 for record in group if not record.cached),
            sum(1 for record in group if record.cached),
            sum(1 for record in group if not record.ok),
            stats["mean"],
        )
    for error_type, count in sorted(failure_counts(run.records).items()):
        table.add_note(f"{count} failure(s) of type {error_type}")
    if run.adaptive is not None:
        a = run.adaptive
        table.add_note(
            f"adaptive: {a['trials']} trials over {a['cells']} cells "
            f"({a['converged']} converged, {a['exhausted']} at cap) — "
            f"saved {a['saved']} vs fixed "
            f"{a['max_trials']}x replication"
        )
        table.add_note(
            f"adaptive target: {a['metric']} CI width <= "
            f"{a['ci_width']} at {a['confidence']:.0%} confidence"
        )
    return table


def _by_builder(
    records: Iterable[TrialRecord],
) -> Dict[str, List[TrialRecord]]:
    groups: Dict[str, List[TrialRecord]] = {}
    for record in records:
        groups.setdefault(record.builder, []).append(record)
    return groups
