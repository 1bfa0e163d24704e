"""Benchmark results: the ``BENCH_<name>.json`` interchange format.

A :class:`BenchResult` is one named perf case's measurement — throughput,
wall time, peak memory, machine calibration — serialized to a
``BENCH_<name>.json`` file.  CI uploads these as workflow artifacts and
:mod:`repro.perf.baseline` compares them against the committed baseline.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.perf.probe import ProbeReading

#: File-name pattern for serialized results.
BENCH_PREFIX = "BENCH_"


@dataclass(frozen=True)
class BenchResult:
    """One perf case's measurement, JSON round-trippable."""

    name: str
    events: int  # work count, in ``meta["unit"]`` when set, else events
    wall_seconds: float
    events_per_sec: float
    peak_rss_kib: int
    calibration: float
    created: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def normalized_throughput(self) -> Optional[float]:
        """events/sec divided by the machine calibration (portable)."""
        if self.calibration <= 0:
            return None
        return self.events_per_sec / self.calibration

    @classmethod
    def from_reading(cls, name: str, reading: ProbeReading) -> "BenchResult":
        return cls(
            name=name,
            events=reading.events,
            wall_seconds=reading.wall_seconds,
            events_per_sec=reading.events_per_sec,
            peak_rss_kib=reading.peak_rss_kib,
            calibration=reading.calibration,
            created=time.strftime("%Y-%m-%dT%H:%M:%S"),
            meta=dict(reading.meta),
        )

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "peak_rss_kib": self.peak_rss_kib,
            "calibration": self.calibration,
            "created": self.created,
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        return cls(
            name=payload["name"],
            events=int(payload.get("events", 0)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            events_per_sec=float(payload.get("events_per_sec", 0.0)),
            peak_rss_kib=int(payload.get("peak_rss_kib", 0)),
            calibration=float(payload.get("calibration", 0.0)),
            created=payload.get("created", ""),
            meta=payload.get("meta") or {},
        )

    # ------------------------------------------------------------------
    # Files

    def file_name(self) -> str:
        return f"{BENCH_PREFIX}{self.name}.json"

    def write(self, directory: str) -> str:
        """Write ``BENCH_<name>.json`` into ``directory``; return the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, self.file_name())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "BenchResult":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json_dict(json.load(handle))


def load_results(directory: str) -> Dict[str, BenchResult]:
    """All ``BENCH_*.json`` results in ``directory``, keyed by case name."""
    results: Dict[str, BenchResult] = {}
    if not os.path.isdir(directory):
        return results
    for entry in sorted(os.listdir(directory)):
        if entry.startswith(BENCH_PREFIX) and entry.endswith(".json"):
            result = BenchResult.load(os.path.join(directory, entry))
            results[result.name] = result
    return results
