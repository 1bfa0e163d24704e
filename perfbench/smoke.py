"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench/smoke.py -q

It checks that every workload prints every end-to-end metric with its
unit and sample count, that the traced run's digest equals the
untraced run's, that the correctness gate fails a run whose protocol
cannot make progress, and that the command refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import UNITS  # noqa: E402
from run import END_TO_END, REPORTED  # noqa: E402

WORKLOADS = ("event-byzantine", "vectorized-10k", "stress-campaign")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "0.1", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_of(child: subprocess.CompletedProcess) -> dict:
    return json.loads(child.stdout.strip().splitlines()[-1])


def digest_of(child: subprocess.CompletedProcess) -> str:
    (digest,) = re.findall(r"digest ([0-9a-f]{64})", child.stdout)
    return digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_printed_and_traced_digest_matches(workload: str) -> None:
    plain = bench("--workload", workload, "--size", "tiny", "--trace", "0")
    assert plain.returncode == 0, plain.stdout + plain.stderr
    result = result_of(plain)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == END_TO_END
    printed = dict(END_TO_END, **REPORTED)
    if workload == "vectorized-10k":
        del printed["events_per_s"]
        assert "events_per_s: not applicable" in plain.stdout
    for name, unit in printed.items():
        # name, value, unit, then the sample count the value rests on
        line = re.search(
            rf"^  {re.escape(name)} +\S+ {re.escape(unit)} +.*\d+ [a-z-]+",
            plain.stdout, re.MULTILINE,
        )
        assert line, f"{name} missing from:\n{plain.stdout}"
    assert re.search(r"failed_ratio 0/\d+ trials", plain.stdout)

    traced = bench("--workload", workload, "--size", "tiny", "--trace", "1")
    assert traced.returncode == 0, traced.stdout + traced.stderr
    result = result_of(traced)
    assert result["correct"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == UNITS
    assert "and the traced pass" in traced.stdout
    assert digest_of(traced) == digest_of(plain)
    assert "= traced wall_s" in traced.stdout


def test_gate_fails_a_stalled_protocol() -> None:
    """Without the TCB window filter every node stalls after one pulse."""
    child = bench("--workload", "event-byzantine", "--size", "tiny",
                  "--trace", "0", "--ablate", "tcb-filter")
    assert child.returncode != 0
    result = result_of(child)
    assert result["correct"] is False
    assert result["failed"] >= 1
    # The replay run: all four honest nodes stop after their first pulse.
    assert "4 honest node(s) missed the quota (lowest 1 of 10 pulses)" in (
        child.stdout
    )


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = bench("--workload", "event-byzantine", cwd=tmp_path)
    assert child.returncode != 0
    assert "correct" not in child.stdout


def test_benchmark_json_lists_the_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
