"""Plain-text tables and CSV output (no external dependencies).

Every experiment returns a :class:`Table`; the CLI shows it and
persists CSV snapshots (``repro run <id> --csv F``, ``repro all``), and
``docs/EXPERIMENTS.md`` catalogs how to regenerate each table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Sequence


def format_value(value: Any, precision: int = 6) -> str:
    """Human-friendly cell formatting (engineering-ish floats)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0.0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.{precision - 2}e}"
        return f"{value:.{precision}g}"
    return str(value)


@dataclass
class Table:
    """A titled, column-ordered result table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(values)}"
            )
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    def render(self, precision: int = 6) -> str:
        """ASCII rendering with aligned columns."""
        header = [str(c) for c in self.columns]
        body = [
            [format_value(cell, precision) for cell in row]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body))
            if body
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(header, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            writer.writerows(self.rows)

    def to_markdown(self, precision: int = 6) -> str:
        """GitHub-flavoured markdown rendering (for generated docs)."""
        header = "| " + " | ".join(str(c) for c in self.columns) + " |"
        rule = "|" + "|".join("---" for _ in self.columns) + "|"
        lines = [header, rule]
        for row in self.rows:
            lines.append(
                "| "
                + " | ".join(format_value(cell, precision) for cell in row)
                + " |"
            )
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)


def ratio(measured: float, bound: float) -> float:
    """``measured / bound`` with a sane 0/0 convention."""
    if bound == 0:
        return math.inf if measured > 0 else 0.0
    return measured / bound


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))
