"""Result rendering: ASCII tables (paper-style) and CSV persistence."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from ..errors import ExperimentError

__all__ = ["render_table", "write_csv", "format_cell"]

Cell = Union[str, int, float, None]


def format_cell(value: Cell, precision: int = 4) -> str:
    """Uniform cell formatting: floats trimmed, None shown as em-dash."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.{precision}g}"
        return f"{value:.{precision}g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render a fixed-width ASCII table (the CLI output format)."""
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != len(headers):
            raise ExperimentError(
                f"row width {len(r)} != header width {len(headers)}"
            )
    text_rows = [[format_cell(c, precision) for c in r] for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    sep = "-+-".join("-" * w for w in widths)
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    out.write(sep + "\n")
    for r in text_rows:
        out.write(" | ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    return out.getvalue()


def write_csv(
    path: Union[str, Path],
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
) -> Path:
    """Persist a result table as CSV; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(["" if c is None else c for c in row])
    return path
