"""Plain-text aligned-column tables for report rendering."""

from __future__ import annotations

from typing import Sequence


class EmptyEvents(ValueError):
    """Nothing to compile into a statistics table."""


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    cols = [list(col) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(cell) for cell in col) for col in cols]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([line(headers), rule] + [line(r) for r in rows]) + "\n"


def pct(value: float | None) -> str:
    return "--" if value is None else f"{value:.1f}"
