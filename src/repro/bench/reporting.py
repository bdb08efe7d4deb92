"""Text rendering for experiment results.

Every figure's harness produces an aligned text table (the closest
deterministic analogue of the paper's bar charts) that is archived under
``benchmarks/results/`` and summarised in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable


def format_table(headers: list[str], rows: list[list],
                 title: str = "") -> str:
    """Render an aligned, pipe-separated text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: list[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out) + "\n"


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_series(title: str, x_label: str, xs: Iterable,
                  series: dict[str, dict]) -> str:
    """Render several named series over shared x values as a table."""
    headers = [x_label] + list(series)
    rows = []
    for x in xs:
        rows.append([x] + [series[name].get(x, "") for name in series])
    return format_table(headers, rows, title)


def headings(text: str) -> list[tuple[str, list[str]]]:
    """The title and column names of each titled table in ``text``:
    the layout of a table, which its small and full-size runs share."""
    lines = text.splitlines()
    return [(lines[i - 1], [name.strip() for name in
                            lines[i + 1].split(" | ")])
            for i, line in enumerate(lines)
            if i and line and set(line) == {"="}]


def telemetry_summary(snapshot: dict | None) -> dict:
    """Compact telemetry columns for figure tables.

    Maps a run's telemetry snapshot (see docs/TELEMETRY.md) to the
    header → value pairs the figure harnesses append when telemetry is
    on; an empty dict when the run carried no snapshot, so callers can
    extend their headers only when there is data.
    """
    if not snapshot:
        return {}
    prefetch = snapshot.get("prefetch", {})
    outcomes = prefetch.get("outcomes", {})
    return {
        "Pf issued": prefetch.get("issued", 0),
        "Pf timely": outcomes.get("timely", 0),
        "Pf late": outcomes.get("late", 0),
        "Pf accuracy": prefetch.get("accuracy", 0.0),
    }
