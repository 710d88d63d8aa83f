"""Rendering of experiment results: the paper's figure series.

Figures are rendered as aligned ASCII tables (one row per benchmark, one
column per system) plus a geometric-mean summary row — the same series
the paper's bar charts plot.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .measure import geomean

__all__ = ["format_overhead_table"]


def format_overhead_table(
    table: Mapping[str, Mapping[str, float]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
    unit: str = "%",
) -> str:
    """Render benchmark-by-system overheads with a geomean footer."""
    benchmarks = sorted(table)
    if columns is None:
        seen: List[str] = []
        for row in table.values():
            for key in row:
                if key not in seen:
                    seen.append(key)
        columns = seen
    name_width = max([len(b) for b in benchmarks] + [len("geomean"), 9])
    col_width = max([len(c) for c in columns] + [8])

    lines: List[str] = []
    if title:
        lines.append(title)
    header = " " * name_width + " | " + " | ".join(
        f"{c:>{col_width}}" for c in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    for bench in benchmarks:
        row = table[bench]
        cells = " | ".join(
            f"{row.get(c, float('nan')):>{col_width - 1}.1f}{unit}"
            for c in columns
        )
        lines.append(f"{bench:<{name_width}} | {cells}")
    lines.append("-" * len(header))
    means = {
        c: geomean([table[b][c] for b in benchmarks if c in table[b]])
        for c in columns
    }
    cells = " | ".join(
        f"{means[c]:>{col_width - 1}.1f}{unit}" for c in columns
    )
    lines.append(f"{'geomean':<{name_width}} | {cells}")
    return "\n".join(lines)
