"""Plain-text table rendering for the benchmark harness output."""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table (the benches print these so their
    output reads like the paper's tables)."""
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i]
                           for i in range(len(headers))))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.2f" % value
    return str(value)


def format_cdf_summary(name: str, xs: List[float],
                       fractions: List[float],
                       probes: Sequence[float] = (50, 100, 200, 400)
                       ) -> str:
    """One-line CDF summary: fraction of mass below each probe point."""
    parts = []
    for probe in probes:
        fraction = 0.0
        for x, f in zip(xs, fractions):
            if x <= probe:
                fraction = f
            else:
                break
        parts.append("<%gms: %.0f%%" % (probe, fraction * 100))
    return "%s  %s" % (name.ljust(12), "  ".join(parts))
