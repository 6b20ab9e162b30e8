"""Terminal-friendly figure rendering (ASCII sparklines and panels).

The benchmark suite and examples print the paper's figures as text; this
module provides the shared rendering helpers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_BLOCKS = " .:-=+*#%@"


def sparkline(
    values: Sequence[float],
    width: int = 48,
    lo: float | None = None,
    hi: float | None = None,
) -> str:
    """Render a series as a fixed-width intensity strip.

    ``lo``/``hi`` pin the scale (useful to keep several series
    comparable, e.g. anchoring ``hi`` at the QoS target).
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return " " * width
    idx = np.linspace(0, len(values) - 1, width).astype(int)
    sampled = values[idx]
    lo = float(sampled.min()) if lo is None else lo
    hi = float(sampled.max()) if hi is None else hi
    span = max(hi - lo, 1e-12)
    out = []
    for value in sampled:
        level = (value - lo) / span * (len(_BLOCKS) - 1)
        out.append(_BLOCKS[int(round(min(max(level, 0), len(_BLOCKS) - 1)))])
    return "".join(out)


def histogram(
    values: Sequence[float],
    bins: int = 10,
    width: int = 40,
    title: str = "",
) -> str:
    """Horizontal ASCII histogram."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return title
    counts, edges = np.histogram(values, bins=bins)
    peak = max(counts.max(), 1)
    lines = [title] if title else []
    for count, lo_edge, hi_edge in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"  [{lo_edge:8.1f}, {hi_edge:8.1f})  {bar} {count}")
    return "\n".join(lines)


__all__ = ["sparkline", "histogram"]
