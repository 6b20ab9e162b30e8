"""Output checks, digests and the percentile rule of the benchmark.

Every episode the benchmark runs is checked here: each applied
allocation lies inside the per-tier bounds and under the CPU ceiling
(the platform's, or the shared budget summed over tenants), every
decision interval ran, and every summary value is finite.  The applied
allocation matrix and the ground-truth p99 series feed a sha256 digest
that a repeated pass of the same seed must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

#: Slack for float round-off when comparing against a bound.
TOLERANCE = 1e-6

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile, refused without 10 samples beyond it."""
    values = np.asarray(samples, dtype=float)
    beyond = len(values) - math.ceil(len(values) * q / 100.0)
    if beyond < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return float(np.percentile(values, q))


def allocation_errors(
    allocs: np.ndarray,
    min_alloc: np.ndarray,
    max_alloc: np.ndarray,
    ceiling: float,
    label: str,
) -> list[str]:
    """Violations of per-tier bounds or the ceiling in an (intervals, tiers) matrix."""
    allocs = np.asarray(allocs, dtype=float)
    errors = []
    if not np.all(np.isfinite(allocs)):
        errors.append(f"{label}: non-finite applied allocation")
        return errors
    low = np.flatnonzero((allocs < min_alloc - TOLERANCE).any(axis=1))
    high = np.flatnonzero((allocs > max_alloc + TOLERANCE).any(axis=1))
    over = np.flatnonzero(allocs.sum(axis=1) > ceiling + TOLERANCE)
    if len(low):
        errors.append(f"{label}: below the tier floor at interval {int(low[0])}")
    if len(high):
        errors.append(f"{label}: above the tier ceiling at interval {int(high[0])}")
    if len(over):
        i = int(over[0])
        errors.append(
            f"{label}: {allocs[i].sum():.3f} cores over the {ceiling:g}-core "
            f"ceiling at interval {i}"
        )
    return errors


def interval_errors(times: np.ndarray, duration: int, label: str) -> list[str]:
    """Check that all ``duration`` one-second intervals ran, in order."""
    times = np.asarray(times, dtype=float)
    if len(times) != duration:
        return [f"{label}: {len(times)} of {duration} intervals ran"]
    expected = np.arange(1, duration + 1, dtype=float)
    if not np.allclose(times, expected, rtol=0.0, atol=TOLERANCE):
        return [f"{label}: interval clock is not 1..{duration}"]
    return []


def finite_errors(summary: dict[str, float], label: str) -> list[str]:
    """Names of non-finite summary values."""
    return [
        f"{label}: {name} is not finite"
        for name, value in summary.items()
        if not math.isfinite(value)
    ]


def telemetry_arrays(log, qos) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(applied alloc matrix, p99 series, interval end times) of a log."""
    allocs = log.alloc_matrix()
    p99 = np.array([qos.latency_of(s) for s in log], dtype=float)
    times = np.array([s.time for s in log], dtype=float)
    return allocs, p99, times


def digest_update(hasher, allocs: np.ndarray, p99: np.ndarray) -> None:
    """Fold one episode's allocation matrix and p99 series into a digest."""
    hasher.update(np.ascontiguousarray(allocs, dtype=np.float64).tobytes())
    hasher.update(np.ascontiguousarray(p99, dtype=np.float64).tobytes())


__all__ = [
    "InsufficientSamples",
    "MIN_TAIL_SAMPLES",
    "allocation_errors",
    "digest_update",
    "finite_errors",
    "interval_errors",
    "percentile",
    "telemetry_arrays",
]
