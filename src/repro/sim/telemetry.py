"""Interval telemetry: the cgroup-style metrics Sinan consumes.

The paper's per-node agents read Docker's cgroup interface once per 1 s
decision interval: CPU usage, memory usage (resident set size and cache
memory), and network usage (received/sent packets).  End-to-end latency
percentiles (95th-99th) come from the API gateway.  No per-request
tracing is required (paper Section 3.1); the same holds here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Latency percentiles reported per interval (paper: 95th to 99th).
LATENCY_PERCENTILES: tuple[int, ...] = (95, 96, 97, 98, 99)

#: Per-tier resource channels, the ``F`` axis of the CNN input tensor.
RESOURCE_CHANNELS: tuple[str, ...] = (
    "cpu_util",
    "cpu_alloc",
    "rss_mb",
    "cache_mb",
    "rx_pps",
    "tx_pps",
)

#: Channel indices used by the feature pipeline.
CPU_UTIL_CHANNEL = 0
CPU_ALLOC_CHANNEL = 1


@dataclass
class IntervalStats:
    """Telemetry for one 1 s decision interval.

    All per-tier arrays are indexed consistently with
    :attr:`repro.sim.graph.AppGraph.tier_names`.
    """

    time: float
    """End time of the interval (seconds since episode start)."""

    rps: float
    """Total offered requests per second during the interval."""

    rps_by_type: dict[str, float]
    """Offered load decomposed per request type."""

    cpu_alloc: np.ndarray
    """Per-tier CPU limit in cores (the knob managers turn)."""

    cpu_util: np.ndarray
    """Per-tier CPU utilization in [0, 1] relative to the limit."""

    rss_mb: np.ndarray
    """Per-tier resident set size (MB)."""

    cache_mb: np.ndarray
    """Per-tier page-cache memory (MB)."""

    rx_pps: np.ndarray
    """Per-tier received packets per second."""

    tx_pps: np.ndarray
    """Per-tier transmitted packets per second."""

    queue: np.ndarray
    """Per-tier queue length at interval end (simulator ground truth;
    exposed for PowerChief's queueing analysis and for diagnostics, not
    used by Sinan's models)."""

    latency_ms: np.ndarray
    """End-to-end tail latencies at :data:`LATENCY_PERCENTILES` (ms)."""

    drops: float = 0.0
    """Requests dropped this interval due to queue overflow."""

    latency_samples_ms: np.ndarray | None = None
    """Raw sampled end-to-end latencies (ms), when retained."""

    @property
    def p99_ms(self) -> float:
        """99th-percentile end-to-end latency, the paper's QoS metric."""
        return float(self.latency_ms[LATENCY_PERCENTILES.index(99)])

    @property
    def total_cpu(self) -> float:
        """Aggregate CPU allocation across tiers (paper Figure 11 metric)."""
        return float(self.cpu_alloc.sum())

    def resource_matrix(self) -> np.ndarray:
        """Stack the resource channels into an ``(F, N)`` matrix."""
        return np.stack(
            [
                self.cpu_util,
                self.cpu_alloc,
                self.rss_mb,
                self.cache_mb,
                self.rx_pps,
                self.tx_pps,
            ]
        )


class TelemetryLog:
    """Append-only history of :class:`IntervalStats` for one episode.

    Provides the windowed views the feature encoder needs (the CNN looks
    at the last ``T`` intervals) and summary series for reporting.
    """

    def __init__(self) -> None:
        self._stats: list[IntervalStats] = []

    def append(self, stats: IntervalStats) -> None:
        self._stats.append(stats)

    def __len__(self) -> int:
        return len(self._stats)

    def __getitem__(self, idx):
        return self._stats[idx]

    def __iter__(self):
        return iter(self._stats)

    @property
    def latest(self) -> IntervalStats:
        if not self._stats:
            raise IndexError("telemetry log is empty")
        return self._stats[-1]

    def window(self, length: int) -> list[IntervalStats]:
        """Last ``length`` intervals, left-padded by repeating the oldest.

        Padding keeps the encoder shape-stable during the first seconds of
        an episode, matching how the paper's agent warms up its history
        buffer.
        """
        if length <= 0:
            raise ValueError(f"window length must be >= 1, got {length}")
        if not self._stats:
            raise IndexError("telemetry log is empty")
        tail = self._stats[-length:]
        if len(tail) < length:
            tail = [tail[0]] * (length - len(tail)) + tail
        return tail

    def p99_series(self) -> np.ndarray:
        """End-to-end p99 latency per interval (ms)."""
        return np.array([s.p99_ms for s in self._stats])

    def latency_matrix(self) -> np.ndarray:
        """``(intervals, percentiles)`` latency history (ms)."""
        return np.stack([s.latency_ms for s in self._stats])

    def total_cpu_series(self) -> np.ndarray:
        """Aggregate CPU allocation per interval."""
        return np.array([s.total_cpu for s in self._stats])

    def alloc_matrix(self) -> np.ndarray:
        """``(intervals, tiers)`` CPU allocation history."""
        return np.stack([s.cpu_alloc for s in self._stats])

    def rps_series(self) -> np.ndarray:
        """Total offered RPS per interval."""
        return np.array([s.rps for s in self._stats])

    def qos_meet_fraction(self, qos_ms: float) -> float:
        """Fraction of intervals whose p99 met the QoS target."""
        if not self._stats:
            return 1.0
        p99 = self.p99_series()
        return float(np.mean(p99 <= qos_ms))


__all__ = [
    "IntervalStats",
    "TelemetryLog",
    "LATENCY_PERCENTILES",
    "RESOURCE_CHANNELS",
]
