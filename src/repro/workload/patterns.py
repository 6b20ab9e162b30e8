"""Load patterns: number of emulated users as a function of time.

Each pattern maps episode time (seconds) to a concurrent-user count; the
generator converts users to request rates at 1 RPS mean per user, the
paper's Locust configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@runtime_checkable
class LoadPattern(Protocol):
    """Time-varying user population."""

    def users(self, time: float) -> float:
        """Concurrent emulated users at episode time ``time`` (seconds)."""
        ...


@dataclass(frozen=True)
class ConstantLoad:
    """Fixed user population (the paper's Figure 11 load levels)."""

    n_users: float

    def __post_init__(self) -> None:
        if self.n_users < 0:
            raise ValueError("n_users must be >= 0")

    def users(self, time: float) -> float:
        return self.n_users


@dataclass(frozen=True)
class StepLoad:
    """Piecewise-constant load: steps of ``(start_time, users)``.

    Steps must be sorted by start time; the first step should start at 0.
    """

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("need at least one step")
        times = [t for t, _ in self.steps]
        if times != sorted(times):
            raise ValueError("steps must be sorted by start time")

    def users(self, time: float) -> float:
        current = self.steps[0][1]
        for start, users in self.steps:
            if time >= start:
                current = users
            else:
                break
        return current


@dataclass(frozen=True)
class DiurnalLoad:
    """Sinusoidal day/night pattern around a base population.

    ``users(t) = base + amplitude * sin(2*pi*t / period + phase)``,
    floored at zero.  The paper's Figure 12 (bottom) uses a diurnal load
    for Social Network with a 300-user peak.
    """

    base: float
    amplitude: float
    period: float = 600.0
    phase: float = -math.pi / 2

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")

    def users(self, time: float) -> float:
        value = self.base + self.amplitude * math.sin(
            2.0 * math.pi * time / self.period + self.phase
        )
        return max(value, 0.0)


__all__ = [
    "LoadPattern",
    "ConstantLoad",
    "StepLoad",
    "DiurnalLoad",
]
