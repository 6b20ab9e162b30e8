"""Tier (microservice) specifications.

A *tier* is one microservice in the application graph (e.g. ``nginx``,
``composePost``, ``socialGraph-redis``).  The paper deploys one
microservice per Docker container and manages its CPU limit through
cgroups; here each tier is described by a :class:`TierSpec` whose
parameters drive the queueing model in :mod:`repro.sim.engine`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TierKind(enum.Enum):
    """Functional role of a tier, used for calibration defaults.

    The paper's applications mix lightweight frontends, moderate business
    logic, expensive ML inference tiers (image/text filters), cheap
    in-memory caches, persistent databases, and message queues.  The kind
    determines sensible defaults for CPU cost and base latency so that,
    e.g., ComposePost-heavy mixes are the most compute hungry (paper
    Figure 14).
    """

    FRONTEND = "frontend"
    LOGIC = "logic"
    ML = "ml"
    CACHE = "cache"
    DB = "db"
    QUEUE = "queue"


#: Default per-kind calibration:
#: (cpu_per_req, base_latency, conc_per_core, soft_throughput).
#: ``cpu_per_req`` is CPU-seconds consumed per unit of work, ``base_latency``
#: is non-CPU latency per visit (I/O, lock waits), ``conc_per_core`` is how
#: many in-flight requests one allocated core can hold (thread-pool size),
#: and ``soft_throughput`` is the per-replica software scalability limit
#: (work units/second) past which service time inflates from lock/GC/
#: coordination contention regardless of the CPU limit.
_KIND_DEFAULTS: dict[TierKind, tuple[float, float, float, float]] = {
    TierKind.FRONTEND: (0.0015, 0.0010, 48.0, 20000.0),
    TierKind.LOGIC: (0.0040, 0.0015, 24.0, 5000.0),
    TierKind.ML: (0.0600, 0.0030, 4.0, 60.0),
    TierKind.CACHE: (0.0008, 0.0005, 64.0, 50000.0),
    TierKind.DB: (0.0050, 0.0040, 16.0, 5000.0),
    TierKind.QUEUE: (0.0012, 0.0010, 48.0, 15000.0),
}


@dataclass(frozen=True)
class TierSpec:
    """Static description of one microservice tier.

    Parameters
    ----------
    name:
        Unique tier name within the application graph.
    kind:
        Functional role; supplies calibration defaults.
    cpu_per_req:
        CPU-seconds consumed per unit of work.  ``None`` uses the kind
        default.
    base_latency:
        Non-CPU latency (seconds) added to every visit, e.g. disk or
        network time for a database tier.
    conc_per_core:
        Concurrency slots provided per allocated core.  Together with the
        downstream sojourn time this bounds throughput under synchronous
        RPC backpressure.
    soft_throughput:
        Per-replica software scalability limit (work units/second):
        approaching it inflates service time through lock, GC, and
        coordination contention that no CPU limit increase can fix —
        only replication helps.  This is what sharpens the latency knee
        at high absolute load.
    min_cpu / max_cpu:
        Allocation bounds (cores).  Sinan and the baselines never move a
        tier outside these; ``min_cpu`` defaults to the paper's smallest
        step (0.2 of a core).
    replicas:
        Number of container replicas.  Resource usage is averaged across
        replicas before entering the ML models (paper Section 4.1); in the
        simulator replicas scale the concurrency and allocation ceiling.
    rss_base_mb / rss_per_queued_mb:
        Resident-set-size model: a base footprint plus growth with queued
        requests (buffered request state).
    cache_mb:
        Page-cache footprint (data cached from disk); roughly constant
        for stateless tiers, large for databases.
    pkts_per_req:
        Network packets sent/received per unit of work.
    """

    name: str
    kind: TierKind = TierKind.LOGIC
    cpu_per_req: float | None = None
    base_latency: float | None = None
    conc_per_core: float | None = None
    soft_throughput: float | None = None
    min_cpu: float = 0.2
    max_cpu: float = 16.0
    replicas: int = 1
    rss_base_mb: float = 80.0
    rss_per_queued_mb: float = 0.05
    cache_mb: float = 50.0
    pkts_per_req: float = 4.0

    def __post_init__(self) -> None:
        cpu, base, conc, soft = _KIND_DEFAULTS[self.kind]
        if self.cpu_per_req is None:
            object.__setattr__(self, "cpu_per_req", cpu)
        if self.base_latency is None:
            object.__setattr__(self, "base_latency", base)
        if self.conc_per_core is None:
            object.__setattr__(self, "conc_per_core", conc)
        if self.soft_throughput is None:
            object.__setattr__(self, "soft_throughput", soft)
        if self.soft_throughput <= 0:
            raise ValueError(f"tier {self.name}: soft_throughput must be positive")
        if self.cpu_per_req <= 0:
            raise ValueError(f"tier {self.name}: cpu_per_req must be positive")
        if self.base_latency < 0:
            raise ValueError(f"tier {self.name}: base_latency must be >= 0")
        if not (0 < self.min_cpu <= self.max_cpu):
            raise ValueError(
                f"tier {self.name}: need 0 < min_cpu <= max_cpu, "
                f"got [{self.min_cpu}, {self.max_cpu}]"
            )
        if self.replicas < 1:
            raise ValueError(f"tier {self.name}: replicas must be >= 1")

    @property
    def total_max_cpu(self) -> float:
        """Allocation ceiling across all replicas of this tier."""
        return self.max_cpu * self.replicas

    def with_replicas(self, replicas: int) -> "TierSpec":
        """Return a copy of this spec with a different replica count."""
        return TierSpec(
            name=self.name,
            kind=self.kind,
            cpu_per_req=self.cpu_per_req,
            base_latency=self.base_latency,
            conc_per_core=self.conc_per_core,
            soft_throughput=self.soft_throughput,
            min_cpu=self.min_cpu,
            max_cpu=self.max_cpu,
            replicas=replicas,
            rss_base_mb=self.rss_base_mb,
            rss_per_queued_mb=self.rss_per_queued_mb,
            cache_mb=self.cache_mb,
            pkts_per_req=self.pkts_per_req,
        )

    def scaled(self, cpu_scale: float = 1.0, base_scale: float = 1.0) -> "TierSpec":
        """Return a copy with scaled service demand (application variants).

        Used by the incremental-retraining scenarios of paper Section 5.4,
        e.g. adding AES encryption to post messages increases the CPU cost
        of the tiers that touch post bodies.
        """
        return TierSpec(
            name=self.name,
            kind=self.kind,
            cpu_per_req=self.cpu_per_req * cpu_scale,
            base_latency=self.base_latency * base_scale,
            conc_per_core=self.conc_per_core,
            soft_throughput=self.soft_throughput,
            min_cpu=self.min_cpu,
            max_cpu=self.max_cpu,
            replicas=self.replicas,
            rss_base_mb=self.rss_base_mb,
            rss_per_queued_mb=self.rss_per_queued_mb,
            cache_mb=self.cache_mb,
            pkts_per_req=self.pkts_per_req,
        )


__all__ = ["TierKind", "TierSpec"]
