"""Per-event object loop: the oracle for the struct-of-arrays event loop.

:meth:`~repro.sim.event_engine.EventDrivenEngine.run` keeps request
state in preallocated arrays, packs heap payloads into integers and
pre-draws arrival streams in bulk.  The loop below is the one it was
derived from, kept unchanged apart from its span recording: every
request is a ``_Request`` object, every tier visit a ``_Visit``, and the
heap holds ``(when, seq, kind, payload)`` tuples.  The production loop
must match it bit for bit, summaries and final ``bit_generator`` state
included.  :class:`ReferenceEventEngine` swaps it in behind ``run``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.event_engine import EventDrivenEngine, EventEngineConfig, _TierServer


@dataclass
class _Request:
    rtype: int
    arrival: float
    stage: int = 0
    pending: int = 0
    dropped: bool = False


@dataclass
class _Visit:
    request: _Request
    work: float


class _ReferenceTierServer(_TierServer):
    """FCFS multi-server station for one tier, with its own queue."""

    def __init__(self, spec, config: EventEngineConfig) -> None:
        self.spec = spec
        self.config = config
        self.queue: deque[_Visit] = deque()
        super().__init__(spec)

    def service_time(self, work: float, rng: np.random.Generator) -> float:
        cfg = self.config
        mean = self.spec.cpu_per_req * cfg.service_mult * work / self.speed
        sigma = cfg.noise_sigma
        noise = rng.lognormal(-0.5 * sigma * sigma, sigma)
        return mean * noise + self.spec.base_latency * cfg.base_lat_mult


class ReferenceEventEngine(EventDrivenEngine):
    """An :class:`EventDrivenEngine` whose runs take the object loop."""

    def __init__(
        self,
        graph,
        config: EventEngineConfig | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(graph, config, seed)
        self.tiers = [
            _ReferenceTierServer(spec, self.config) for spec in graph.tiers
        ]
        self._events: list[tuple[float, int, str, object]] = []

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _push(self, when: float, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._events, (when, self._seq, kind, payload))

    def _start_or_queue(self, tier_idx: int, visit: _Visit) -> None:
        tier = self.tiers[tier_idx]
        if tier.busy < tier.servers:
            tier.busy += 1
            svc = tier.service_time(visit.work, self._rng)
            self._push(self.time + svc, "done", (tier_idx, visit))
        elif len(tier.queue) < self.config.max_queue:
            tier.queue.append(visit)
        else:
            visit.request.dropped = True
            self.dropped += 1
            self._finish(visit.request, timeout=True)

    def _dispatch_stage(self, request: _Request) -> None:
        stages = self.graph.stage_indices[request.rtype]
        if request.stage >= len(stages):
            self._finish(request)
            return
        rtype = self.graph.request_types[request.rtype]
        tier_ids = stages[request.stage]
        request.pending = len(tier_ids)
        for tier_idx in tier_ids:
            work = rtype.work.get(self.graph.tier_names[tier_idx], 1.0)
            self._start_or_queue(tier_idx, _Visit(request, work))

    def _finish(self, request: _Request, timeout: bool = False) -> None:
        if getattr(request, "_finished", False):
            return
        request._finished = True
        latency = (
            self.config.drop_latency if timeout else self.time - request.arrival
        )
        self.latencies.append((self.time, min(latency, self.config.drop_latency)))

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run_reference(
        self,
        allocs: np.ndarray,
        type_rates: np.ndarray,
        duration: float,
    ) -> dict:
        """The original per-event object loop (bitwise oracle)."""
        allocs = np.asarray(allocs, dtype=float)
        if allocs.shape != (self.graph.n_tiers,):
            raise ValueError("allocs shape mismatch")
        type_rates = np.asarray(type_rates, dtype=float)
        if type_rates.shape != (self.graph.n_types,):
            raise ValueError("type_rates shape mismatch")
        for tier, alloc in zip(self.tiers, allocs):
            tier.set_alloc(alloc)
        # Window this run's summary: queues and in-flight requests carry
        # over between runs, but completions and drops booked by earlier
        # runs must not pollute this run's percentiles.
        lat_start = len(self.latencies)
        dropped_start = self.dropped

        # Pre-generate Poisson arrivals per type.
        horizon = self.time + duration
        for rtype in range(self.graph.n_types):
            rate = type_rates[rtype]
            if rate <= 0:
                continue
            t = self.time
            while True:
                t += self._rng.exponential(1.0 / rate)
                if t >= horizon:
                    break
                self._push(t, "arrive", rtype)

        busy_integral = np.zeros(self.graph.n_tiers)
        last_t = self.time
        while self._events and self._events[0][0] < horizon:
            when, _, kind, payload = heapq.heappop(self._events)
            busy_integral += (when - last_t) * np.array(
                [t.busy * t.speed for t in self.tiers]
            )
            last_t = when
            self.time = when
            if kind == "arrive":
                self._dispatch_stage(_Request(rtype=payload, arrival=when))
            else:  # service completion
                tier_idx, visit = payload
                tier = self.tiers[tier_idx]
                tier.completed_work += visit.work
                if tier.queue:
                    nxt = tier.queue.popleft()
                    svc = tier.service_time(nxt.work, self._rng)
                    self._push(when + svc, "done", (tier_idx, nxt))
                else:
                    tier.busy -= 1
                request = visit.request
                if request.dropped:
                    continue
                request.pending -= 1
                if request.pending == 0:
                    request.stage += 1
                    self._dispatch_stage(request)
        # Tail segment: servers busy between the last in-horizon event and
        # the horizon itself still accrue busy time.  Dropping it
        # under-counts utilization for every run whose servers are busy at
        # the boundary (most loaded runs).
        busy_integral += (horizon - last_t) * np.array(
            [t.busy * t.speed for t in self.tiers]
        )
        self.time = horizon

        return self._summary(
            duration, busy_integral, allocs, lat_start, dropped_start,
            np.array([len(t.queue) for t in self.tiers]),
        )

    run = run_reference
