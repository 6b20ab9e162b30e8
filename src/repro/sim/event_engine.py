"""Per-request discrete-event simulator (validation substrate).

The main engine (:mod:`repro.sim.engine`) is a fluid queueing model —
fast enough to generate tens of thousands of training intervals on one
core.  This module provides an independent, per-request discrete-event
simulation of the same tier specifications: every request traverses
its stage DAG, queues FCFS at each tier, and occupies a server for its
sampled service time.

It exists to *validate* the fluid engine: under matched scenarios the
two must agree on the qualitative physics (who violates, how queues
grow, how latency scales with allocation), which
``benchmarks/test_validation_event_engine.py`` checks.  It is 1-2
orders of magnitude slower, so the training pipeline never uses it.

Model per tier:

* ``servers = ceil(alloc)`` FCFS servers, each running at
  ``alloc / ceil(alloc)`` cores (a sub-core limit slows the single
  server; 2.5 cores are three servers at 0.83 speed),
* service time per visit = ``cpu_per_req * work / speed`` with
  lognormal noise, plus the tier's base latency,
* a finite queue; arrivals beyond it are dropped and booked at the
  client-timeout latency.

Stages of a request run sequentially; tiers within a stage in parallel
(the request advances when the slowest parallel visit finishes), the
same composition rule the fluid engine uses.

The loop keeps request state in preallocated arrays, packs each heap
entry's payload into one integer, maintains the per-tier ``busy *
speed`` vector incrementally on state change, and pre-draws arrival
streams in bulk.  It is held bitwise-equal, summaries and final
``bit_generator`` state included, to the original per-event object
loop kept in ``tests/oracles/events.py`` (``tests/sim/test_fast_events.py``
and ``tests/sim/test_event_properties.py``).  Queued and in-service
visits carry over between :meth:`EventDrivenEngine.run` calls.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.graph import AppGraph
from repro.sim.telemetry import LATENCY_PERCENTILES


@dataclass(frozen=True)
class EventEngineConfig:
    """Physics knobs; mirrors the fluid engine's defaults."""

    noise_sigma: float = 0.22
    max_queue: int = 4000
    drop_latency: float = 5.0
    service_mult: float = 1.0
    base_lat_mult: float = 1.0


#: Heap-entry encoding: one integer packs ``(seq, tier, request)`` with
#: the monotonically increasing push sequence in the top bits, so
#: ``(when, code)`` tuples order by time, then by push order.
_REQ_BITS = 32
_TIER_BITS = 8
_SEQ_SHIFT = _REQ_BITS + _TIER_BITS
_REQ_MASK = (1 << _REQ_BITS) - 1
_TIER_MASK = (1 << _TIER_BITS) - 1


class _TierServer:
    """Per-tier server count, speed and counters for one tier."""

    def __init__(self, spec) -> None:
        self.busy = 0
        self.set_alloc(spec.min_cpu)
        self.completed_work = 0.0

    def set_alloc(self, alloc: float) -> None:
        self.alloc = float(alloc)
        self.servers = max(int(math.ceil(alloc)), 1)
        self.speed = alloc / self.servers


class _SoAState:
    """Struct-of-arrays state of the event loop.

    Persists across :meth:`EventDrivenEngine.run` calls — queued and
    in-service visits carry over.  The request table is a set of
    preallocated parallel arrays (grown by doubling before each run,
    never mid-loop); a heap entry is ``(when, code)`` with the payload
    index-encoded in ``code``; queues hold plain request indices (a
    visit's work factor is a pure function of request type and tier, so
    it is looked up, not stored).
    """

    __slots__ = (
        "capacity", "n_requests", "rtype", "arrival", "stage", "pending",
        "dropped", "finished", "heap", "queues", "busy", "servers",
        "speed", "completed_work", "stage_plan", "work",
        "svc_coef", "svc_base",
    )

    def __init__(self, engine: EventDrivenEngine) -> None:
        graph = engine.graph
        cfg = engine.config
        n = graph.n_tiers
        self.capacity = 1024
        self.n_requests = 0
        self.rtype = np.zeros(self.capacity, dtype=np.int32)
        self.arrival = np.zeros(self.capacity, dtype=np.float64)
        self.stage = np.zeros(self.capacity, dtype=np.int32)
        self.pending = np.zeros(self.capacity, dtype=np.int32)
        self.dropped = np.zeros(self.capacity, dtype=np.bool_)
        self.finished = np.zeros(self.capacity, dtype=np.bool_)
        self.heap: list[tuple[float, int]] = []
        self.queues: list[deque[int]] = [deque() for _ in range(n)]
        # Tier state mirrors, adopted from the object tiers so manual
        # pre-run adjustments (tests poke ``tiers[i].busy``) carry over.
        self.busy = [t.busy for t in engine.tiers]
        self.servers = [t.servers for t in engine.tiers]
        self.speed = [t.speed for t in engine.tiers]
        self.completed_work = [t.completed_work for t in engine.tiers]
        # Static plans: per (type, stage) the (tier, work) visits, and
        # per (type, tier) the work factor for dequeued visits.
        self.stage_plan = [
            [
                [
                    (int(t), float(rt.work.get(graph.tier_names[int(t)], 1.0)))
                    for t in tier_ids
                ]
                for tier_ids in graph.stage_indices[r]
            ]
            for r, rt in enumerate(graph.request_types)
        ]
        self.work = [
            [float(rt.work.get(name, 1.0)) for name in graph.tier_names]
            for rt in graph.request_types
        ]
        self.svc_coef = [
            spec.cpu_per_req * cfg.service_mult for spec in graph.tiers
        ]
        self.svc_base = [
            spec.base_latency * cfg.base_lat_mult for spec in graph.tiers
        ]

    def ensure_capacity(self, need: int) -> None:
        if need <= self.capacity:
            return
        new_cap = max(self.capacity * 2, need)
        used = self.n_requests
        for name in (
            "rtype", "arrival", "stage", "pending", "dropped", "finished"
        ):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[:used] = old[:used]
            setattr(self, name, grown)
        self.capacity = new_cap


class EventDrivenEngine:
    """Discrete-event simulation of one application deployment.

    Parameters mirror :class:`~repro.sim.engine.QueueingEngine`; the
    entry point is :meth:`run`, which simulates a constant offered load
    for a duration and returns per-interval latency percentiles.
    """

    def __init__(
        self,
        graph: AppGraph,
        config: EventEngineConfig | None = None,
        seed: int = 0,
    ) -> None:
        if graph.n_tiers > _TIER_MASK:
            raise ValueError(
                f"{graph.n_tiers} tiers exceed the heap encoding's "
                f"{_TIER_MASK}-tier limit"
            )
        self.graph = graph
        self.config = config or EventEngineConfig()
        self._rng = np.random.default_rng(seed)
        self.tiers = [_TierServer(spec) for spec in graph.tiers]
        self._seq = 0
        self._soa: _SoAState | None = None
        self.time = 0.0
        self.latencies: list[tuple[float, float]] = []
        self.dropped = 0

    def _predraw_arrivals(self, rate: float, horizon: float) -> np.ndarray:
        """Arrival times for one request type, pre-drawn in bulk.

        The arrival process draws exponentials until the accumulated
        time crosses the horizon — consuming the draw that crosses.  The
        draw count is unknown upfront, so this probes in chunks, rewinds
        the bit generator, and re-draws exactly the consumed count:
        identical values, identical final RNG state as one-at-a-time
        draws.
        """
        rng = self._rng
        bit_gen = rng.bit_generator
        scale = 1.0 / rate
        state0 = bit_gen.state
        total = 0
        carry = self.time
        while True:
            expected = (horizon - carry) * rate
            chunk = min(max(int(expected * 1.25) + 16, 16), 1 << 20)
            draws = rng.exponential(scale, size=chunk)
            cum = np.cumsum(np.concatenate(([carry], draws)))[1:]
            hit = int(np.searchsorted(cum, horizon, side="left"))
            if hit < chunk:
                total += hit + 1
                break
            total += chunk
            carry = float(cum[-1])
        bit_gen.state = state0
        draws = rng.exponential(scale, size=total)
        times = np.cumsum(np.concatenate(([self.time], draws)))[1:]
        return times[:-1]  # the crossing draw lands past the horizon

    def run(
        self,
        allocs: np.ndarray,
        type_rates: np.ndarray,
        duration: float,
    ) -> dict:
        """Simulate ``duration`` seconds at a constant offered load.

        Returns a summary with the pooled latency percentiles, the
        per-1s-interval p99 series, drop count, per-tier mean
        utilization and queue lengths.

        Each popped event advances the busy-time integral with one
        fused multiply-add over the incrementally maintained
        ``busy * speed`` vector; service-noise lognormals stream from
        bulk draws with a final rewind so the RNG ends in exactly the
        state one-at-a-time draws would leave.
        """
        allocs = np.asarray(allocs, dtype=float)
        if allocs.shape != (self.graph.n_tiers,):
            raise ValueError("allocs shape mismatch")
        type_rates = np.asarray(type_rates, dtype=float)
        if type_rates.shape != (self.graph.n_types,):
            raise ValueError("type_rates shape mismatch")
        st = self._soa
        if st is None:
            st = self._soa = _SoAState(self)
        busy = st.busy
        servers = st.servers
        speed = st.speed
        for i, (tier, alloc) in enumerate(zip(self.tiers, allocs)):
            tier.set_alloc(alloc)
            servers[i] = tier.servers
            speed[i] = tier.speed
        # Incrementally maintained busy * speed vector, updated on state
        # change instead of being rebuilt at every event.  A wide vector
        # integrates through numpy ufuncs (two `out=` calls per event); a
        # narrow one through a plain-Python loop, which beats ufunc
        # dispatch overhead below ~10 tiers.  Both produce the same IEEE
        # double sequence as a per-event vector rebuild.
        n_tiers = self.graph.n_tiers
        np_madd = n_tiers >= 10
        bs = [b * s for b, s in zip(busy, speed)]
        if np_madd:
            bs = np.array(bs, dtype=np.float64)
        lat_start = len(self.latencies)
        dropped_start = self.dropped
        horizon = self.time + duration

        # Pre-drawn arrival streams, one per type in type order; merged
        # by (time, push-sequence) so ties break exactly as if every
        # arrival had been pushed onto the heap.
        times_parts: list[np.ndarray] = []
        rtype_parts: list[np.ndarray] = []
        seq_parts: list[np.ndarray] = []
        for rtype in range(self.graph.n_types):
            rate = type_rates[rtype]
            if rate <= 0:
                continue
            times = self._predraw_arrivals(float(rate), horizon)
            if times.size:
                times_parts.append(times)
                rtype_parts.append(np.full(times.size, rtype, dtype=np.int64))
                seq_parts.append(
                    self._seq + 1 + np.arange(times.size, dtype=np.int64)
                )
                self._seq += times.size
        if times_parts:
            times_cat = np.concatenate(times_parts)
            rtype_cat = np.concatenate(rtype_parts)
            seq_cat = np.concatenate(seq_parts)
            order = np.lexsort((seq_cat, times_cat))
            arr_times = times_cat[order]
            arr_rtypes = rtype_cat[order]
            arr_times_l = arr_times.tolist()
            arr_seqs_l = seq_cat[order].tolist()
            arr_rtypes_l = arr_rtypes.tolist()
        else:
            arr_times = np.empty(0)
            arr_rtypes = np.empty(0, dtype=np.int64)
            arr_times_l = []
            arr_seqs_l = []
            arr_rtypes_l = []
        n_arr = len(arr_times_l)
        base = st.n_requests
        st.ensure_capacity(base + n_arr)
        st.rtype[base:base + n_arr] = arr_rtypes
        st.arrival[base:base + n_arr] = arr_times
        st.n_requests = base + n_arr
        n_req = st.n_requests
        # Hot-loop working views of the request table: numpy scalar
        # indexing costs ~100 ns per access, so the columns run as
        # plain lists and the mutated ones are written back at the end.
        req_rtype = st.rtype[:n_req].tolist()
        req_arrival = st.arrival[:n_req].tolist()
        req_stage = st.stage[:n_req].tolist()
        req_pending = st.pending[:n_req].tolist()
        req_dropped = st.dropped[:n_req].tolist()
        req_finished = st.finished[:n_req].tolist()

        # Service-noise stream: lognormals are consumed strictly
        # sequentially during the loop (nothing else draws), so bulk
        # blocks + a final rewind reproduce one-at-a-time consumption.
        rng = self._rng
        bit_gen = rng.bit_generator
        sigma = self.config.noise_sigma
        mu = -0.5 * sigma * sigma
        noise_state = bit_gen.state
        noise_buf: list[float] = []
        noise_pos = 0
        noise_end = 0
        noise_drawn = 0

        heap = st.heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        queues = st.queues
        completed_work = st.completed_work
        stage_plan = st.stage_plan
        work_of = st.work
        svc_coef = st.svc_coef
        svc_base = st.svc_base
        lat_append = self.latencies.append
        max_queue = self.config.max_queue
        drop_latency = self.config.drop_latency
        seq = self._seq
        dropped_total = self.dropped
        tier_range = range(n_tiers)
        if np_madd:
            busy_integral = np.zeros(n_tiers)
            tmp = np.empty(n_tiers)
            multiply = np.multiply
            add = np.add
        else:
            busy_integral = [0.0] * n_tiers
        last_t = self.time
        ai = 0

        def finish(req: int, now: float, timeout: bool) -> None:
            if req_finished[req]:
                return
            req_finished[req] = True
            if timeout:
                lat = drop_latency
            else:
                lat = now - req_arrival[req]
                if lat > drop_latency:
                    lat = drop_latency
            lat_append((now, lat))

        def dispatch(req: int, rtype: int, stage_idx: int, now: float) -> None:
            # Start-or-queue is inlined per visit: the dispatch →
            # start call pair is the hottest edge in the loop.
            nonlocal noise_buf, noise_pos, noise_end, noise_drawn
            nonlocal seq, dropped_total
            stages = stage_plan[rtype]
            if stage_idx >= len(stages):
                finish(req, now, False)
                return
            stage = stages[stage_idx]
            req_pending[req] = len(stage)
            for tier, work in stage:
                b = busy[tier]
                if b < servers[tier]:
                    busy[tier] = b + 1
                    sp = speed[tier]
                    bs[tier] = (b + 1) * sp
                    if noise_pos == noise_end:
                        noise_buf = rng.lognormal(mu, sigma, size=512).tolist()
                        noise_drawn += 512
                        noise_pos = 0
                        noise_end = 512
                    noise = noise_buf[noise_pos]
                    noise_pos += 1
                    svc = svc_coef[tier] * work / sp * noise + svc_base[tier]
                    seq += 1
                    heappush(
                        heap,
                        (
                            now + svc,
                            (seq << _SEQ_SHIFT) | (tier << _REQ_BITS) | req,
                        ),
                    )
                elif len(queues[tier]) < max_queue:
                    queues[tier].append(req)
                else:
                    req_dropped[req] = True
                    dropped_total += 1
                    finish(req, now, True)

        while True:
            if heap:
                head = heap[0]
                when = head[0]
                if ai < n_arr:
                    a_when = arr_times_l[ai]
                    take_heap = when < a_when or (
                        when == a_when
                        and (head[1] >> _SEQ_SHIFT) < arr_seqs_l[ai]
                    )
                elif when >= horizon:
                    break
                else:
                    take_heap = True
            elif ai < n_arr:
                take_heap = False
                when = None
            else:
                break

            if take_heap:
                heappop(heap)
                code = head[1]
                dt = when - last_t
                if dt != 0.0:
                    if np_madd:
                        multiply(bs, dt, out=tmp)
                        add(busy_integral, tmp, out=busy_integral)
                    else:
                        for i in tier_range:
                            busy_integral[i] += dt * bs[i]
                    last_t = when
                tier = (code >> _REQ_BITS) & _TIER_MASK
                req = code & _REQ_MASK
                rtype = req_rtype[req]
                completed_work[tier] += work_of[rtype][tier]
                queue = queues[tier]
                if queue:
                    nxt = queue.popleft()
                    nxt_work = work_of[req_rtype[nxt]][tier]
                    sp = speed[tier]
                    if noise_pos == noise_end:
                        noise_buf = rng.lognormal(mu, sigma, size=512).tolist()
                        noise_drawn += 512
                        noise_pos = 0
                        noise_end = 512
                    noise = noise_buf[noise_pos]
                    noise_pos += 1
                    svc = svc_coef[tier] * nxt_work / sp * noise + svc_base[tier]
                    seq += 1
                    heappush(
                        heap,
                        (
                            when + svc,
                            (seq << _SEQ_SHIFT) | (tier << _REQ_BITS) | nxt,
                        ),
                    )
                else:
                    b = busy[tier] - 1
                    busy[tier] = b
                    bs[tier] = b * speed[tier]
                if req_dropped[req]:
                    continue
                pending = req_pending[req] - 1
                req_pending[req] = pending
                if pending == 0:
                    stage_idx = req_stage[req] + 1
                    req_stage[req] = stage_idx
                    dispatch(req, rtype, stage_idx, when)
            else:
                when = arr_times_l[ai]
                dt = when - last_t
                if dt != 0.0:
                    if np_madd:
                        multiply(bs, dt, out=tmp)
                        add(busy_integral, tmp, out=busy_integral)
                    else:
                        for i in tier_range:
                            busy_integral[i] += dt * bs[i]
                    last_t = when
                req = base + ai
                rtype = arr_rtypes_l[ai]
                ai += 1
                dispatch(req, rtype, 0, when)

        # Tail segment: servers busy between the last in-horizon event
        # and the horizon itself still accrue busy time.
        dt = horizon - last_t
        if np_madd:
            multiply(bs, dt, out=tmp)
            add(busy_integral, tmp, out=busy_integral)
        else:
            for i in tier_range:
                busy_integral[i] += dt * bs[i]
        self.time = horizon
        self._seq = seq
        self.dropped = dropped_total
        st.stage[:n_req] = req_stage
        st.pending[:n_req] = req_pending
        st.dropped[:n_req] = req_dropped
        st.finished[:n_req] = req_finished
        for i, tier in enumerate(self.tiers):
            tier.busy = busy[i]
            tier.completed_work = completed_work[i]
        if noise_drawn:
            consumed = noise_drawn - (noise_end - noise_pos)
            bit_gen.state = noise_state
            rng.lognormal(mu, sigma, size=consumed)
        return self._summary(
            duration, np.array(busy_integral), allocs, lat_start,
            dropped_start, np.array([len(q) for q in queues]),
        )

    def _summary(
        self, duration, busy_integral, allocs, lat_start, dropped_start, queued
    ) -> dict:
        lat = self.latencies[lat_start:]
        if lat:
            times = np.array([t for t, _ in lat])
            values = np.array([v for _, v in lat]) * 1000.0
            percentiles = np.percentile(values, LATENCY_PERCENTILES)
        else:
            times = np.empty(0)
            values = np.empty(0)
            percentiles = np.zeros(len(LATENCY_PERCENTILES))
        start = self.time - duration
        # Completions are appended in event order, so ``times`` is
        # sorted: each 1 s bucket is a contiguous slice found with two
        # binary searches instead of an O(completions) mask per second.
        n_sec = int(duration)
        lows = start + np.arange(n_sec)
        highs = lows + 1.0
        lo = np.searchsorted(times, lows, side="left")
        hi = np.searchsorted(times, highs, side="left")
        p99_series = []
        for second in range(n_sec):
            chunk = values[lo[second]:hi[second]]
            if chunk.size:
                p99_series.append(float(np.percentile(chunk, 99)))
            else:
                # No completions this second: unknown, not "0 ms" — a
                # literal zero would drag any series aggregate toward an
                # impossibly good tail latency.
                p99_series.append(float("nan"))
        utilization = busy_integral / np.maximum(allocs * duration, 1e-9)
        return {
            "latency_ms": percentiles,
            "p99_ms": float(percentiles[LATENCY_PERCENTILES.index(99)]),
            "p99_series_ms": np.array(p99_series),
            "n_requests": len(lat),
            "dropped": self.dropped - dropped_start,
            "cpu_util": np.clip(utilization, 0.0, 1.0),
            "queued": queued,
        }


__all__ = ["EventDrivenEngine", "EventEngineConfig"]
