"""Per-request discrete-event simulator (validation substrate).

The main engine (:mod:`repro.sim.engine`) is a fluid queueing model —
fast enough to generate tens of thousands of training intervals on one
core.  This module provides an independent, per-request discrete-event
simulation of the same tier specifications: every request is an object
that traverses its stage DAG, queues FCFS at each tier, and occupies a
server for its sampled service time.

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

Two loops share that physics:

* the struct-of-arrays loop :meth:`run` uses by default (request state
  held in preallocated arrays, heap entries index-encoded into one
  integer, the per-tier ``busy * speed`` vector maintained
  incrementally on state change instead of being rebuilt from objects
  at every event, and arrival streams pre-drawn in bulk);
* :meth:`EventDrivenEngine.run_reference`, the original per-event
  object loop (``_Request`` / ``_Visit`` dataclasses, a tuple heap).
  It is the only loop that can emit per-request spans, so :meth:`run`
  takes it whenever an *enabled* recorder is attached, and the only one
  that can index more than 255 tiers.  It is also the oracle the
  struct-of-arrays loop is held bitwise-equal to, summaries and final
  ``bit_generator`` state included (``tests/sim/test_fast_events.py``).

An engine must stick to one loop across its lifetime once work is in
flight (queued or in-service visits carry over between runs and the two
loops store them differently); :meth:`EventDrivenEngine.run` dispatches
automatically and refuses ambiguous mixes.  Recording changes no
result: sampling draws no randomness.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

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


#: Heap-entry encoding for the fast path: one integer packs
#: ``(seq, tier, request)`` with the monotonically increasing push
#: sequence in the top bits, so ``(when, code)`` tuples order exactly
#: like the reference heap's ``(when, seq, ...)`` entries.
_REQ_BITS = 32
_TIER_BITS = 8
_SEQ_SHIFT = _REQ_BITS + _TIER_BITS
_REQ_MASK = (1 << _REQ_BITS) - 1
_TIER_MASK = (1 << _TIER_BITS) - 1


@dataclass
class _Request:
    rtype: int
    arrival: float
    stage: int = 0
    pending: int = 0
    dropped: bool = False
    sampled: bool = False
    """Deterministically chosen for tracing (every tier visit of a
    sampled request becomes a span)."""


@dataclass
class _Visit:
    request: _Request
    work: float


class _TierServer:
    """FCFS multi-server station for one tier."""

    def __init__(self, spec, config: EventEngineConfig) -> None:
        self.spec = spec
        self.config = config
        self.queue: deque[_Visit] = deque()
        self.busy = 0
        self.set_alloc(spec.min_cpu)
        self.completed_work = 0.0

    def set_alloc(self, alloc: float) -> None:
        self.alloc = float(alloc)
        self.servers = max(int(math.ceil(alloc)), 1)
        self.speed = alloc / self.servers

    def service_time(self, work: float, rng: np.random.Generator) -> float:
        cfg = self.config
        mean = self.spec.cpu_per_req * cfg.service_mult * work / self.speed
        sigma = cfg.noise_sigma
        noise = rng.lognormal(-0.5 * sigma * sigma, sigma)
        return mean * noise + self.spec.base_latency * cfg.base_lat_mult


class _SoAState:
    """Struct-of-arrays state of the fast event loop.

    Persists across :meth:`EventDrivenEngine.run` calls — queued and
    in-service visits carry over, exactly like the reference loop's
    object state.  The request table is a set of preallocated parallel
    arrays (grown by doubling before each run, never mid-loop); a heap
    entry is ``(when, code)`` with the payload index-encoded in
    ``code``; queues hold plain request indices (a visit's work factor
    is a pure function of request type and tier, so it is looked up,
    not stored).
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

    @property
    def in_flight(self) -> bool:
        return bool(self.heap) or any(self.queues)

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
        self.graph = graph
        self.config = config or EventEngineConfig()
        self._rng = np.random.default_rng(seed)
        self.tiers = [_TierServer(spec, self.config) for spec in graph.tiers]
        self._events: list[tuple[float, int, str, object]] = []
        self._seq = 0
        self._soa: _SoAState | None = None
        self.time = 0.0
        self.latencies: list[tuple[float, float]] = []
        self.dropped = 0
        self._arrivals = 0
        self.recorder = None
        """Observability handle; ``None``/no-op means off (see
        :func:`repro.obs.recorder.attach_recorder`)."""

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
            if visit.request.sampled:
                self._visit_span(tier_idx, self.time, svc)
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
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.counter("des_requests_total")
            if timeout:
                recorder.counter("des_drops_total")
            if request.sampled:
                recorder.span(
                    self.graph.type_names[request.rtype],
                    request.arrival,
                    self.time - request.arrival,
                    track="requests",
                    cat="request",
                    args={"dropped": timeout},
                )

    def _visit_span(self, tier_idx: int, start: float, duration: float) -> None:
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            name = self.graph.tier_names[tier_idx]
            recorder.span(name, start, duration, track=f"tier:{name}", cat="visit")

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(
        self,
        allocs: np.ndarray,
        type_rates: np.ndarray,
        duration: float,
    ) -> dict:
        """Simulate ``duration`` seconds at a constant offered load.

        Returns a summary with the pooled latency percentiles, the
        per-1s-interval p99 series, drop count, and per-tier mean
        utilization.

        Dispatches to the struct-of-arrays loop unless an enabled
        recorder is attached (span bookkeeping needs the object loop;
        results are identical either way), the graph has more tiers than
        its heap encoding can index, or object-loop state is already in
        flight from earlier :meth:`run_reference` calls.
        """
        recorder = self.recorder
        use_fast = (
            self.graph.n_tiers <= _TIER_MASK
            and not self._events
            and not any(t.queue for t in self.tiers)
            and (recorder is None or not recorder.enabled)
        )
        if use_fast:
            return self._run_fast(allocs, type_rates, duration)
        if self._soa is not None and self._soa.in_flight:
            raise RuntimeError(
                "cannot switch to the reference event loop with fast-path "
                "work in flight; use a fresh engine per path"
            )
        return self.run_reference(allocs, type_rates, duration)

    def run_reference(
        self,
        allocs: np.ndarray,
        type_rates: np.ndarray,
        duration: float,
    ) -> dict:
        """The original per-event object loop.

        Same physics, RNG consumption, and summary as the
        struct-of-arrays loop; :meth:`run` falls back to it for recorded
        runs and very wide graphs, and the equivalence tests hold the
        struct-of-arrays loop to it.
        """
        if self._soa is not None and self._soa.in_flight:
            raise RuntimeError(
                "cannot run the reference event loop with fast-path work "
                "in flight; use a fresh engine per path"
            )
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
                request = _Request(rtype=payload, arrival=when)
                recorder = self.recorder
                if recorder is not None and recorder.enabled:
                    request.sampled = recorder.sampled(self._arrivals)
                    self._arrivals += 1
                self._dispatch_stage(request)
            else:  # service completion
                tier_idx, visit = payload
                tier = self.tiers[tier_idx]
                tier.completed_work += visit.work
                if tier.queue:
                    nxt = tier.queue.popleft()
                    svc = tier.service_time(nxt.work, self._rng)
                    if nxt.request.sampled:
                        self._visit_span(tier_idx, when, svc)
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
            duration, busy_integral, allocs, lat_start, dropped_start
        )

    # ------------------------------------------------------------------
    # Struct-of-arrays fast path
    # ------------------------------------------------------------------

    def _predraw_arrivals(self, rate: float, horizon: float) -> np.ndarray:
        """Arrival times for one request type, pre-drawn in bulk.

        The reference loop draws exponentials one by one until the
        accumulated time crosses the horizon — consuming the draw that
        crosses.  The draw count is unknown upfront, so this probes in
        chunks, rewinds the bit generator, and re-draws exactly the
        consumed count: identical values, identical final RNG state.
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

    def _run_fast(
        self,
        allocs: np.ndarray,
        type_rates: np.ndarray,
        duration: float,
    ) -> dict:
        """Struct-of-arrays event loop; bitwise-equal to the reference.

        Each popped event advances the busy-time integral with one
        fused multiply-add over the incrementally maintained
        ``busy * speed`` vector; service-noise lognormals stream from
        bulk draws with a final rewind so the RNG ends in exactly the
        reference state.
        """
        allocs = np.asarray(allocs, dtype=float)
        if allocs.shape != (self.graph.n_tiers,):
            raise ValueError("allocs shape mismatch")
        type_rates = np.asarray(type_rates, dtype=float)
        if type_rates.shape != (self.graph.n_types,):
            raise ValueError("type_rates shape mismatch")
        if self._events or any(t.queue for t in self.tiers):
            raise RuntimeError(
                "cannot run the fast event loop with reference-path work "
                "in flight; use a fresh engine per path"
            )
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
        # Incrementally maintained busy * speed vector — the reference
        # rebuilds this array from the tier objects at every event.  A
        # wide vector integrates through numpy ufuncs (two `out=` calls
        # per event); a narrow one through a plain-Python loop, which
        # beats ufunc dispatch overhead below ~10 tiers.  Both produce
        # the same IEEE double sequence as the reference's vector ops.
        n_tiers = self.graph.n_tiers
        np_madd = n_tiers >= 10
        bs = [b * s for b, s in zip(busy, speed)]
        if np_madd:
            bs = np.array(bs, dtype=np.float64)
        lat_start = len(self.latencies)
        dropped_start = self.dropped
        horizon = self.time + duration

        # Pre-drawn arrival streams, one per type in reference RNG
        # order; merged by (time, push-sequence) so ties break exactly
        # like the reference heap.
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
        # blocks + a final rewind reproduce the reference consumption.
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

        # Tail segment to the horizon (same correction as the reference).
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
            dropped_start, queued=np.array([len(q) for q in queues]),
        )

    def _summary(
        self, duration, busy_integral, allocs, lat_start=0, dropped_start=0,
        queued=None,
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
            "queued": (
                np.array([len(t.queue) for t in self.tiers])
                if queued is None
                else queued
            ),
        }


__all__ = ["EventDrivenEngine", "EventEngineConfig"]
