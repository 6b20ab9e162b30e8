"""Per-tick reference loop of :class:`repro.sim.engine.QueueingEngine`.

The production engine runs each interval as a batched-tick pass (an RNG
prepass, ``(n_ticks, n)`` arrays, and a thin recurrence loop that runs
in the compiled kernel or in numpy).  The code below is the original
tick-by-tick loop it was derived from, kept unchanged as the bitwise
oracle: :class:`ReferenceQueueingEngine` swaps it in behind
:meth:`~repro.sim.engine.QueueingEngine.run_interval`, so whole clusters
and episodes can run on it.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import _EPS, _MAX_SOJOURN, QueueingEngine
from repro.sim.telemetry import LATENCY_PERCENTILES, IntervalStats


class ReferenceQueueingEngine(QueueingEngine):
    """A :class:`QueueingEngine` whose intervals run the per-tick loop."""

    def run_interval_reference(
        self, allocs: np.ndarray, type_rates: np.ndarray
    ) -> IntervalStats:
        """Reference per-tick loop: the bit-exactness oracle for the
        fast path (same pattern as ``predict_candidates_reference``)."""
        allocs, type_rates = self._validate_interval_args(allocs, type_rates)
        return self._run_interval_loop(allocs, type_rates)

    def _run_interval_loop(
        self, allocs: np.ndarray, type_rates: np.ndarray
    ) -> IntervalStats:
        graph = self.graph
        cfg = self.config
        n = graph.n_tiers

        n_ticks = max(int(round(1.0 / cfg.tick)), 1)
        sojourn_ticks = np.empty((n_ticks, n))
        cpu_used = np.zeros(n)
        arrivals_total = np.zeros(n)
        completions_total = np.zeros(n)
        drops_total = np.zeros(n)
        type_counts = np.zeros(graph.n_types)

        for tick in range(n_ticks):
            counts = self._rng.poisson(type_rates * self._rate_modulation() * cfg.tick)
            type_counts += counts
            arrivals = self._visit_T @ counts
            self._demand = 0.8 * self._demand + 0.2 * (arrivals / cfg.tick)

            cap_mult = self._behavior_capacity(n)
            rep_mult = self._behavior_replicas(n)
            if cfg.capacity_jitter > 0:
                # Service capacity is noisier near the software saturation
                # point (GC pauses, lock convoys, scheduler interference):
                # this is what makes thin-headroom operation increasingly
                # fragile at high absolute load.
                saturation = np.clip(self._demand / (self._soft_thr * rep_mult), 0.0, 1.0)
                sigma = cfg.capacity_jitter * (1.0 + 3.0 * saturation)
                jitter = 1.0 + self._rng.normal(0.0, 1.0, size=n) * sigma
                cap_mult = cap_mult * np.clip(jitter, 0.3, 1.7)

            sojourn, mu = self._compute_sojourn(allocs, cap_mult, rep_mult)
            sojourn_ticks[tick] = sojourn

            capacity = mu * cfg.tick
            backlog = self.queue + arrivals
            completions = np.minimum(backlog, capacity)
            queue = backlog - completions
            drops = np.maximum(queue - cfg.max_queue, 0.0)
            self.queue = queue - drops

            tick_used = np.minimum(completions * self._cpu_per_req, allocs * cfg.tick)
            self._busy_frac = np.clip(tick_used / (allocs * cfg.tick), 0.0, 1.0)
            # Smoothed utilization drives the stochastic-wait and CFS
            # stretch terms: single-tick 0/1 spikes at low request rates
            # should not read as saturation.
            self._busy_ewma = 0.85 * self._busy_ewma + 0.15 * self._busy_frac
            cpu_used += tick_used
            arrivals_total += arrivals
            completions_total += completions
            drops_total += drops
            self.time += cfg.tick

        self._sojourn = sojourn_ticks[-1]
        latency_samples = self._sample_latencies(
            sojourn_ticks, type_counts, arrivals_total, drops_total
        )
        percentiles = np.percentile(latency_samples, LATENCY_PERCENTILES) * 1000.0
        return self._finish_interval(
            allocs, type_counts, arrivals_total, completions_total,
            drops_total, cpu_used, latency_samples, percentiles,
        )

    def _compute_sojourn(
        self, allocs: np.ndarray, cap_mult: np.ndarray, rep_mult: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-tier sojourn W and effective service rate mu for this tick.

        Processes levels bottom-up so each caller sees its callees' fresh
        sojourns (synchronous RPC backpressure).
        """
        cfg = self.config
        # Sub-core CFS quotas stretch service time only to the extent the
        # quota is actually contended: an idle tier at 0.2 cores still
        # serves a lone request at full speed (the burst fits the quota),
        # but near saturation every request waits for quota refresh.
        full_stretch = 1.0 / np.minimum(allocs, 1.0)
        stretch = 1.0 + (full_stretch - 1.0) * self._busy_ewma
        # Software-scalability contention: service time inflates as the
        # per-replica throughput approaches the tier's soft limit (locks,
        # GC, coordination) — no CPU limit increase fixes this.  Crashed
        # replicas shrink the surviving soft limit proportionally.
        saturation = np.clip(self._demand / (self._soft_thr * rep_mult), 0.0, 1.0)
        # Quartic curve: negligible below ~60% of the soft limit, then a
        # sharp contention knee approaching it (up to 12x service time).
        inflation = 1.0 / np.clip(1.0 - saturation**4, 1.0 / 12.0, 1.0)
        service_time = self._cpu_per_req * stretch * inflation
        mu_cpu = allocs / self._cpu_per_req
        sojourn = np.empty_like(allocs)
        mu = np.empty_like(allocs)
        downstream = np.zeros_like(allocs)

        for members, child_matrix, mask in self._levels:
            if cfg.backpressure and mask.any():
                child_w = sojourn[child_matrix]
                child_w = np.where(mask, child_w, 0.0)
                downstream[members] = child_w.max(axis=1)
            hold = service_time[members] + self._base_lat[members] + downstream[members]
            conc = (
                self._conc_per_core[members]
                * allocs[members]
                * self._replicas[members]
                * rep_mult[members]
            )
            mu_conc = conc / np.maximum(hold, _EPS)
            mu_lvl = np.minimum(mu_cpu[members], mu_conc) * cap_mult[members]
            mu_lvl = np.maximum(mu_lvl, _EPS)
            wait = self.queue[members] / mu_lvl
            # Stochastic steady-state queueing (M/M/1-like): even without
            # an explicit backlog, waiting time grows with utilization —
            # the smooth part of the latency knee.
            rho = np.minimum(self._busy_ewma[members], 0.9)
            stoch_wait = service_time[members] * rho / (1.0 - rho)
            sojourn[members] = np.minimum(
                self._base_lat[members] + service_time[members] + wait + stoch_wait,
                _MAX_SOJOURN,
            )
            mu[members] = mu_lvl
        return sojourn, mu

    def _sample_latencies(
        self,
        sojourn_ticks: np.ndarray,
        type_counts: np.ndarray,
        arrivals_total: np.ndarray,
        drops_total: np.ndarray,
    ) -> np.ndarray:
        """Synthesize end-to-end latency samples for this interval."""
        cfg = self.config
        graph = self.graph
        rng = self._rng
        n_ticks = sojourn_ticks.shape[0]

        total = type_counts.sum()
        if total <= 0:
            return np.array([self._base_lat.max()])

        drop_frac = drops_total / np.maximum(arrivals_total, _EPS)
        budget = cfg.max_latency_samples
        weights = type_counts / total
        samples_per_type = np.maximum(
            (weights * budget).astype(int), (type_counts > 0).astype(int) * 3
        )
        # The lognormal noise keeps mean sojourn unchanged: E[LN] = 1.
        sigma = cfg.noise_sigma
        mu_ln = -0.5 * sigma * sigma

        out: list[np.ndarray] = []
        for r, k in enumerate(samples_per_type):
            if k <= 0:
                continue
            ticks = rng.integers(0, n_ticks, size=k)
            latency = np.zeros(k)
            for stage in graph.stage_indices[r]:
                # Single advanced-index gather: same elements as the
                # two-step ``[ticks][:, stage]`` without materializing a
                # (k, n_tiers) intermediate per stage.
                soj = sojourn_ticks[ticks[:, None], stage[None, :]]
                base = self._base_lat[stage]
                noise = rng.lognormal(mu_ln, sigma, size=(k, stage.size))
                sampled = base[None, :] + (soj - base[None, :]) * noise
                latency += sampled.max(axis=1)
            p_drop = 1.0 - np.prod(1.0 - np.clip(drop_frac[self._type_tiers[r]], 0, 1))
            if p_drop > 0:
                dropped = rng.random(k) < p_drop
                latency[dropped] = cfg.drop_latency
            # Clients time out: no observed latency exceeds the drop latency.
            out.append(np.minimum(latency, cfg.drop_latency))
        return np.concatenate(out)

    run_interval = run_interval_reference


def use_reference_engine(cluster):
    """Switch ``cluster``'s engine to the per-tick loop in place.

    Meant for a freshly built :class:`~repro.sim.cluster.ClusterSimulator`;
    the engine keeps its RNG, state, and behaviors.
    """
    cluster.engine.__class__ = ReferenceQueueingEngine
    return cluster
