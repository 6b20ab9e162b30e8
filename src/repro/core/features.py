"""Feature encoding: from telemetry windows to CNN inputs.

Per paper Section 3.1 the latency predictor consumes three inputs built
purely from cgroup metrics and gateway latencies (no per-request
tracing):

* ``X_RH`` — a 3D "image" (F resource channels x N tiers x T
  timestamps) of per-tier utilization history, with consecutive tiers in
  adjacent rows,
* ``X_LH`` — the (T x M) end-to-end latency-percentile history,
* ``X_RC`` — the (N,) resource configuration examined for the next
  timestep.

``build_dataset`` turns a recorded episode (telemetry log) into aligned
training samples: the candidate allocation of sample *i* is the
allocation that was actually applied in interval *i+1*, the latency
target is what interval *i+1* measured, and the violation label looks
``k`` intervals ahead.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.qos import QoSTarget
from repro.sim.graph import AppGraph
from repro.sim.telemetry import TelemetryLog
from repro.ml.dataset import SinanDataset

def _ffill_time(arr: np.ndarray, axis: int) -> np.ndarray:
    """Carry the last finite value forward along ``axis`` (0.0 before any).

    Repairs non-finite telemetry before it reaches the models: a faulty
    agent can report NaN channels or corrupted counters (see
    :mod:`repro.sim.faults`), and feeding those into the CNN would
    poison every candidate's score.  Each non-finite element becomes the
    most recent finite value of the same series earlier along the time
    axis, or 0.0 when none exists.  Returns the input unchanged (no
    copy) when everything is finite.
    """
    finite = np.isfinite(arr)
    if finite.all():
        return arr
    moved = np.moveaxis(arr, axis, -1)
    fin = np.moveaxis(finite, axis, -1)
    idx = np.where(fin, np.arange(moved.shape[-1]), 0)
    np.maximum.accumulate(idx, axis=-1, out=idx)
    filled = np.take_along_axis(moved, idx, axis=-1)
    seen = np.maximum.accumulate(fin, axis=-1)
    out = np.where(seen, filled, 0.0)
    return np.moveaxis(out, -1, axis)


@dataclass
class _HistoryCache:
    """Raw (unsanitized) encoded window, keyed on the telemetry log head.

    Consecutive ``decide()`` calls append one interval to the same
    :class:`~repro.sim.telemetry.TelemetryLog`, so the next window is
    the previous one shifted left by a single column.  The cache holds
    the raw tensors of the last encode; a weak reference (plus the log
    length) validates that the log is the same, still-growing episode.
    Sanitization runs on the assembled tensors afterwards, so the repair
    stays window-local exactly like the uncached path.
    """

    log_ref: weakref.ref
    length: int
    x_rh: np.ndarray  # (F, N, T) raw resource history
    x_lh: np.ndarray  # (T, M) raw latency history


class WindowEncoder:
    """Builds raw (unnormalized) model inputs from telemetry windows."""

    def __init__(self, graph: AppGraph, n_timesteps: int = 5) -> None:
        if n_timesteps < 1:
            raise ValueError("n_timesteps must be >= 1")
        self.graph = graph
        self.n_timesteps = n_timesteps
        self._cache: _HistoryCache | None = None

    def __getstate__(self) -> dict:
        # The per-decision cache holds a weakref (unpicklable) and is
        # only valid for a live episode; serialized encoders start cold.
        state = dict(self.__dict__)
        state["_cache"] = None
        return state

    def invalidate_cache(self) -> None:
        """Drop the incremental history cache.

        Call between episodes (the scheduler's ``reset`` does): the
        cache's shift-by-one fast path keys on the telemetry log object
        and its length, so a log that was cleared and refilled in place
        could otherwise shift stale features from the previous episode.
        """
        self._cache = None

    @property
    def n_channels(self) -> int:
        return 6  # see IntervalStats.resource_matrix

    def encode_candidates_shared(
        self, log: TelemetryLog, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode a batch of candidate allocations sharing one history.

        Returns ``(X_RH (1, F, N, T), X_LH (1, T, M), X_RC (B, N))``:
        the shared history is encoded once (incrementally, via the
        per-decision cache) instead of being replicated B times, and the
        candidate matrix is passed through without broadcasting.  The
        tensors hold exactly the values the B-copy encoder it replaced
        (the oracle in ``tests/oracles/predictor.py``) produces for each
        batch row.
        """
        cands = np.asarray(candidates, dtype=float)
        if cands.ndim != 2 or cands.shape[1] != self.graph.n_tiers:
            raise ValueError("candidates must have shape (B, n_tiers)")
        x_rh, x_lh = self.encode_history(log)
        return x_rh[None], x_lh[None], cands

    def encode_history(self, log: TelemetryLog) -> tuple[np.ndarray, np.ndarray]:
        """Sanitized history tensors ``(X_RH (F, N, T), X_LH (T, M))``.

        Incremental: when called on the same (append-only) log as the
        previous decision, only the newest interval is encoded and the
        cached window is shifted by one column.  Any other log — or a
        log still shorter than the window — is fully re-encoded.  The
        returned arrays are owned by the cache and must not be mutated.
        """
        n = len(log)
        t = self.n_timesteps
        cache = getattr(self, "_cache", None)
        raw_rh = raw_lh = None
        if cache is not None and cache.log_ref() is log and n > t:
            if n == cache.length:
                raw_rh, raw_lh = cache.x_rh, cache.x_lh
            elif n == cache.length + 1:
                latest = log.latest
                raw_rh = np.empty_like(cache.x_rh)
                raw_rh[:, :, :-1] = cache.x_rh[:, :, 1:]
                raw_rh[:, :, -1] = latest.resource_matrix()
                raw_lh = np.empty_like(cache.x_lh)
                raw_lh[:-1] = cache.x_lh[1:]
                raw_lh[-1] = latest.latency_ms
        if raw_rh is None:
            window = log.window(t)
            raw_rh = np.stack([s.resource_matrix() for s in window], axis=2)
            raw_lh = np.stack(
                [np.asarray(s.latency_ms, dtype=float) for s in window], axis=0
            )
        self._cache = _HistoryCache(
            log_ref=weakref.ref(log), length=n, x_rh=raw_rh, x_lh=raw_lh
        )
        return _ffill_time(raw_rh, axis=2), _ffill_time(raw_lh, axis=0)


def build_dataset(
    log: TelemetryLog,
    graph: AppGraph,
    qos: QoSTarget,
    n_timesteps: int = 5,
    horizon: int = 3,
    meta: dict | None = None,
) -> SinanDataset:
    """Convert one recorded episode into an aligned training dataset.

    Sample *i* pairs the history window ending at interval *i* with the
    allocation applied during interval *i+1* (the "examined resource
    configuration"), the measured tail latencies of interval *i+1*, and
    a violation flag over intervals *i+1 .. i+horizon*.
    """
    if n_timesteps < 1:
        raise ValueError("n_timesteps must be >= 1")
    n = len(log)
    if n < n_timesteps + 1:
        raise ValueError(
            f"episode too short: {n} intervals, need > {n_timesteps}"
        )
    latency_series = np.array([qos.latency_of(s) for s in log])
    labels = qos.violation_labels(latency_series, horizon)

    # Encode each interval once, then cut the B overlapping training
    # windows as strided views — O(n) instead of an O(n*T) per-sample
    # restacking loop.  Non-finite telemetry (possible only under fault
    # injection) is repaired on the windowed copies along their own time
    # axis, so the carry-forward stays window-local, exactly as the
    # online encoder repairs the window it scores.
    resources = np.stack([s.resource_matrix() for s in log])  # (n, F, N)
    latencies = np.stack(
        [np.asarray(s.latency_ms, dtype=float) for s in log]
    )  # (n, M)
    allocs = np.stack(
        [np.asarray(s.cpu_alloc, dtype=float) for s in log]
    )  # (n, N)
    if allocs.shape[1] != graph.n_tiers:
        raise ValueError("candidate_alloc has wrong shape")
    rh_windows = np.lib.stride_tricks.sliding_window_view(
        resources, n_timesteps, axis=0
    )  # (n - T + 1, F, N, T)
    lh_windows = np.lib.stride_tricks.sliding_window_view(
        latencies, n_timesteps, axis=0
    )  # (n - T + 1, M, T)
    x_rh = _ffill_time(np.ascontiguousarray(rh_windows[: n - n_timesteps]), axis=3)
    x_lh = np.ascontiguousarray(
        _ffill_time(lh_windows[: n - n_timesteps].transpose(0, 2, 1), axis=1)
    )
    x_rc = allocs[n_timesteps:]
    y_lat = latencies[n_timesteps:]
    y_viol = np.asarray(labels[n_timesteps:])

    base_meta = {"app": graph.name, "qos_ms": qos.latency_ms, "horizon": horizon}
    if meta:
        base_meta.update(meta)
    return SinanDataset(
        X_RH=x_rh,
        X_LH=x_lh,
        X_RC=x_rc,
        y_lat=y_lat,
        y_viol=y_viol,
        meta=base_meta,
    )


__all__ = ["WindowEncoder", "build_dataset"]
