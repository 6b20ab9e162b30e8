"""Per-candidate scoring path: the oracle for the shared-history one.

:meth:`~repro.core.predictor.HybridPredictor.predict_candidates` encodes
the telemetry window once and scores every candidate against it.  The
path below materializes B copies of the window, runs the history
branches of the CNN on one of them with the einsum convolution, scores
the B candidate rows against that, and walks the trees recursively; the
production path must match it bit for bit.  The contract both follow:
the history branches (conv trunk, RH dense tail, LH branch) and their
share of the latent head's dense layer are a function of the one shared
window, evaluated at batch size 1.  How close that stays to the full
B-copy batch of :meth:`~repro.ml.cnn.LatencyCNN.predict_with_latent` is
a tolerance test (``tests/ml/test_shared_history.py``).

The per-window encoder (:func:`sanitize_window` and
:meth:`ReferenceWindowEncoder.encode_window`) is also the oracle for the
tensor-level repair in :meth:`~repro.core.features.WindowEncoder.encode_history`
and for the strided windows of :func:`~repro.core.features.build_dataset`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.features import WindowEncoder
from repro.core.predictor import HybridPredictor
from repro.ml.cnn import LatencyCNN
from repro.ml.layers import Conv2D
from repro.sim.telemetry import IntervalStats, TelemetryLog
from tests.oracles import as_oracle
from tests.oracles.layers import ReferenceConv2D, use_reference_layers
from tests.oracles.trees import ReferenceBoostedTrees


#: Per-tier / per-percentile fields checked (and repaired) by
#: :func:`sanitize_window` before encoding.
_SANITIZED_FIELDS: tuple[str, ...] = (
    "cpu_util",
    "cpu_alloc",
    "rss_mb",
    "cache_mb",
    "rx_pps",
    "tx_pps",
    "latency_ms",
)


def sanitize_window(window: list[IntervalStats]) -> list[IntervalStats]:
    """Repair non-finite telemetry before it reaches the models.

    A faulty agent can report NaN channels or corrupted counters (see
    :mod:`repro.sim.faults`); feeding those into the CNN would poison
    every candidate's score for the decision.  Each non-finite element
    is replaced by the most recent finite value of the same field from
    earlier in the window (carried forward), or ``0.0`` when the window
    never held a finite value.  Clean windows are returned as-is, with
    no copies made.
    """
    last_good: dict[str, np.ndarray] = {}
    cleaned: list[IntervalStats] = []
    any_repaired = False
    for stats in window:
        repairs: dict[str, np.ndarray] = {}
        for name in _SANITIZED_FIELDS:
            values = getattr(stats, name)
            finite = np.isfinite(values)
            if not finite.all():
                fallback = last_good.get(name)
                repaired = values.copy()
                if fallback is None:
                    repaired[~finite] = 0.0
                else:
                    repaired[~finite] = fallback[~finite]
                repairs[name] = repaired
                last_good[name] = repaired
            else:
                last_good[name] = values
        if repairs:
            any_repaired = True
            cleaned.append(replace(stats, **repairs))
        else:
            cleaned.append(stats)
    return cleaned if any_repaired else window


class ReferenceWindowEncoder(WindowEncoder):
    """:class:`WindowEncoder` with the per-window and B-copy encoders."""

    def encode_window(
        self, window: list[IntervalStats], candidate_alloc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode one sample from ``n_timesteps`` intervals of history.

        Returns ``(X_RH, X_LH, X_RC)`` with shapes ``(F, N, T)``,
        ``(T, M)`` and ``(N,)``.
        """
        if len(window) != self.n_timesteps:
            raise ValueError(
                f"window must hold {self.n_timesteps} intervals, got {len(window)}"
            )
        window = sanitize_window(window)
        x_rh = np.stack([s.resource_matrix() for s in window], axis=2)
        x_lh = np.stack([s.latency_ms for s in window], axis=0)
        x_rc = np.asarray(candidate_alloc, dtype=float)
        if x_rc.shape != (self.graph.n_tiers,):
            raise ValueError("candidate_alloc has wrong shape")
        return x_rh, x_lh, x_rc

    def encode_log(
        self, log: TelemetryLog, candidate_alloc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode the latest window of an episode (online inference)."""
        return self.encode_window(log.window(self.n_timesteps), candidate_alloc)

    def encode_candidates(
        self, log: TelemetryLog, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode a batch of candidate allocations sharing one history.

        ``candidates`` has shape ``(B, N)``; the history tensors are
        broadcast, so one CNN forward evaluates every allocation the
        scheduler is considering.
        """
        window = sanitize_window(log.window(self.n_timesteps))
        x_rh = np.stack([s.resource_matrix() for s in window], axis=2)
        x_lh = np.stack([s.latency_ms for s in window], axis=0)
        b = len(candidates)
        return (
            np.broadcast_to(x_rh, (b, *x_rh.shape)).copy(),
            np.broadcast_to(x_lh, (b, *x_lh.shape)).copy(),
            np.asarray(candidates, dtype=float),
        )


def score_candidates(
    cnn: LatencyCNN, inputs: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(latency, latent L_f) of B candidates from B-copy inputs.

    The history branches run on the first copy, at batch 1, with every
    convolution on the einsum oracle; the latent head's dense layer is
    split at the history/candidate boundary, its history part computed
    once from that one row.
    """
    x_rh, x_lh, x_rc = inputs
    h_rh = x_rh[:1]
    for layer in cnn.rh_branch.layers:
        if isinstance(layer, Conv2D):
            layer = as_oracle(layer, ReferenceConv2D)
        h_rh = layer.forward(h_rh)
    h_lh = cnn.lh_branch.forward(x_lh[:1])
    h_rc = cnn.rc_branch.forward(x_rc)
    dense, relu = cnn.latent_head.layers
    a = h_rh.shape[1] + h_lh.shape[1]
    history = np.concatenate([h_rh, h_lh], axis=1) @ dense.W[:a] + dense.b
    latent = relu.forward(h_rc @ dense.W[a:] + history)
    return cnn.output_head.forward(latent), latent


class ReferenceHybridPredictor(HybridPredictor):
    """:class:`HybridPredictor` that scores on the per-candidate path."""

    def predict_candidates_reference(
        self, log: TelemetryLog, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The per-candidate scoring path, kept as equivalence oracle:
        materializes B copies of the history window, scores them with
        :func:`score_candidates` and walks the trees recursively."""
        x_rh, x_lh, x_rc = self.encoder.encode_candidates(log, candidates)
        inputs = self._model_inputs(x_rh, x_lh, x_rc)
        latency, latent = score_candidates(self.cnn, inputs)
        prob = self.trees.predict_proba_reference(
            self._bt_features(latent, x_rh, x_lh, x_rc)
        )
        return latency, prob

    predict_candidates = predict_candidates_reference


def encode_candidates(
    encoder: WindowEncoder, log: TelemetryLog, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B-copy encoding of ``candidates`` with any encoder's window."""
    return as_oracle(encoder, ReferenceWindowEncoder).encode_candidates(
        log, candidates
    )


def reference_encoder(encoder: WindowEncoder) -> ReferenceWindowEncoder:
    """A view of ``encoder`` with the per-window reference encoders."""
    return as_oracle(encoder, ReferenceWindowEncoder)


def reference_predictor(predictor: HybridPredictor) -> ReferenceHybridPredictor:
    """A view of a trained predictor that scores on the reference path.

    Shares the original's weights and trees; the encoder's incremental
    cache is not used by the reference path.
    """
    ref = as_oracle(predictor, ReferenceHybridPredictor)
    ref.encoder = as_oracle(predictor.encoder, ReferenceWindowEncoder)
    ref.trees = as_oracle(predictor.trees, ReferenceBoostedTrees)
    return ref


def use_reference_training(predictor: HybridPredictor) -> HybridPredictor:
    """Switch an untrained predictor to the reference tree grower and
    the reference CNN layers, in place."""
    predictor.trees.__class__ = ReferenceBoostedTrees
    use_reference_layers(predictor.cnn)
    return predictor
