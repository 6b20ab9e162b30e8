"""Per-candidate scoring path: the oracle for the shared-trunk one.

:meth:`~repro.core.predictor.HybridPredictor.predict_candidates` encodes
the telemetry window once and runs the CNN trunk once per decision.  The
path below, kept unchanged, materializes B copies of the window, runs
the full CNN batch, and walks the trees recursively; the production path
must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import WindowEncoder, sanitize_window
from repro.core.predictor import HybridPredictor
from repro.sim.telemetry import TelemetryLog
from tests.oracles import as_oracle
from tests.oracles.layers import use_reference_layers
from tests.oracles.trees import ReferenceBoostedTrees


class ReferenceWindowEncoder(WindowEncoder):
    """:class:`WindowEncoder` with the B-copy candidate encoder."""

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


class ReferenceHybridPredictor(HybridPredictor):
    """:class:`HybridPredictor` that scores on the per-candidate path."""

    def predict_candidates_reference(
        self, log: TelemetryLog, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pre-optimization scoring path, kept as equivalence oracle:
        materializes B copies of the history window and runs the full
        CNN batch plus the recursive tree walk."""
        x_rh, x_lh, x_rc = self.encoder.encode_candidates(log, candidates)
        inputs = self._model_inputs(x_rh, x_lh, x_rc)
        latency, latent = self.cnn.predict_with_latent(inputs)
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
