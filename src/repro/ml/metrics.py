"""Evaluation metrics used throughout the paper's tables.

Table 2 reports latency-model RMSE in milliseconds; Table 3 reports
Boosted-Trees classification accuracy and validation false
positives/negatives (the scheduler tunes its thresholds so validation
false negatives stay under 1%, Section 4.3).
"""

from __future__ import annotations

import numpy as np


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared error over all elements."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def accuracy(pred_labels: np.ndarray, target: np.ndarray) -> float:
    """Fraction of correct binary predictions."""
    pred_labels = np.asarray(pred_labels)
    target = np.asarray(target)
    if pred_labels.shape != target.shape:
        raise ValueError("shape mismatch")
    if len(target) == 0:
        return 1.0
    return float(np.mean(pred_labels == target))


def false_positive_rate(pred_labels: np.ndarray, target: np.ndarray) -> float:
    """Fraction of all samples falsely predicted as violations."""
    pred_labels = np.asarray(pred_labels).astype(bool)
    target = np.asarray(target).astype(bool)
    if len(target) == 0:
        return 0.0
    return float(np.mean(pred_labels & ~target))


def false_negative_rate(pred_labels: np.ndarray, target: np.ndarray) -> float:
    """Fraction of all samples whose violation was missed.

    The paper sizes the scheduler's upscale threshold so this stays
    under 1% on the validation set.
    """
    pred_labels = np.asarray(pred_labels).astype(bool)
    target = np.asarray(target).astype(bool)
    if len(target) == 0:
        return 0.0
    return float(np.mean(~pred_labels & target))


def model_size_kb(params: list[np.ndarray]) -> float:
    """Serialized parameter size in kilobytes (float32, as deployed)."""
    return sum(p.size for p in params) * 4 / 1024.0


__all__ = [
    "rmse",
    "accuracy",
    "false_positive_rate",
    "false_negative_rate",
    "model_size_kb",
]
