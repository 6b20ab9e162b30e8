"""Metric function tests."""

import numpy as np
import pytest

from repro.ml.metrics import (
    accuracy,
    false_negative_rate,
    false_positive_rate,
    model_size_kb,
    rmse,
)


class TestRMSE:
    def test_known_value(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_zero_for_exact(self):
        x = np.arange(10.0)
        assert rmse(x, x) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))


class TestClassificationMetrics:
    def setup_method(self):
        self.pred = np.array([1, 1, 0, 0, 1.0])
        self.true = np.array([1, 0, 0, 1, 1.0])

    def test_accuracy(self):
        assert accuracy(self.pred, self.true) == pytest.approx(0.6)

    def test_false_positive_rate(self):
        # one false positive out of five samples
        assert false_positive_rate(self.pred, self.true) == pytest.approx(0.2)

    def test_false_negative_rate(self):
        # one missed violation out of five samples
        assert false_negative_rate(self.pred, self.true) == pytest.approx(0.2)

    def test_empty_inputs(self):
        empty = np.array([])
        assert accuracy(empty, empty) == 1.0
        assert false_positive_rate(empty, empty) == 0.0
        assert false_negative_rate(empty, empty) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.ones(2), np.ones(3))


def test_model_size_kb():
    params = [np.zeros((10, 10)), np.zeros(10)]
    assert model_size_kb(params) == pytest.approx(110 * 4 / 1024.0)
