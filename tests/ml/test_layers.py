"""Layer-level tests with numerical gradient checks."""

import numpy as np
import pytest

from repro.ml.layers import (
    Conv2D,
    Dense,
    Flatten,
    LSTMCell,
    ReLU,
)
from tests.oracles import as_oracle
from tests.oracles.layers import ReferenceConv2D, ReferenceLSTMCell

EPS = 1e-6
TOL = 1e-4


def numeric_input_grad(layer, x, dout, index):
    xp = x.copy()
    xp[index] += EPS
    plus = (layer.forward(xp) * dout).sum()
    minus = (layer.forward(x) * dout).sum()
    return (plus - minus) / EPS


def check_input_grad(layer, x, indices):
    out = layer.forward(x)
    dout = np.random.default_rng(0).normal(size=out.shape)
    layer.forward(x)
    dx = layer.backward(dout)
    for index in indices:
        num = numeric_input_grad(layer, x, dout, index)
        assert abs(num - dx[index]) < TOL, (index, num, dx[index])


def check_param_grad(layer, x, param_idx, flat_positions):
    out = layer.forward(x)
    dout = np.random.default_rng(1).normal(size=out.shape)
    layer.forward(x)
    layer.backward(dout)
    grads = [g.copy() for g in layer.grads()]
    param = layer.params()[param_idx]
    for pos in flat_positions:
        original = param.flat[pos]
        param.flat[pos] = original + EPS
        plus = (layer.forward(x) * dout).sum()
        param.flat[pos] = original
        minus = (layer.forward(x) * dout).sum()
        num = (plus - minus) / EPS
        assert abs(num - grads[param_idx].flat[pos]) < TOL, (pos, num)


class TestDense:
    def test_forward_shape_and_value(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(5, 3))
        out = layer.forward(x)
        assert out.shape == (5, 2)
        np.testing.assert_allclose(out, x @ layer.W + layer.b)

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(6, 4))
        check_input_grad(layer, x, [(0, 0), (5, 3), (2, 1)])

    def test_weight_and_bias_gradients(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(6, 4))
        check_param_grad(layer, x, 0, [0, 5, 11])
        check_param_grad(layer, x, 1, [0, 2])

    def test_param_count(self, rng):
        layer = Dense(4, 3, rng)
        assert layer.n_params == 4 * 3 + 3


class TestActivations:
    def test_relu(self, rng):
        layer = ReLU()
        x = np.array([[-1.0, 0.5], [2.0, -3.0]])
        out = layer.forward(x)
        np.testing.assert_allclose(out, [[0.0, 0.5], [2.0, 0.0]])
        dx = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(dx, [[0.0, 1.0], [1.0, 0.0]])

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 5))
        out = layer.forward(x)
        assert out.shape == (3, 40)
        dx = layer.backward(out)
        assert dx.shape == x.shape


class TestConv2D:
    def test_same_padding_shape(self, rng):
        layer = Conv2D(3, 6, 3, rng)
        x = rng.normal(size=(2, 3, 7, 5))
        out = layer.forward(x)
        assert out.shape == (2, 6, 7, 5)

    def test_rejects_even_kernel(self, rng):
        with pytest.raises(ValueError, match="odd"):
            Conv2D(2, 2, 4, rng)

    def test_rejects_wrong_channels(self, rng):
        layer = Conv2D(3, 2, 3, rng)
        with pytest.raises(ValueError, match="channels"):
            layer.forward(rng.normal(size=(1, 2, 5, 5)))

    def test_identity_kernel(self, rng):
        """A kernel with a single center tap reproduces the input."""
        layer = Conv2D(1, 1, 3, rng)
        layer.W[...] = 0.0
        layer.W[0, 1, 1, 0] = 1.0
        layer.b[...] = 0.0
        x = rng.normal(size=(2, 1, 4, 4))
        np.testing.assert_allclose(layer.forward(x)[:, 0], x[:, 0], atol=1e-12)

    def test_input_gradient(self, rng):
        layer = Conv2D(2, 3, 3, rng)
        x = rng.normal(size=(3, 2, 5, 4))
        check_input_grad(layer, x, [(0, 0, 0, 0), (2, 1, 4, 3), (1, 0, 2, 2)])

    def test_weight_gradient(self, rng):
        layer = Conv2D(2, 3, 3, rng)
        x = rng.normal(size=(3, 2, 5, 4))
        check_param_grad(layer, x, 0, [0, 17, 35])
        check_param_grad(layer, x, 1, [0, 2])


class TestLSTM:
    def test_output_shape(self, rng):
        cell = LSTMCell(5, 8, rng)
        x = rng.normal(size=(3, 4, 5))
        out = cell.forward(x)
        assert out.shape == (3, 8)

    def test_input_gradient_bptt(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(2, 3, 3))
        check_input_grad(cell, x, [(0, 0, 0), (1, 2, 2), (0, 1, 1)])

    def test_weight_gradient(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(2, 3, 3))
        check_param_grad(cell, x, 0, [0, 25, 60])

    def test_forget_bias_initialized_positive(self, rng):
        cell = LSTMCell(3, 4, rng)
        assert np.all(cell.b[4:8] == 1.0)


class TestConv2DFastPath:
    """im2col training path vs the einsum/tap-loop reference."""

    def _run(self, layer, x, dout, fast):
        if not fast:
            layer = as_oracle(layer, ReferenceConv2D)
        out = layer.forward(x, training=True)
        dx = layer.backward(dout)
        return out, dx, layer.dW.copy(), layer.db.copy()

    def test_matches_einsum_forward_and_gradients(self, rng):
        layer = Conv2D(3, 4, 3, rng)
        x = rng.normal(size=(4, 3, 6, 5))
        dout = rng.normal(size=(4, 4, 6, 5))
        out_f, dx_f, dW_f, db_f = self._run(layer, x, dout, fast=True)
        out_r, dx_r, dW_r, db_r = self._run(layer, x, dout, fast=False)
        np.testing.assert_allclose(out_f, out_r, atol=1e-10)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        np.testing.assert_allclose(dW_f, dW_r, atol=1e-10)
        np.testing.assert_allclose(db_f, db_r, atol=1e-10)

    def test_matches_einsum_with_5x5_kernel(self, rng):
        layer = Conv2D(2, 3, 5, rng)
        x = rng.normal(size=(3, 2, 9, 7))
        dout = rng.normal(size=(3, 3, 9, 7))
        out_f, dx_f, dW_f, db_f = self._run(layer, x, dout, fast=True)
        out_r, dx_r, dW_r, db_r = self._run(layer, x, dout, fast=False)
        np.testing.assert_allclose(out_f, out_r, atol=1e-10)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        np.testing.assert_allclose(dW_f, dW_r, atol=1e-10)
        np.testing.assert_allclose(db_f, db_r, atol=1e-10)

    def test_numeric_input_gradient_on_fast_path(self, rng):
        layer = Conv2D(2, 3, 3, rng)
        x = rng.normal(size=(2, 2, 5, 4))
        out = layer.forward(x, training=True)
        dout = np.random.default_rng(0).normal(size=out.shape)
        layer.forward(x, training=True)
        dx = layer.backward(dout)
        for index in [(0, 0, 0, 0), (1, 1, 4, 3), (0, 1, 2, 2)]:
            xp = x.copy()
            xp[index] += EPS
            plus = (layer.forward(xp, training=True) * dout).sum()
            minus = (layer.forward(x, training=True) * dout).sum()
            num = (plus - minus) / EPS
            assert abs(num - dx[index]) < TOL, (index, num, dx[index])

    def test_inference_is_invariant_to_fast_train(self, rng):
        """The inference forward (training=False) multiplies in the
        einsum's operand order: it is bitwise identical to the einsum
        forward of the training oracle."""
        layer = Conv2D(3, 4, 3, rng)
        x = rng.normal(size=(2, 3, 6, 5))
        on = layer.forward(x, training=False)
        off = as_oracle(layer, ReferenceConv2D).forward(x, training=True)
        assert np.array_equal(on, off)

    def test_backward_follows_forward_mode(self, rng):
        """A training forward then an inference forward leaves backward
        consistent with the most recent (inference) forward."""
        layer = Conv2D(2, 2, 3, rng)
        x = rng.normal(size=(2, 2, 4, 4))
        dout = rng.normal(size=(2, 2, 4, 4))
        layer.forward(x, training=True)
        layer.forward(x, training=False)
        dx_after_inference = layer.backward(dout)
        reference = as_oracle(layer, ReferenceConv2D)
        reference.forward(x, training=True)
        dx_reference = reference.backward(dout)
        np.testing.assert_allclose(dx_after_inference, dx_reference, atol=1e-12)


class TestLSTMFastPath:
    """Fused single-GEMM gate projections vs the per-gate reference."""

    def _run(self, cell, x, fast):
        if not fast:
            cell = as_oracle(cell, ReferenceLSTMCell)
        out = cell.forward(x)
        dout = np.random.default_rng(2).normal(size=out.shape)
        dx = cell.backward(dout)
        return out, dx, cell.dW.copy(), cell.db.copy()

    def test_matches_reference(self, rng):
        cell = LSTMCell(5, 8, rng)
        x = rng.normal(size=(4, 6, 5))
        out_f, dx_f, dW_f, db_f = self._run(cell, x, fast=True)
        out_r, dx_r, dW_r, db_r = self._run(cell, x, fast=False)
        np.testing.assert_allclose(out_f, out_r, atol=1e-10)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        np.testing.assert_allclose(dW_f, dW_r, atol=1e-10)
        np.testing.assert_allclose(db_f, db_r, atol=1e-10)

    def test_matches_reference_single_timestep(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(2, 1, 3))
        out_f, dx_f, dW_f, db_f = self._run(cell, x, fast=True)
        out_r, dx_r, dW_r, db_r = self._run(cell, x, fast=False)
        np.testing.assert_allclose(out_f, out_r, atol=1e-10)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        np.testing.assert_allclose(dW_f, dW_r, atol=1e-10)
        np.testing.assert_allclose(db_f, db_r, atol=1e-10)

    def test_buffers_survive_batch_size_change(self, rng):
        """Preallocated gate buffers re-key on (B, T) changes."""
        cell = LSTMCell(3, 4, rng)
        reference = as_oracle(cell, ReferenceLSTMCell)
        for shape in ((4, 5, 3), (2, 5, 3), (4, 3, 3), (4, 5, 3)):
            x = rng.normal(size=shape)
            out = cell.forward(x)
            cell.backward(np.ones_like(out))
            ref = reference.forward(x)
            np.testing.assert_allclose(out, ref, atol=1e-10)
