"""Neural-network layers with manual backpropagation.

Minimal but complete: every layer implements ``forward``/``backward``
and exposes parameter/gradient pairs for the optimizers in
:mod:`repro.ml.optim`.  Convolution uses im2col so the heavy lifting is
a single matrix multiply.
"""

from __future__ import annotations

import numpy as np


class Layer:
    """Base class: stateless by default (no parameters)."""

    def params(self) -> list[np.ndarray]:
        """Trainable parameter arrays (mutated in place by optimizers)."""
        return []

    def grads(self) -> list[np.ndarray]:
        """Gradient arrays, aligned with :meth:`params`."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        return int(sum(p.size for p in self.params()))


class Dense(Layer):
    """Fully-connected layer ``y = x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(2.0 / in_dim)
        self.W = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.dW[...] = self._x.T @ dout
        self.db[...] = dout.sum(axis=0)
        return dout @ self.W.T


class ReLU(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._mask


class Flatten(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(self._shape)


class Conv2D(Layer):
    """Stride-1 "same" 2D convolution over (B, C, H, W) tensors.

    In the latency predictor, H indexes tiers and W indexes timestamps,
    so a k x k kernel fuses k adjacent tiers over k adjacent intervals —
    how the paper's CNN learns inter-tier dependencies (Section 3.1).

    Both passes multiply one im2col matrix ``cols`` of shape
    ``(C*k*k, B*H*W)``, built tap by tap from a zero-padded input buffer
    that is kept between calls of the same shape.  Inference multiplies
    ``W^T (O, C*k*k) @ cols`` — the operand order of the ``einsum``
    convolution it replaced (the oracle in ``tests/oracles/layers.py``),
    so its output is bitwise that of the einsum at every batch size;
    training (``forward(..., training=True)``) multiplies
    ``cols^T @ W``.  Either forward leaves ``cols`` for backward: one
    GEMM for ``dW`` and one GEMM back to column space followed by a
    col2im fold for ``dx``.  Outputs and gradients agree with the
    einsum/tap-loop oracle to float rounding (~1e-10 in the tests).
    """

    def __init__(
        self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator
    ) -> None:
        if kernel % 2 == 0:
            raise ValueError("kernel must be odd for 'same' padding")
        scale = np.sqrt(2.0 / (in_ch * kernel * kernel))
        self.W = rng.normal(0.0, scale, size=(in_ch, kernel, kernel, out_ch))
        self.b = np.zeros(out_ch)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.kernel = kernel
        self.in_ch = in_ch
        self.out_ch = out_ch

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        B, C, H, W = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        O = self.out_ch
        cols = self._im2col(x)
        if training:
            out = cols.T @ self.W.reshape(-1, O)
            out += self.b
            return out.reshape(B, H, W, O).transpose(0, 3, 1, 2)
        out = self.W.transpose(3, 0, 1, 2).reshape(O, -1) @ cols
        out += self.b[:, None]
        return out.reshape(O, B, H, W).transpose(1, 0, 2, 3)

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """The (C*k*k, B*H*W) im2col matrix of ``x``, kept for backward."""
        B, C, H, W = x.shape
        k = self.kernel
        pad = k // 2
        self._x_shape = x.shape
        # Release the previous call's matrix before allocating this one.
        self._cols = None
        xp = self.__dict__.get("_padded")
        if xp is None or xp.shape != (B, C, H + 2 * pad, W + 2 * pad):
            xp = self._padded = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
        xp[:, :, pad : pad + H, pad : pad + W] = x
        # Filled one kernel tap at a time: each tap is a (C, B, H, W)
        # slice copy with a contiguous destination, which on these small
        # feature maps is much faster than one big transpose of the 6D
        # sliding-window view.  Rows follow the (c, i, j) order of
        # W.reshape(C*k*k, O); BLAS takes either transposed operand
        # without a copy.
        cols = np.empty((C, k, k, B, H, W))
        for i in range(k):
            for j in range(k):
                np.copyto(
                    cols[:, i, j],
                    xp[:, :, i : i + H, j : j + W].transpose(1, 0, 2, 3),
                )
        self._cols = cols.reshape(C * k * k, B * H * W)
        return self._cols

    def backward(self, dout: np.ndarray) -> np.ndarray:
        B, C, H, W = self._x_shape
        k = self.kernel
        pad = k // 2
        O = self.out_ch
        dout_mat = dout.transpose(0, 2, 3, 1).reshape(B * H * W, O)
        self.dW[...] = (self._cols @ dout_mat).reshape(C, k, k, O)
        self.db[...] = dout_mat.sum(axis=0)
        # dx: one GEMM back to column space, then fold the k*k taps
        # onto the padded input (col2im).
        dcols = (self.W.reshape(C * k * k, O) @ dout_mat.T).reshape(
            C, k, k, B, H, W
        )
        dxp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=dout.dtype)
        dst = dxp.transpose(1, 0, 2, 3)
        for i in range(k):
            for j in range(k):
                dst[:, :, i : i + H, j : j + W] += dcols[:, i, j]
        if pad:
            return dxp[:, :, pad:-pad, pad:-pad]
        return dxp


class LSTMCell(Layer):
    """Single-layer LSTM over (B, T, D) sequences, returning (B, H).

    Standard gates with fused weight matrix; full backpropagation
    through time.  Used by the Table 2 LSTM comparison model.

    The forward pass hoists the input half of the gate projection out
    of the timestep loop — one ``(B*T, D) @ (D, 4H)`` GEMM for the whole
    sequence — and leaves only the ``h @ W_h`` recurrence per step;
    backward writes the four gate gradients into one preallocated
    ``(B, T, 4H)`` buffer (no per-step ``concatenate``), accumulates
    ``dW_h`` per step, and recovers ``dW_x`` / ``dx`` / ``db`` with
    single whole-sequence GEMMs.  The original per-step concatenated
    formulation is the gradient oracle in ``tests/oracles/layers.py``;
    the two agree to float rounding (~1e-10 in the tests) since a split
    GEMM sums products in a different order than the fused one.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(1.0 / (in_dim + hidden))
        self.W = rng.normal(0.0, scale, size=(in_dim + hidden, 4 * hidden))
        self.b = np.zeros(4 * hidden)
        # Forget-gate bias starts positive: remember by default.
        self.b[hidden : 2 * hidden] = 1.0
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.hidden = hidden
        self.in_dim = in_dim

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self._forward_fused(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return self._backward_fused(dout)

    # -- fused gate projections ----------------------------------------

    def _buffers(self, B: int, T: int) -> None:
        """(Re)allocate the per-sequence caches only on a shape change."""
        H = self.hidden
        cached = self.__dict__.get("_buf_shape")
        if cached == (B, T):
            return
        self._buf_shape = (B, T)
        self._gate_acts = np.empty((4, B, T, H))  # i, f, o, g
        self._c_prev = np.empty((B, T, H))
        self._tanh_c = np.empty((B, T, H))
        self._h_prev = np.empty((B, T, H))
        self._dgates = np.empty((B, T, 4 * H))

    def _forward_fused(self, x: np.ndarray) -> np.ndarray:
        B, T, D = x.shape
        H = self.hidden
        self._x = x
        self._buffers(B, T)
        # All timestep input projections in one GEMM; the recurrence
        # keeps only the (B, H) @ (H, 4H) product per step.
        x_proj = (x.reshape(B * T, D) @ self.W[:D]).reshape(B, T, 4 * H)
        W_h = self.W[D:]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        ig, fg, og, gg = self._gate_acts
        for t in range(T):
            self._h_prev[:, t] = h
            self._c_prev[:, t] = c
            gates = h @ W_h
            gates += x_proj[:, t]
            gates += self.b
            i = _sigmoid(gates[:, :H])
            f = _sigmoid(gates[:, H : 2 * H])
            o = _sigmoid(gates[:, 2 * H : 3 * H])
            g = np.tanh(gates[:, 3 * H :])
            ig[:, t], fg[:, t], og[:, t], gg[:, t] = i, f, o, g
            c = f * c + i * g
            tanh_c = np.tanh(c)
            self._tanh_c[:, t] = tanh_c
            h = o * tanh_c
        return h

    def _backward_fused(self, dout: np.ndarray) -> np.ndarray:
        x = self._x
        B, T, D = x.shape
        H = self.hidden
        W_h = self.W[D:]
        ig, fg, og, gg = self._gate_acts
        dgates = self._dgates
        dWh = np.zeros((H, 4 * H))
        dh = dout
        dc = np.zeros((B, H))
        for t in reversed(range(T)):
            i, f, o, g = ig[:, t], fg[:, t], og[:, t], gg[:, t]
            tanh_c = self._tanh_c[:, t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            dg_t = dgates[:, t]
            np.multiply((dc * g) * i, 1.0 - i, out=dg_t[:, :H])
            np.multiply((dc * self._c_prev[:, t]) * f, 1.0 - f, out=dg_t[:, H : 2 * H])
            np.multiply(do * o, 1.0 - o, out=dg_t[:, 2 * H : 3 * H])
            np.multiply(dc * i, 1.0 - g * g, out=dg_t[:, 3 * H :])
            dWh += self._h_prev[:, t].T @ dg_t
            dh = dg_t @ W_h.T
            dc = dc * f
        flat = dgates.reshape(B * T, 4 * H)
        self.dW[:D] = x.reshape(B * T, D).T @ flat
        self.dW[D:] = dWh
        self.db[...] = flat.sum(axis=0)
        return (flat @ self.W[:D].T).reshape(B, T, D)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "LSTMCell",
]
