"""Einsum and per-step paths: the convolution and LSTM oracles.

:class:`~repro.ml.layers.Conv2D` runs through im2col GEMMs and
:class:`~repro.ml.layers.LSTMCell` through fused gate projections.  The
einsum convolution forward below is what the production inference
forward must match bit for bit; the einsum/tap-loop convolution backward
and the per-step concatenated LSTM, kept unchanged, are what training
must match to float rounding.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Conv2D, LSTMCell, _sigmoid
from repro.ml.network import Sequential


class ReferenceConv2D(Conv2D):
    """:class:`Conv2D` that trains on the einsum forward and backward."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[1] != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {x.shape[1]}")
        return self._forward_einsum(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return self._backward_einsum(dout)

    def _forward_einsum(self, x: np.ndarray) -> np.ndarray:
        pad = self.kernel // 2
        self._x_shape = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        # (B, C, H, W, k, k) zero-copy view of all kernel positions.
        self._windows = np.lib.stride_tricks.sliding_window_view(
            xp, (self.kernel, self.kernel), axis=(2, 3)
        )
        out = np.einsum("bchwij,cijo->bhwo", self._windows, self.W, optimize=True)
        out += self.b
        return out.transpose(0, 3, 1, 2)

    def _backward_einsum(self, dout: np.ndarray) -> np.ndarray:
        B, C, H, W = self._x_shape
        k = self.kernel
        pad = k // 2
        dout_hw = dout.transpose(0, 2, 3, 1)
        self.dW[...] = np.einsum(
            "bchwij,bhwo->cijo", self._windows, dout_hw, optimize=True
        )
        self.db[...] = dout_hw.sum(axis=(0, 1, 2))
        # dx: scatter each kernel tap's contribution back onto the input.
        dwin = np.einsum("bhwo,cijo->bchwij", dout_hw, self.W, optimize=True)
        dxp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=dout.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + H, j : j + W] += dwin[..., i, j]
        if pad:
            return dxp[:, :, pad:-pad, pad:-pad]
        return dxp


class ReferenceLSTMCell(LSTMCell):
    """:class:`LSTMCell` on the per-step concatenated formulation."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self._forward_reference(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return self._backward_reference(dout)

    def _forward_reference(self, x: np.ndarray) -> np.ndarray:
        B, T, D = x.shape
        H = self.hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        self._cache = []
        self._x = x
        self._mode = "reference"
        for t in range(T):
            z = np.concatenate([x[:, t], h], axis=1)
            gates = z @ self.W + self.b
            i = _sigmoid(gates[:, :H])
            f = _sigmoid(gates[:, H : 2 * H])
            o = _sigmoid(gates[:, 2 * H : 3 * H])
            g = np.tanh(gates[:, 3 * H :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            self._cache.append((z, i, f, o, g, c, tanh_c))
            h, c = h_new, c_new
        return h

    def _backward_reference(self, dout: np.ndarray) -> np.ndarray:
        B, T, D = self._x.shape
        H = self.hidden
        self.dW[...] = 0.0
        self.db[...] = 0.0
        dx = np.zeros_like(self._x)
        dh = dout
        dc = np.zeros((B, H))
        for t in reversed(range(T)):
            z, i, f, o, g, c_prev, tanh_c = self._cache[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dgates = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    do * o * (1.0 - o),
                    dg * (1.0 - g * g),
                ],
                axis=1,
            )
            self.dW += z.T @ dgates
            self.db += dgates.sum(axis=0)
            dz = dgates @ self.W.T
            dx[:, t] = dz[:, :D]
            dh = dz[:, D:]
            dc = dc * f
        return dx


_ORACLES = {Conv2D: ReferenceConv2D, LSTMCell: ReferenceLSTMCell}


def use_reference_layers(model):
    """Switch every Conv2D and LSTMCell of ``model`` to its oracle, in place."""
    for attr in vars(model).values():
        layers = attr.layers if isinstance(attr, Sequential) else [attr]
        for layer in layers:
            oracle = _ORACLES.get(type(layer))
            if oracle is not None:
                layer.__class__ = oracle
    return model
