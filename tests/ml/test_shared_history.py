"""Shared-history CNN scoring: tolerance and bit-level properties.

:meth:`LatencyCNN.predict_candidates` evaluates the history branches
once, at batch 1, and splits the latent head's dense layer at the
history/candidate boundary.  Against the full forward on B broadcast
copies of the history (:meth:`LatencyCNN.predict_with_latent`) that is a
change of rounding only, bounded here; against its oracle it is exact
(``tests/core/test_fast_path.py``).  The convolution it runs is bitwise
the einsum convolution of ``tests/oracles/layers.py`` at every batch
size, so batched ``predict``/``latent`` keep their bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import _ffill_time
from repro.ml.cnn import CNNConfig, LatencyCNN
from repro.ml.layers import Conv2D
from tests.oracles import as_oracle
from tests.oracles.layers import ReferenceConv2D

CONFIGS = (
    CNNConfig(),
    CNNConfig(conv_channels=(4,), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16),
)


def _repaired(x: np.ndarray, axis: int, rng: np.random.Generator) -> np.ndarray:
    """``x`` with dropped intervals and sporadic NaN/inf, forward-filled
    along time the way the window encoder repairs faulty telemetry."""
    x = x.copy()
    drop = rng.random(x.shape[axis]) < 0.3
    np.moveaxis(x, axis, 0)[drop] = np.nan
    x[rng.random(x.shape) < 0.05] = np.inf
    return _ffill_time(x, axis=axis)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    config=st.sampled_from(CONFIGS),
    n_tiers=st.integers(1, 28),
    n_timesteps=st.integers(1, 6),
    b=st.integers(1, 300),
    faulty=st.booleans(),
)
def test_predict_candidates_matches_broadcast_batch(
    seed, config, n_tiers, n_timesteps, b, faulty
):
    rng = np.random.default_rng(seed)
    n_channels, n_pct = 6, 5
    cnn = LatencyCNN(
        n_tiers, n_timesteps, n_channels, n_pct, config=config, seed=seed,
        n_rc_features=2 * n_tiers,
    )
    for p in cnn.params():
        p += rng.normal(0.0, 0.1, p.shape)
    x_rh = rng.normal(1.0, 1.0, (1, n_channels, n_tiers, n_timesteps))
    x_lh = np.abs(rng.normal(1.0, 0.5, (1, n_timesteps, n_pct)))
    if faulty:
        x_rh = _repaired(x_rh, 3, rng)
        x_lh = _repaired(x_lh, 1, rng)
    x_rc = rng.normal(0.0, 1.0, (b, 2 * n_tiers))

    lat, latent = cnn.predict_candidates((x_rh, x_lh, x_rc))
    lat_ref, latent_ref = cnn.predict_with_latent(
        (
            np.broadcast_to(x_rh, (b, *x_rh.shape[1:])).copy(),
            np.broadcast_to(x_lh, (b, *x_lh.shape[1:])).copy(),
            x_rc,
        )
    )
    assert lat.shape == (b, n_pct) and latent.shape == (b, config.latent_dim)
    np.testing.assert_allclose(lat, lat_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(latent, latent_ref, rtol=1e-12, atol=1e-12)


def test_predict_candidates_rejects_batched_history():
    cnn = LatencyCNN(3, 4, 6, 5, config=CONFIGS[1])
    x_rh = np.zeros((2, 6, 3, 4))
    x_lh = np.zeros((2, 4, 5))
    with pytest.raises(ValueError, match="batch size 1"):
        cnn.predict_candidates((x_rh, x_lh, np.zeros((2, 6))))


@pytest.mark.parametrize("in_ch,out_ch", [(6, 12), (12, 12)])
@pytest.mark.parametrize(
    "b,n_tiers", [(1, 28), (3, 28), (64, 28), (512, 4), (4096, 4)]
)
def test_conv_inference_bitwise_equal_to_einsum(b, n_tiers, in_ch, out_ch):
    rng = np.random.default_rng(b * 100 + in_ch)
    layer = Conv2D(in_ch, out_ch, 3, rng)
    layer.b[...] = rng.normal(size=out_ch)
    x = rng.normal(size=(b, in_ch, n_tiers, 5))
    out = layer.forward(x)
    ref = as_oracle(layer, ReferenceConv2D).forward(x)
    assert np.array_equal(out, ref)
    # The padded buffer is reused across calls: a second input of the
    # same shape must not see the first one's values.
    x2 = rng.normal(size=x.shape)
    assert np.array_equal(
        layer.forward(x2), as_oracle(layer, ReferenceConv2D).forward(x2)
    )
