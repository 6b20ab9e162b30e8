"""Bitwise equivalence of the compiled tree walk, the numpy walk and the oracle.

:func:`repro.ml.boosted_trees._add_leaf_values` walks the ensemble in
the C kernel ``sinan_tree_margin`` when :func:`repro.sim._ckernel.load_kernel`
returns one, and in numpy otherwise (reached here by patching
``load_kernel`` to return ``None``).  Both must agree bit for bit with
each other and with the recursive per-tree walk of
:class:`tests.oracles.trees.ReferenceBoostedTrees`, for inference
(``predict_margin``) and for the running margins ``fit`` keeps while
growing trees.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.boosted_trees import (
    BoostedTrees,
    BoostedTreesConfig,
    _compile_trees,
    _Node,
)
from repro.sim import _ckernel
from tests.oracles.trees import reference_trees

N_FEATURES = 6
LEAF = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
GRID = [-1.5, -0.25, 0.0, 0.5, 2.0]


def numpy_walk():
    """Context in which the trees take the pure-numpy walk."""
    return mock.patch.object(_ckernel, "load_kernel", lambda: None)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def blobs(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, N_FEATURES))
    y = ((X[:, 0] + 0.5 * X[:, 1] ** 2 - 0.3 * X[:, 2]) > 0.4).astype(float)
    return X, y


_FITTED = BoostedTrees(
    BoostedTreesConfig(n_trees=60, early_stopping_rounds=1000), seed=0
).fit(*blobs(600, seed=0))
_THRESHOLDS = sorted({float(t) for t in _compile_trees(_FITTED.trees).threshold})


@st.composite
def trees(draw, max_depth):
    """A random tree; a single leaf is as likely as a split at each node."""
    if max_depth == 0 or draw(st.booleans()):
        return _Node(value=draw(LEAF))
    node = _Node(
        feature=draw(st.integers(0, N_FEATURES - 1)),
        threshold=draw(st.sampled_from(GRID)),
    )
    node.left = draw(trees(max_depth - 1))
    node.right = draw(trees(max_depth - 1))
    return node


def rows(edges):
    """Query rows mixing NaN, +-inf, values equal to a threshold and
    arbitrary finite values."""
    element = st.one_of(
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.sampled_from(edges),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.just(N_FEATURES)),
        elements=element,
    )


def ensemble(tree_list, base_margin):
    bt = BoostedTrees(seed=0)
    bt.trees = tree_list
    bt.base_margin = base_margin
    return bt


def assert_three_way_equal(bt, X):
    kernel = bt.predict_margin(X)
    with numpy_walk():
        fallback = bt.predict_margin(X)
    oracle = reference_trees(bt).predict_margin_reference(X)
    assert same_bits(kernel, fallback)
    assert same_bits(kernel, oracle)


class TestPredictMargin:
    @settings(max_examples=150, deadline=None)
    @given(
        tree_list=st.lists(trees(max_depth=5), min_size=1, max_size=12),
        base=st.floats(min_value=-2.0, max_value=2.0),
        X=rows(GRID),
    )
    def test_random_ensembles(self, tree_list, base, X):
        assert_three_way_equal(ensemble(tree_list, base), X)

    @settings(max_examples=60, deadline=None)
    @given(
        n_trees=st.integers(1, len(_FITTED.trees)),
        X=rows(_THRESHOLDS),
    )
    def test_fitted_ensemble_prefixes(self, n_trees, X):
        bt = ensemble(_FITTED.trees[:n_trees], _FITTED.base_margin)
        assert_three_way_equal(bt, X)

    def test_single_leaf_trees_only(self):
        bt = ensemble([_Node(value=0.25), _Node(value=-1.0)], 0.5)
        X = np.array([[np.nan] * N_FEATURES, [0.0] * N_FEATURES])
        assert_three_way_equal(bt, X)
        assert same_bits(bt.predict_margin(X), np.full(2, (0.5 + 0.25) - 1.0))

    def test_non_contiguous_input(self):
        X = np.asfortranarray(blobs(50, seed=3)[0])
        assert_three_way_equal(_FITTED, X[::2])

    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(0, N_FEATURES - 1), n=st.integers(1, 5))
    def test_too_narrow_input_raises(self, width, n):
        # Feature N_FEATURES - 1 sits at the root, so every row needs it.
        root = _Node(feature=N_FEATURES - 1, threshold=0.0)
        root.left, root.right = _Node(value=1.0), _Node(value=-1.0)
        bt = ensemble([root], 0.0)
        X = np.zeros((n, width))
        with pytest.raises(IndexError):
            bt.predict_margin(X)
        with numpy_walk(), pytest.raises(IndexError):
            bt.predict_margin(X)


class TestFit:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_trees=st.integers(1, 25),
        max_depth=st.integers(1, 6),
        stop=st.integers(1, 5),
    )
    def test_fit_identical_with_and_without_kernel(
        self, seed, n_trees, max_depth, stop
    ):
        X, y = blobs(240, seed)
        config = BoostedTreesConfig(
            n_trees=n_trees, max_depth=max_depth, early_stopping_rounds=stop
        )
        fast = BoostedTrees(config, seed=0).fit(X[:180], y[:180], X[180:], y[180:])
        with numpy_walk():
            slow = BoostedTrees(config, seed=0).fit(
                X[:180], y[:180], X[180:], y[180:]
            )
        assert fast.n_trees_used == slow.n_trees_used
        a, b = _compile_trees(fast.trees), _compile_trees(slow.trees)
        for field in ("feature", "threshold", "left", "right", "value", "roots"):
            assert same_bits(getattr(a, field), getattr(b, field)), field
        assert fast.base_margin == slow.base_margin
        assert fast.train_accuracy == slow.train_accuracy
        assert fast.val_accuracy == slow.val_accuracy
