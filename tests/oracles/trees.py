"""Recursive tree walk and grower: the oracles for the boosted trees.

:meth:`~repro.ml.boosted_trees.BoostedTrees.predict_margin` walks the
compiled array form of the ensemble; the per-tree recursive walk below,
kept unchanged, is what it must match bit for bit.
:class:`ReferenceBoostedTrees` also fits every tree with the recursive
reference grower, the oracle for the histogram grower
(:meth:`~repro.ml.boosted_trees.BoostedTrees._build_tree`).
"""

from __future__ import annotations

import numpy as np

from repro.ml.boosted_trees import BoostedTrees, _Node, _sigmoid
from tests.oracles import as_oracle


class ReferenceBoostedTrees(BoostedTrees):
    """:class:`BoostedTrees` grown by the recursive reference grower."""

    def _build_tree(
        self, bins: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> _Node:
        return self._build_tree_reference(bins, grad, hess)

    def _build_tree_reference(
        self, bins: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> _Node:
        """The pre-optimization grower: recursive depth-first growth
        re-scanning every (node, feature) pair; the oracle the histogram
        grower is tested against."""
        cfg = self.config
        root_rows = np.arange(len(grad))

        def grow(rows: np.ndarray, depth: int) -> _Node:
            g_sum = grad[rows].sum()
            h_sum = hess[rows].sum()
            leaf_value = -cfg.learning_rate * g_sum / (h_sum + cfg.reg_lambda)
            if depth >= cfg.max_depth or len(rows) < 2:
                return _Node(value=leaf_value)
            best_gain = cfg.gamma
            best = None
            parent_score = g_sum * g_sum / (h_sum + cfg.reg_lambda)
            sub_bins = bins[rows]
            sub_g = grad[rows]
            sub_h = hess[rows]
            for f in range(bins.shape[1]):
                n_bins = len(self._bin_edges[f]) + 1
                if n_bins < 2:
                    continue
                fb = sub_bins[:, f]
                g_hist = np.bincount(fb, weights=sub_g, minlength=n_bins)
                h_hist = np.bincount(fb, weights=sub_h, minlength=n_bins)
                g_left = np.cumsum(g_hist)[:-1]
                h_left = np.cumsum(h_hist)[:-1]
                g_right = g_sum - g_left
                h_right = h_sum - h_left
                valid = (h_left >= cfg.min_child_weight) & (
                    h_right >= cfg.min_child_weight
                )
                if not valid.any():
                    continue
                gain = (
                    g_left * g_left / (h_left + cfg.reg_lambda)
                    + g_right * g_right / (h_right + cfg.reg_lambda)
                    - parent_score
                )
                gain = np.where(valid, gain, -np.inf)
                b = int(np.argmax(gain))
                if gain[b] > best_gain:
                    best_gain = float(gain[b])
                    best = (f, b)
            if best is None:
                return _Node(value=leaf_value)
            f, b = best
            threshold = self._bin_edges[f][b]
            go_left = sub_bins[:, f] <= b
            left_rows = rows[go_left]
            right_rows = rows[~go_left]
            if len(left_rows) == 0 or len(right_rows) == 0:
                return _Node(value=leaf_value)
            node = _Node(feature=f, threshold=float(threshold))
            node.left = grow(left_rows, depth + 1)
            node.right = grow(right_rows, depth + 1)
            return node

        return grow(root_rows, 0)

    def _predict_tree(self, tree: _Node, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))

        def walk(node: _Node, rows: np.ndarray) -> None:
            if node.is_leaf:
                out[rows] = node.value
                return
            go_left = X[rows, node.feature] <= node.threshold
            walk(node.left, rows[go_left])
            walk(node.right, rows[~go_left])

        walk(tree, np.arange(len(X)))
        return out

    def predict_margin_reference(self, X: np.ndarray) -> np.ndarray:
        """The slow path: per-tree recursive walks (equivalence oracle)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        margin = np.full(len(X), self.base_margin)
        for tree in self.trees:
            margin += self._predict_tree(tree, X)
        return margin

    def predict_proba_reference(self, X: np.ndarray) -> np.ndarray:
        """p_V via the recursive per-tree walk (equivalence oracle)."""
        return _sigmoid(self.predict_margin_reference(X))


def reference_trees(trees: BoostedTrees) -> ReferenceBoostedTrees:
    """A view of a fitted ensemble with the recursive walk available."""
    return as_oracle(trees, ReferenceBoostedTrees)
