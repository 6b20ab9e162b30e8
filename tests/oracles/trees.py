"""Recursive tree walk and grower: the oracles for the boosted trees.

:meth:`~repro.ml.boosted_trees.BoostedTrees.predict_margin` walks the
compiled array form of the ensemble; the per-tree recursive walk below,
kept unchanged, is what it must match bit for bit.
:class:`ReferenceBoostedTrees` also fits every tree with the recursive
reference grower, the oracle for the histogram grower.
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
