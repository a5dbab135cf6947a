"""Gradient-Boosted Regression Trees, from scratch on numpy.

Used twice in the reproduction: as DAC's performance-model surrogate
(Yu et al. build regression-tree ensembles over configuration samples)
and as the strongest ML competitor to IICP in the paper's Section 5.7
(Figures 16/17), where parameter importance is the total squared-error
reduction attributed to each feature across all splits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GBRTRegressor"]

#: Fewest training rows a leaf may hold.
_MIN_LEAF = 2


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0


class _Tree:
    """CART regression tree with exhaustive threshold search."""

    def __init__(self, max_depth: int):
        self.max_depth = max_depth
        self.importance: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_Tree":
        self.importance = np.zeros(X.shape[1])
        self.root = self._build(X, y, 0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * _MIN_LEAF or np.ptp(y) == 0:
            return node
        n, d = X.shape
        base_sse = float(((y - y.mean()) ** 2).sum())
        best_gain, best_j, best_t = 0.0, -1, 0.0
        for j in range(d):
            xs = X[:, j]
            order = np.argsort(xs, kind="stable")
            xs_s, ys_s = xs[order], y[order]
            csum = np.cumsum(ys_s)
            csq = np.cumsum(ys_s**2)
            total, total_sq = csum[-1], csq[-1]
            for i in range(_MIN_LEAF, n - _MIN_LEAF + 1):
                if i < n and xs_s[i - 1] == xs_s[i]:
                    continue  # cannot split between equal values
                if i >= n:
                    break
                left_sse = csq[i - 1] - csum[i - 1] ** 2 / i
                rn = n - i
                right_sse = (total_sq - csq[i - 1]) - (total - csum[i - 1]) ** 2 / rn
                gain = base_sse - left_sse - right_sse
                if gain > best_gain:
                    best_gain, best_j = gain, j
                    best_t = 0.5 * (xs_s[i - 1] + xs_s[i])
        if best_j < 0:
            return node
        self.importance[best_j] += best_gain
        mask = X[:, best_j] <= best_t
        node.feature, node.threshold = best_j, best_t
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        for i, x in enumerate(X):
            node = self.root
            while node.feature >= 0:
                node = node.left if x[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


class GBRTRegressor:
    """Least-squares gradient boosting over shallow CART trees."""

    def __init__(self, n_estimators: int = 80, learning_rate: float = 0.1, max_depth: int = 3):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBRTRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._base = float(y.mean())
        self._trees: list[_Tree] = []
        resid = y - self._base
        for _ in range(self.n_estimators):
            t = _Tree(self.max_depth).fit(X, resid)
            pred = t.predict(X)
            if np.allclose(pred, 0.0):
                break
            self._trees.append(t)
            resid = resid - self.learning_rate * pred
        d = X.shape[1]
        imp = np.zeros(d)
        for t in self._trees:
            imp += t.importance
        s = imp.sum()
        self.feature_importances_ = imp / s if s > 0 else imp
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(len(X), self._base)
        for t in self._trees:
            out += self.learning_rate * t.predict(X)
        return out
