"""Gradient-Boosted Regression Trees, from scratch on numpy.

Used twice in the reproduction: as DAC's performance-model surrogate
(Yu et al. build regression-tree ensembles over configuration samples)
and as the strongest ML competitor to IICP in the paper's Section 5.7
(Figures 16/17), where parameter importance is the total squared-error
reduction attributed to each feature across all splits.

A node's split search is vectorized over every (feature, split) pair:
column-wise stable sorts and cumulative sums give every split's gain at
once. Rows are routed down a tree with boolean masks, not one at a time.
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
        best_gain, best_j, best_t = self._best_split(X, y)
        if best_j < 0:
            return node
        self.importance[best_j] += best_gain
        mask = X[:, best_j] <= best_t
        node.feature, node.threshold = best_j, best_t
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    @staticmethod
    def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[float, int, float]:
        """``(gain, feature, threshold)`` of the split with the largest
        squared-error reduction, the first in (feature, split) order among
        equal gains; feature ``-1`` when no split reduces the error.

        Every split of every feature is scored at once on the column-wise
        sorted rows. A scalar ``c ** 2`` is libm's ``pow``, which rounds
        differently from the array square ``c * c`` in about 1e-3 of cases,
        and the scalar form defines the result. So the array gains only
        bound the winner: the splits whose gain can still be the maximum
        (within ``1e-12`` of the terms' scale, far above the rounding
        difference) are rescored with the scalar expressions, in order.
        """
        n = len(y)
        base_sse = float(((y - y.mean()) ** 2).sum())
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0)
        ys = y[order]
        csum = np.cumsum(ys, axis=0)
        csq = np.cumsum(ys**2, axis=0)
        total, total_sq = csum[-1], csq[-1]
        # Split row r sends the first i = r + _MIN_LEAF sorted rows left.
        i = np.arange(_MIN_LEAF, n - _MIN_LEAF + 1)[:, None]
        last_left = slice(_MIN_LEAF - 1, n - _MIN_LEAF)
        cl, ql = csum[last_left], csq[last_left]
        l_sq = cl * cl / i
        r_sq = (total - cl) ** 2 / (n - i)
        gain = base_sse - (ql - l_sq) - ((total_sq - ql) - r_sq)
        # cannot split between equal values
        gain[xs[last_left] == xs[_MIN_LEAF : n - _MIN_LEAF + 1]] = -np.inf
        tol = 1e-12 * (total_sq + l_sq + r_sq + base_sse)
        hi = gain + tol
        maybe = (hi > 0) & (hi >= np.max(gain - tol))
        best_gain, best_j, best_t = 0.0, -1, 0.0
        for j, r in zip(*np.nonzero(maybe.T)):
            j, k = int(j), int(r) + _MIN_LEAF
            c, q = csum[k - 1, j], csq[k - 1, j]
            left_sse = q - c**2 / k
            right_sse = (total_sq[j] - q) - (total[j] - c) ** 2 / (n - k)
            g = base_sse - left_sse - right_sse
            if g > best_gain:
                best_gain, best_j, best_t = g, j, 0.5 * (xs[k - 1, j] + xs[k, j])
        return best_gain, best_j, best_t

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.feature < 0:
                out[rows] = node.value
                continue
            left = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[left]))
            stack.append((node.right, rows[~left]))
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
