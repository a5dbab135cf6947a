"""The remaining Figure 16 regressors: KRR (SVR stand-in), linear,
logistic-squashed, and k-NN regression — all pure numpy."""
from __future__ import annotations

import numpy as np

from repro.core.kpca import pairwise_sqdist

__all__ = ["LinearRegressor", "KernelRidgeRegressor", "LogisticRegressor", "KNNRegressor"]


class LinearRegressor:
    """Ordinary least squares with intercept (Figure 16's "LinearR")."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegressor":
        X = np.asarray(X, dtype=float)
        A = np.hstack([X, np.ones((len(X), 1))])
        self._w, *_ = np.linalg.lstsq(A, np.asarray(y, dtype=float), rcond=None)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.hstack([X, np.ones((len(X), 1))]) @ self._w


class KernelRidgeRegressor:
    """RBF kernel ridge regression — the SVR substitute (see DESIGN.md).

    The kernel width is ``gamma = 1 / d``, as in KPCA's Gaussian kernel.
    """

    def __init__(self, alpha: float = 0.1):
        self.alpha = alpha

    def _k(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return np.exp(-self._g * pairwise_sqdist(A, B))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KernelRidgeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._X = X
        self._g = 1.0 / X.shape[1]
        self._ym = float(y.mean())
        K = self._k(X, X)
        self._a = np.linalg.solve(K + self.alpha * np.eye(len(X)), y - self._ym)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._k(X, self._X) @ self._a + self._ym


class LogisticRegressor:
    """Logistic-squashed regression (Figure 16's "LR").

    Regression targets are min-max scaled into (0, 1) and fit with a
    sigmoid link by gradient descent — the closest regression reading of
    the paper's use of logistic regression on execution times.
    """

    #: Gradient-descent step size.
    LR = 0.5

    def __init__(self, n_iter: int = 2000):
        self.n_iter = n_iter

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._ylo, self._yhi = float(y.min()), float(y.max())
        span = (self._yhi - self._ylo) or 1.0
        t = np.clip((y - self._ylo) / span, 0.02, 0.98)
        A = np.hstack([X, np.ones((len(X), 1))])
        w = np.zeros(A.shape[1])
        for _ in range(self.n_iter):
            p = 1.0 / (1.0 + np.exp(-A @ w))
            w -= self.LR * A.T @ (p - t) / len(t)
        self._w = w
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        A = np.hstack([X, np.ones((len(X), 1))])
        p = 1.0 / (1.0 + np.exp(-A @ self._w))
        return self._ylo + p * (self._yhi - self._ylo)


class KNNRegressor:
    """k-nearest-neighbour regression (Figure 16's "KNNAR")."""

    def __init__(self, k: int = 3):
        self.k = k

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNNRegressor":
        self._X = np.asarray(X, dtype=float)
        self._y = np.asarray(y, dtype=float)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(len(X))
        k = min(self.k, len(self._y))
        for i, x in enumerate(X):
            d = np.sum((self._X - x) ** 2, axis=1)
            idx = np.argsort(d)[:k]
            out[i] = self._y[idx].mean()
        return out
