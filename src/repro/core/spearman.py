"""Spearman Correlation Coefficient (SCC) — the filter behind CPS.

LOCAT's Configuration Parameter Selection (CPS, Section 3.3.2) computes
the SCC between each configuration parameter and the application
execution time, and drops parameters with ``|SCC| < 0.2`` (the common
poor-correlation boundary).

:func:`spearman` works on the tiny in-memory sample matrices
(``N_IICP`` = 20 rows) the tuner sees.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["rankdata", "spearman", "spearman_matrix"]


def rankdata(x: np.ndarray) -> np.ndarray:
    """Average-tie ranks (1-based), matching ``scipy.stats.rankdata``."""
    return pd.Series(np.asarray(x, dtype=float)).rank(method="average").to_numpy()


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho between two vectors (NaN-free, ties averaged).

    Returns 0.0 when either vector is constant (a constant parameter
    carries no information about execution time).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x) < 2:
        raise ValueError("need at least two samples")
    rx, ry = rankdata(x), rankdata(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def spearman_matrix(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SCC of every column of ``X`` (n, d) against ``y`` (n,)."""
    X = np.asarray(X, dtype=float)
    return np.array([spearman(X[:, j], y) for j in range(X.shape[1])])
