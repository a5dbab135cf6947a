"""DAGP — the Datasize-Aware Gaussian Process (paper Section 3.4).

The surrogate models execution time as ``t = f(conf, ds)`` (eq. 7): the
GP input is the configuration's coordinates *plus a data-size
coordinate*. Samples observed at one input size therefore inform the
posterior at another, which is what lets LOCAT re-tune for a new data
size in a handful of iterations instead of from scratch (Figures 13/14's
per-size wins and Figure 20's flat overhead curve).

This module provides the input-assembly helpers shared by LOCAT's two
phases; the GP/EI machinery itself lives in :mod:`repro.core.gp` and
:mod:`repro.core.acquisition`, and the loop in :mod:`repro.core.bo`.
"""
from __future__ import annotations

import numpy as np

__all__ = ["DS_REF", "DS_BOX", "ds_normalize", "augment_with_ds"]

#: Reference data size (GB) for normalizing the ds coordinate — the top of
#: Table 1's size range, so sizes map into roughly [0.2, 1].
DS_REF = 500.0
#: BO's search interval on the normalized ds coordinate (10 GB to 1.3 TB).
DS_BOX = (0.02, 2.6)


def ds_normalize(ds: float) -> float:
    """Map a data size onto the GP's ds coordinate."""
    if ds <= 0:
        raise ValueError("data size must be positive")
    return float(ds) / DS_REF


def augment_with_ds(X: np.ndarray, ds_values) -> np.ndarray:
    """Append the normalized ds coordinate as the last column of ``X``.

    ``ds_values`` is a scalar (same size for all rows) or a length-n
    sequence (mixed-size sample sets — the DAGP training matrix
    ``(X_E, T)`` of eq. 9).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ds_arr = np.asarray(ds_values, dtype=float)
    if ds_arr.ndim == 0:
        ds_col = np.full((len(X), 1), ds_normalize(float(ds_arr)))
    else:
        if len(ds_arr) != len(X):
            raise ValueError("ds_values length mismatch")
        ds_col = (ds_arr / DS_REF)[:, None]
    return np.hstack([X, ds_col])
