"""Figure 16 — accuracy of performance models built by five ML families.

GBRT, SVR (kernel ridge stand-in), Linear Regression, Logistic
Regression and k-NN regression are trained on identical
(configuration -> execution time) sample sets and scored by relative
error on held-out samples. The paper: GBRT is most accurate (< 15%
average error), motivating GBRT as IICP's strongest ML competitor in
Figure 17.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.experiments.common import BENCHMARKS, random_runs, space_for
from repro.mlmodels import (
    GBRTRegressor,
    KernelRidgeRegressor,
    KNNRegressor,
    LinearRegressor,
    LogisticRegressor,
)

__all__ = ["PAPER", "MODELS", "run"]

PAPER = {"best_model": "GBRT", "gbrt_avg_error_lt": 0.15}

MODELS = {
    "GBRT": lambda: GBRTRegressor(n_estimators=250, learning_rate=0.05, max_depth=3),
    "SVR": lambda: KernelRidgeRegressor(alpha=0.05),
    "LinearR": lambda: LinearRegressor(),
    "LR": lambda: LogisticRegressor(),
    "KNNAR": lambda: KNNRegressor(k=3),
}

#: Training and held-out samples per benchmark.
_N_TRAIN = 60
_N_TEST = 20


def run() -> pd.DataFrame:
    space = space_for("arm")
    rows = []
    for bench in BENCHMARKS:
        _, _, runs = random_runs(bench, _N_TRAIN + _N_TEST)
        X = space.matrix([r.conf for r in runs])
        times = np.array([r.total for r in runs])
        Xtr, ytr = X[:_N_TRAIN], times[:_N_TRAIN]
        Xte, yte = X[_N_TRAIN:], times[_N_TRAIN:]
        for name, make in MODELS.items():
            model = make().fit(Xtr, ytr)
            pred = model.predict(Xte)
            rel_err = float(np.mean(np.abs(pred - yte) / yte))
            rows.append({"benchmark": bench, "model": name, "rel_error": rel_err})
    return pd.DataFrame(rows)
