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

from repro.experiments.common import BENCHMARKS, cluster_for, space_for
from repro.execmodel.sim_exec import make_executor
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


def run(*, cluster: str = "arm", ds: float = 100.0, n_train: int = 60, n_test: int = 20, seed: int = 7, benchmarks=BENCHMARKS) -> pd.DataFrame:
    space = space_for(cluster)
    rows = []
    for bench in benchmarks:
        ex = make_executor(bench, cluster_for(cluster), seed=1)
        rng = np.random.default_rng(seed)
        confs = [ex.sample_feasible(space, rng) for _ in range(n_train + n_test)]
        times = np.array([ex.run(c, ds).total for c in confs])
        X = space.matrix(confs)
        Xtr, ytr = X[:n_train], times[:n_train]
        Xte, yte = X[n_train:], times[n_train:]
        for name, make in MODELS.items():
            model = make().fit(Xtr, ytr)
            pred = model.predict(Xte)
            rel_err = float(np.mean(np.abs(pred - yte) / yte))
            rows.append({"benchmark": bench, "model": name, "rel_error": rel_err})
    return pd.DataFrame(rows)
