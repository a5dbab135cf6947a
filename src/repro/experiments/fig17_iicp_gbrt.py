"""Figure 17 — IICP vs GBRT for identifying important parameters.

Both methods select important parameters from the same N_IICP = 20
samples (IICP by CPS ranking, GBRT by feature importance). TPC-DS and
Join are then executed repeatedly with random values for the *selected*
parameters only (others at defaults); a higher standard deviation of
execution times means the selected set captures more
performance-relevant parameters. The paper finds IICP's SD significantly
higher — GBRT needs far more samples to rank features reliably.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.iicp import N_IICP, cps
from repro.experiments.common import cluster_for, space_for
from repro.execmodel.sim_exec import make_executor
from repro.mlmodels import GBRTRegressor

__all__ = ["PAPER", "run"]

PAPER = {"winner": "IICP", "runs": [5, 10, 15, 20, 25, 30], "benchmarks": ["TPC-DS", "Join"]}


def _probe_sd(ex, space, selected: list[str], ds: float, n_runs: int, rng) -> float:
    """SD of execution times with only ``selected`` parameters randomized."""
    times = []
    for _ in range(n_runs):
        conf = space.default_conf()
        for name in selected:
            conf[name] = space[name].sample(rng)
        conf = ex.repair(conf, space)
        # noise-free: isolate the configuration-induced spread
        times.append(ex.evaluate(conf, ds).total)
    return float(np.std(times))


def run(*, cluster: str = "arm", ds: float = 100.0, seed: int = 7, n_samples: int = N_IICP, runs=(5, 10, 15, 20, 25, 30), top_k: int = 15) -> pd.DataFrame:
    space = space_for(cluster)
    rows = []
    for bench in ("TPC-DS", "Join"):
        ex = make_executor(bench, cluster_for(cluster), seed=1)
        rng = np.random.default_rng(seed)
        confs = [ex.sample_feasible(space, rng) for _ in range(n_samples)]
        times = np.array([ex.run(c, ds).total for c in confs])
        iicp_sel = cps(confs, times, space).top(top_k)
        model = GBRTRegressor(n_estimators=60, max_depth=3).fit(space.matrix(confs), times)
        order = np.argsort(model.feature_importances_)[::-1]
        gbrt_sel = [space.names[i] for i in order[:top_k]]
        for n_runs in runs:
            rows.append(
                {
                    "benchmark": bench,
                    "n_runs": n_runs,
                    "sd_iicp": _probe_sd(ex, space, iicp_sel, ds, n_runs, np.random.default_rng(seed + n_runs)),
                    "sd_gbrt": _probe_sd(ex, space, gbrt_sel, ds, n_runs, np.random.default_rng(seed + n_runs)),
                }
            )
    return pd.DataFrame(rows)
