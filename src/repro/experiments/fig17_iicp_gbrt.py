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
from repro.experiments.common import SAMPLE_DS_GB, SAMPLE_SEED, random_runs, space_for
from repro.mlmodels import GBRTRegressor

__all__ = ["PAPER", "run"]

PAPER = {"winner": "IICP", "runs": [5, 10, 15, 20, 25, 30], "benchmarks": ["TPC-DS", "Join"]}

#: Important parameters each method selects.
_TOP_K = 15


def _probe_sd(ex, space, selected: list[str], n_runs: int, rng) -> float:
    """SD of execution times with only ``selected`` parameters randomized."""
    times = []
    for _ in range(n_runs):
        conf = space.default_conf()
        for name in selected:
            conf[name] = space[name].sample(rng)
        conf = ex.repair(conf, space)
        # noise-free: isolate the configuration-induced spread
        times.append(ex.evaluate(conf, SAMPLE_DS_GB).total)
    return float(np.std(times))


def run() -> pd.DataFrame:
    space = space_for("arm")
    rows = []
    for bench in PAPER["benchmarks"]:
        ex, _, samples = random_runs(bench, N_IICP)
        iicp_sel = cps(samples, space).top(_TOP_K)
        model = GBRTRegressor(n_estimators=60, max_depth=3).fit(
            space.matrix([r.conf for r in samples]), np.array([r.total for r in samples])
        )
        order = np.argsort(model.feature_importances_)[::-1]
        gbrt_sel = [space.names[i] for i in order[:_TOP_K]]
        for n_runs in PAPER["runs"]:
            rows.append(
                {
                    "benchmark": bench,
                    "n_runs": n_runs,
                    "sd_iicp": _probe_sd(ex, space, iicp_sel, n_runs, np.random.default_rng(SAMPLE_SEED + n_runs)),
                    "sd_gbrt": _probe_sd(ex, space, gbrt_sel, n_runs, np.random.default_rng(SAMPLE_SEED + n_runs)),
                }
            )
    return pd.DataFrame(rows)
