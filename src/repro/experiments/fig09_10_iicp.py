"""Figures 9 & 10 — determining N_IICP and the CPS/CPE reduction.

Figure 9: the number of CPS-selected important parameters as the sample
count grows from 5 to 50; the paper fixes N_IICP = 20 where the count
stabilizes. Figure 10: per benchmark, CPS keeps roughly two thirds of
the 38 parameters and CPE extracts roughly one third of those.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.iicp import cps, iicp
from repro.experiments.common import BENCHMARKS, cluster_for, space_for
from repro.execmodel.sim_exec import make_executor

__all__ = ["PAPER", "run_fig9", "run_fig10"]

PAPER = {
    "n_iicp": 20,
    "cps_fraction_of_38": 2 / 3,
    "cpe_fraction_of_cps": 1 / 3,
    "n_important_tpcds": 15,  # Section 5.6
}


def run_fig9(*, cluster: str = "arm", benchmark: str = "TPC-DS", ds: float = 100.0, seed: int = 7, max_samples: int = 50) -> pd.DataFrame:
    space = space_for(cluster)
    ex = make_executor(benchmark, cluster_for(cluster), seed=1)
    rng = np.random.default_rng(seed)
    confs, times = [], []
    rows = []
    for n in range(1, max_samples + 1):
        conf = ex.sample_feasible(space, rng)
        confs.append(conf)
        times.append(ex.run(conf, ds).total)
        if n >= 5 and n % 5 == 0:
            kept = cps(confs, np.array(times), space).kept
            rows.append({"benchmark": benchmark, "n_samples": n, "n_important": len(kept)})
    return pd.DataFrame(rows)


def run_fig10(*, cluster: str = "arm", ds: float = 100.0, seed: int = 7, n_samples: int = 20) -> pd.DataFrame:
    space = space_for(cluster)
    rows = []
    for bench in BENCHMARKS:
        ex = make_executor(bench, cluster_for(cluster), seed=1)
        rng = np.random.default_rng(seed)
        confs = [ex.sample_feasible(space, rng) for _ in range(n_samples)]
        times = np.array([ex.run(c, ds).total for c in confs])
        res = iicp(confs, times, space)
        rows.append(
            {
                "benchmark": bench,
                "n_params": space.dim,
                "cps_selected": len(res.cps_result.kept),
                "cpe_extracted": res.n_components,
            }
        )
    return pd.DataFrame(rows)
