"""Figure 7 — determining N_QCSA: CV saturates by ~30 samples.

The mean per-query CV of TPC-DS and TPC-H is computed over growing
sample counts; the paper observes the CV estimate grows until about 30
random-configuration executions and is flat beyond, fixing N_QCSA = 30.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.qcsa import qcsa_from_runs
from repro.experiments.common import cluster_for, space_for
from repro.execmodel.sim_exec import make_executor

__all__ = ["PAPER", "run"]

PAPER = {"n_qcsa": 30, "saturates_after": 30}


def run(*, cluster: str = "arm", max_samples: int = 50, ds: float = 100.0, seed: int = 7) -> pd.DataFrame:
    space = space_for(cluster)
    rows = []
    for bench in ("TPC-DS", "TPC-H"):
        ex = make_executor(bench, cluster_for(cluster), seed=1)
        rng = np.random.default_rng(seed)
        runs = []
        for n in range(1, max_samples + 1):
            conf = ex.sample_feasible(space, rng)
            runs.append(ex.run(conf, ds))
            if n >= 5 and n % 5 == 0:
                cvs = qcsa_from_runs(runs).cvs
                rows.append(
                    {
                        "benchmark": bench,
                        "n_samples": n,
                        "mean_cv": float(np.mean(list(cvs.values()))),
                        "max_cv": float(np.max(list(cvs.values()))),
                    }
                )
    return pd.DataFrame(rows)
