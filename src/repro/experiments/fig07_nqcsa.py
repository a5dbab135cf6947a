"""Figure 7 — determining N_QCSA: CV saturates by ~30 samples.

The mean per-query CV of TPC-DS and TPC-H is computed over growing
sample counts; the paper observes the CV estimate grows until about 30
random-configuration executions and is flat beyond, fixing N_QCSA = 30.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.qcsa import qcsa_from_runs
from repro.experiments.common import SAMPLE_SWEEP, random_runs

__all__ = ["PAPER", "run"]

PAPER = {"n_qcsa": 30, "saturates_after": 30}


def run() -> pd.DataFrame:
    rows = []
    for bench in ("TPC-DS", "TPC-H"):
        _, _, runs = random_runs(bench, SAMPLE_SWEEP[-1])
        for n in SAMPLE_SWEEP:
            cvs = qcsa_from_runs(runs[:n]).cvs
            rows.append(
                {
                    "benchmark": bench,
                    "n_samples": n,
                    "mean_cv": float(np.mean(list(cvs.values()))),
                    "max_cv": float(np.max(list(cvs.values()))),
                }
            )
    return pd.DataFrame(rows)
