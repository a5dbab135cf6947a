"""Figure 20 — tuning overhead as the input data size grows.

TPC-DS tuned at each size in sequence. LOCAT (datasize-aware DAGP)
reuses everything it learned at earlier sizes, so its marginal
optimization time stays nearly flat; the SOTA approaches re-tune (DAC
partially reuses its model but must top up samples), so their cumulative
overhead grows much faster.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import SOTA, run_campaign

__all__ = ["PAPER", "run"]

PAPER = {
    "claim": "LOCAT's overhead is lowest at every size and grows slowest",
    "sizes_gb": [100, 200, 300, 400, 500],
}


def run(*, cluster: str = "arm", sizes=(100.0, 200.0, 300.0, 400.0, 500.0), seed: int = 5) -> pd.DataFrame:
    rows = []
    for tuner in ("LOCAT",) + SOTA:
        multi, _ = run_campaign(tuner, "TPC-DS", cluster, list(sizes), seed=seed)
        cum = 0.0
        for ds in sizes:
            cum += multi[ds].opt_seconds
            rows.append(
                {
                    "tuner": tuner,
                    "ds_gb": int(ds),
                    "marginal_opt_h": multi[ds].opt_seconds / 3600.0,
                    "cumulative_opt_h": cum / 3600.0,
                }
            )
    return pd.DataFrame(rows)
