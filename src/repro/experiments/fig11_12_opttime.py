"""Figures 11 & 12 — optimization-time reduction vs the SOTA tuners.

All five benchmarks at 300 GB; the reported metric is each SOTA tuner's
optimization time divided by LOCAT's on the same benchmark and cluster.
Figure 11 = four-node ARM cluster, Figure 12 = eight-node x86 cluster.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import BENCHMARKS, SOTA, run_campaign

__all__ = ["PAPER", "run"]

PAPER = {
    "arm": {"Tuneful": (6.4, 7.9), "DAC": (7.0, 8.9), "GBO-RL": (4.1, 6.3), "QTune": (9.7, 11.8)},
    "x86": {"Tuneful": (6.4, 9.7), "DAC": (6.3, 8.0), "GBO-RL": (4.0, 7.0), "QTune": (9.2, 10.3)},
    "ds_gb": 300,
}


def run(*, cluster: str = "arm", ds: float = 300.0, seed: int = 5, benchmarks=BENCHMARKS) -> pd.DataFrame:
    rows = []
    for bench in benchmarks:
        locat_res, _ = run_campaign("LOCAT", bench, cluster, ds, seed=seed)
        for name in SOTA:
            res, _ = run_campaign(name, bench, cluster, ds, seed=seed)
            rows.append(
                {
                    "cluster": cluster,
                    "benchmark": bench,
                    "tuner": name,
                    "locat_opt_h": locat_res.opt_seconds / 3600.0,
                    "sota_opt_h": res.opt_seconds / 3600.0,
                    "time_reduction_x": res.opt_seconds / locat_res.opt_seconds,
                    "paper_avg_x": PAPER[cluster][name][0],
                }
            )
    return pd.DataFrame(rows)


def summarize(df: pd.DataFrame) -> pd.DataFrame:
    g = df.groupby("tuner", sort=False)
    return pd.DataFrame(
        {
            "avg_reduction_x": g["time_reduction_x"].mean(),
            "max_reduction_x": g["time_reduction_x"].max(),
            "paper_avg_x": g["paper_avg_x"].first(),
        }
    ).reset_index()
