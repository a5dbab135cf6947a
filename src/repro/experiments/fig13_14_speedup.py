"""Figures 13 & 14 — speedups of LOCAT-tuned over SOTA-tuned configs.

15 program-input pairs per cluster: five benchmarks x three input
sizes (100, 300 and 500 GB). Each tuner produces a configuration per
pair (LOCAT via ``tune_multi`` — the DAGP reuses samples across sizes;
the SOTA tuners per their own protocols, re-tuning per size except
datasize-aware DAC), and speedup = SOTA-tuned execution time /
LOCAT-tuned execution time, both measured noise-free by the simulator.

Known deviation (see EXPERIMENTS.md): the paper reports 1.9-2.8x average
speedups; on our stationary simulated black box the extensively-sampling
baselines come much closer to LOCAT's configuration quality, so measured
speedups are near parity. The optimization-time axis (Figures 11/12/20)
is where the economics differ and does reproduce.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import BENCHMARKS, SOTA, SPEEDUP_SIZES_GB, run_campaign

__all__ = ["PAPER", "run"]

PAPER = {
    "arm": {"Tuneful": (2.4, 3.7), "DAC": (2.2, 3.1), "GBO-RL": (2.0, 2.8), "QTune": (1.9, 2.4)},
    "x86": {"Tuneful": (2.8, 4.8), "DAC": (2.6, 4.7), "GBO-RL": (2.3, 3.7), "QTune": (2.1, 3.3)},
}


def run(*, cluster: str = "arm") -> pd.DataFrame:
    rows = []
    for bench in BENCHMARKS:
        locat_multi, _ = run_campaign("LOCAT", bench, cluster, list(SPEEDUP_SIZES_GB))
        for name in SOTA:
            sota_multi, _ = run_campaign(name, bench, cluster, list(SPEEDUP_SIZES_GB))
            for ds in SPEEDUP_SIZES_GB:
                rows.append(
                    {
                        "cluster": cluster,
                        "benchmark": bench,
                        "ds_gb": int(ds),
                        "tuner": name,
                        "locat_time_s": locat_multi[ds].best_time,
                        "sota_time_s": sota_multi[ds].best_time,
                        "speedup_x": sota_multi[ds].best_time / locat_multi[ds].best_time,
                        "paper_avg_x": PAPER[cluster][name][0],
                    }
                )
    return pd.DataFrame(rows)


def summarize(df: pd.DataFrame) -> pd.DataFrame:
    g = df.groupby("tuner", sort=False)
    return pd.DataFrame(
        {
            "avg_speedup_x": g["speedup_x"].mean(),
            "max_speedup_x": g["speedup_x"].max(),
            "paper_avg_x": g["paper_avg_x"].first(),
        }
    ).reset_index()
