"""Figure 15 — tuning all 38 parameters (AP) vs the important ones (IP).

TPC-DS at 100-500 GB tuned by LOCAT twice: with IICP enabled (IP — the
important parameters only) and disabled (AP — BO over the full 38-dim
space with the same stop rule). The paper reports IP beating AP by 1.8x
on average: tuning unimportant parameters both slows convergence and
lets their rugged response counteract the important ones.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import run_campaign

__all__ = ["PAPER", "run"]

PAPER = {"avg_ip_over_ap_x": 1.8, "sizes_gb": [100, 200, 300, 400, 500]}


def run(*, cluster: str = "arm", sizes=(100.0, 200.0, 300.0, 400.0, 500.0), seed: int = 5) -> pd.DataFrame:
    rows = []
    for ds in sizes:
        ip, _ = run_campaign("LOCAT", "TPC-DS", cluster, ds, seed=seed)
        ap, _ = run_campaign("LOCAT", "TPC-DS", cluster, ds, seed=seed, use_iicp=False)
        rows.append(
            {
                "ds_gb": int(ds),
                "ip_time_s": ip.best_time,
                "ap_time_s": ap.best_time,
                "ip_over_ap_x": ap.best_time / ip.best_time,
                "paper_avg_x": PAPER["avg_ip_over_ap_x"],
            }
        )
    return pd.DataFrame(rows)
