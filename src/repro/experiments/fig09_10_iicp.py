"""Figures 9 & 10 — determining N_IICP and the CPS/CPE reduction.

Figure 9: the number of CPS-selected important parameters as the sample
count grows from 5 to 50; the paper fixes N_IICP = 20 where the count
stabilizes. Figure 10: per benchmark, CPS keeps roughly two thirds of
the 38 parameters and CPE extracts roughly one third of those.
"""
from __future__ import annotations

import pandas as pd

from repro.core.iicp import N_IICP, cps, iicp
from repro.experiments.common import BENCHMARKS, SAMPLE_SWEEP, random_runs, space_for

__all__ = ["PAPER", "run_fig9", "run_fig10"]

PAPER = {
    "n_iicp": 20,
    "cps_fraction_of_38": 2 / 3,
    "cpe_fraction_of_cps": 1 / 3,
    "n_important_tpcds": 15,  # Section 5.6
}


def run_fig9() -> pd.DataFrame:
    space = space_for("arm")
    _, _, runs = random_runs("TPC-DS", SAMPLE_SWEEP[-1])
    rows = []
    for n in SAMPLE_SWEEP:
        kept = cps(runs[:n], space).kept
        rows.append({"benchmark": "TPC-DS", "n_samples": n, "n_important": len(kept)})
    return pd.DataFrame(rows)


def run_fig10() -> pd.DataFrame:
    space = space_for("arm")
    rows = []
    for bench in BENCHMARKS:
        _, _, runs = random_runs(bench, N_IICP)
        res = iicp(runs, space)
        rows.append(
            {
                "benchmark": bench,
                "n_params": space.dim,
                "cps_selected": len(res.cps_result.kept),
                "cpe_extracted": res.n_components,
            }
        )
    return pd.DataFrame(rows)
