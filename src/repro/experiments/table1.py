"""Table 1 — experimented benchmarks and input data sizes.

Reproduces the benchmark x data-size matrix: the five Spark SQL
applications (TPC-DS, TPC-H, HiBench Join/Scan/Aggregation) each
evaluated at 100-500 GB. The simulator realizes each cell at the paper's
nominal gigabyte sizes with the paper's query counts; the live Spark path
runs TPC-H-lite only (see ``spark_online``).
"""
from __future__ import annotations

import pandas as pd

from repro.cluster.profiles import PROFILE_SETS
from repro.experiments.common import BENCHMARKS, DATA_SIZES_GB

__all__ = ["PAPER", "run"]

PAPER = {
    "benchmarks": list(BENCHMARKS),
    "sizes_gb": list(DATA_SIZES_GB),
    "queries": {"TPC-DS": 104, "TPC-H": 22, "Join": 1, "Scan": 1, "Aggregation": 1},
}


def run() -> pd.DataFrame:
    profiles = PROFILE_SETS()
    rows = []
    for b in BENCHMARKS:
        rows.append(
            {
                "benchmark": b,
                "paper_queries": PAPER["queries"][b],
                "sim_queries": len(profiles[b]),
                "input_sizes_gb": ", ".join(str(int(s)) for s in DATA_SIZES_GB),
            }
        )
    return pd.DataFrame(rows)
