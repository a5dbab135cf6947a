"""Table 3 — top-5 important parameters selected by CPS for TPC-DS at
100 GB, 500 GB and 1 TB.

Protocol: random feasible configurations are run on the simulated ARM
cluster at each data size; CPS (Spearman filter) ranks every parameter
by |SCC| against total execution time; the top five per size are the
table's columns. The paper's qualitative claims checked here:

* ``spark.sql.shuffle.partitions`` is the most important parameter at
  every size;
* executor parallelism/memory parameters and ``spark.shuffle.compress``
  recur in the top five;
* ``spark.memory.offHeap.size`` (off-heap memory) enters the top five
  only at 1 TB.

Each size ranks the same 120 configurations: more than the paper's
N_IICP = 20 because Spearman's small-sample noise floor
(|rho| ~ 1/sqrt(n)) would otherwise swamp the ranking; the paper's own
Figure 9 sweep is reproduced in fig09_10_iicp. ``seed`` picks the
configuration stream.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.iicp import cps
from repro.experiments.common import SAMPLE_SEED, cluster_for, space_for
from repro.execmodel.sim_exec import make_executor

__all__ = ["PAPER", "run"]

PAPER = {
    100: [
        "spark.sql.shuffle.partitions",
        "spark.executor.memory",
        "spark.executor.cores",
        "spark.shuffle.compress",
        "spark.executor.instances",
    ],
    500: [
        "spark.sql.shuffle.partitions",
        "spark.shuffle.compress",
        "spark.executor.memory",
        "spark.executor.instances",
        "spark.executor.cores",
    ],
    1000: [
        "spark.sql.shuffle.partitions",
        "spark.shuffle.compress",
        "spark.executor.memory",
        "spark.executor.instances",
        "spark.memory.offHeap.size",
    ],
}


_N_SAMPLES = 120


def run(*, seed: int = SAMPLE_SEED) -> pd.DataFrame:
    space = space_for("arm")
    ex = make_executor("TPC-DS", cluster_for("arm"), seed=1)
    rng = np.random.default_rng(seed)
    confs = [ex.sample_feasible(space, rng) for _ in range(_N_SAMPLES)]
    rows = []
    for ds in (100.0, 500.0, 1000.0):
        ranking = cps([ex.run(c, ds) for c in confs], space).ranking()
        for rank, (name, scc) in enumerate(ranking[:5], start=1):
            rows.append(
                {
                    "datasize_gb": int(ds),
                    "rank": rank,
                    "parameter": name,
                    "scc": round(scc, 3),
                    "paper_rank_parameter": PAPER[int(ds)][rank - 1],
                }
            )
    return pd.DataFrame(rows)
