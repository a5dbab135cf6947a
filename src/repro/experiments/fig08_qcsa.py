"""Figure 8 / Section 5.2 — QCSA over the 104 TPC-DS queries.

Per-query CVs over N_QCSA = 30 random-configuration executions at
100 GB, the eq. 4 threshold, and the resulting CIQ/CSQ split. Paper
anchors: CV(Q04) = 0.24 (long but insensitive), CV(Q72) = 3.49
(most sensitive), CV(Q14b) = 2.8; 81 queries removed, 23 kept, and the
identity of the 23 kept queries.
"""
from __future__ import annotations

import pandas as pd

from repro.cluster.profiles import TPCDS_CSQ, TPCDS_CSQ_NAMES
from repro.core.qcsa import N_QCSA, qcsa_from_runs
from repro.experiments.common import random_runs

__all__ = ["PAPER", "run"]

PAPER = {
    "n_queries": 104,
    "n_removed": 81,
    "n_kept": 23,
    "cv_q04": 0.24,
    "cv_q72": 3.49,
    "cv_q14b": 2.8,
    "kept": list(TPCDS_CSQ),
}


def run():
    """Returns (per-query CV DataFrame, summary DataFrame)."""
    _, _, runs = random_runs("TPC-DS", N_QCSA)
    res = qcsa_from_runs(runs)
    per_query = pd.DataFrame(
        [
            {"query": q, "cv": cv, "class": "CSQ" if q in set(res.csq) else "CIQ"}
            for q, cv in sorted(res.cvs.items(), key=lambda kv: -kv[1])
        ]
    )
    kept = set(res.csq)
    summary = pd.DataFrame(
        [
            {
                "n_queries": len(res.cvs),
                "n_kept": len(res.csq),
                "n_removed": len(res.ciq),
                "overlap_with_paper_csq": len(kept & TPCDS_CSQ_NAMES),
                "cv_threshold": res.threshold,
                "cv_q04": res.cvs["Q04"],
                "cv_q72": res.cvs["Q72"],
                "cv_q14b": res.cvs["Q14b"],
            }
        ]
    )
    return per_query, summary
