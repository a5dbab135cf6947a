"""Figures 18 & 19 — where LOCAT's improvement comes from.

Figure 18: execution time of TPC-DS split into CSQ vs CIQ under each
tuner's recommended configuration — tuning compresses CSQ time while
CIQ time barely moves (CIQs are insensitive by definition).
Figure 19: JVM GC time of TPC-DS and Join under each tuner's
configuration across input sizes — LOCAT's memory-parameter settings
keep GC time lower and growing more slowly with data size.
"""
from __future__ import annotations

import pandas as pd

from repro.cluster.profiles import TPCDS_CSQ_NAMES
from repro.experiments.common import EXEC_SEED, SOTA, SPEEDUP_SIZES_GB, cluster_for, run_campaign, space_for
from repro.execmodel.sim_exec import make_executor

__all__ = ["PAPER", "run_fig18", "run_fig19"]

PAPER = {
    "fig18": "CSQ time dominates the reduction; LOCAT compresses CSQ most",
    "fig19": "LOCAT's GC time is lowest and grows slowest with data size",
}

_TUNERS = ("LOCAT",) + SOTA


def run_fig18() -> pd.DataFrame:
    rows = []
    for tuner in _TUNERS:
        multi, ex = run_campaign(tuner, "TPC-DS", "arm", list(SPEEDUP_SIZES_GB))
        for ds in SPEEDUP_SIZES_GB:
            r = ex.evaluate(multi[ds].best_conf, ds)
            t_csq = sum(t for q, t in r.times.items() if q in TPCDS_CSQ_NAMES)
            t_ciq = sum(t for q, t in r.times.items() if q not in TPCDS_CSQ_NAMES)
            rows.append(
                {"tuner": tuner, "ds_gb": int(ds), "csq_time_s": t_csq, "ciq_time_s": t_ciq}
            )
    # default configuration for reference
    ex = make_executor("TPC-DS", cluster_for("arm"), seed=EXEC_SEED)
    for ds in SPEEDUP_SIZES_GB:
        r = ex.evaluate(space_for("arm").default_conf(), ds)
        rows.append(
            {
                "tuner": "default",
                "ds_gb": int(ds),
                "csq_time_s": sum(t for q, t in r.times.items() if q in TPCDS_CSQ_NAMES),
                "ciq_time_s": sum(t for q, t in r.times.items() if q not in TPCDS_CSQ_NAMES),
            }
        )
    return pd.DataFrame(rows)


def run_fig19() -> pd.DataFrame:
    rows = []
    for bench in ("TPC-DS", "Join"):
        for tuner in _TUNERS:
            multi, ex = run_campaign(tuner, bench, "arm", list(SPEEDUP_SIZES_GB))
            for ds in SPEEDUP_SIZES_GB:
                r = ex.evaluate(multi[ds].best_conf, ds)
                rows.append(
                    {
                        "benchmark": bench,
                        "tuner": tuner,
                        "ds_gb": int(ds),
                        "gc_time_s": r.gc_total,
                        "total_time_s": r.total,
                    }
                )
    return pd.DataFrame(rows)
