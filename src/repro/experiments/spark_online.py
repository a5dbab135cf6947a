"""Online LOCAT on live Spark SQL — the real-metrics tuning path.

TPC-H-lite at SF 0.01 (larger than the unit tests' 0.002 so shuffles are
real work), small tuning budget. Reported: per-phase costs and the tuned
vs default execution time on real Spark.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.configspace import arm_space
from repro.core.locat import Locat
from repro.execmodel.spark_exec import SparkSQLExecutor
from repro.workloads.tpch import TPCH_LITE

__all__ = ["run", "session"]

#: TPC-H-lite scale factor.
SF = 0.01


def session() -> SparkSession:
    """A local session with the test fixture's runtime confs (see conftest.py)."""
    return (
        SparkSession.builder.appName("locat-online")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def run(spark: SparkSession) -> pd.DataFrame:
    space = arm_space()
    ex = SparkSQLExecutor(spark, TPCH_LITE)
    ex.tables(SF)  # generate the data before tuning starts
    loc = Locat(space, seed=2, n_qcsa=8, n_iicp=6, min_iters=3, max_iters=5,
                n_candidates=60, n_hyper=3)
    res = loc.tune(ex, SF)
    default_t = ex.evaluate(space.default_conf(), SF).total
    tuned_t = ex.evaluate(res.best_conf, SF).total
    return pd.DataFrame(
        [
            {
                "sf": SF,
                "n_runs": res.n_runs,
                "opt_wallclock_s": res.opt_seconds,
                "rqa_queries": len(loc.state.qcsa.csq),
                "cps_kept": len(loc.state.iicp.cps_result.kept),
                "default_exec_s": default_t,
                "tuned_exec_s": tuned_t,
                "tuned_over_default_x": default_t / tuned_t,
            }
        ]
    )
