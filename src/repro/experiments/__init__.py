"""The paper's evaluation artefacts, one entry per ``results/`` file.

:data:`ARTEFACTS` maps each ``results/<name>.txt`` stem to a function
returning ``(DataFrame, extra_text)``; :func:`render` formats that pair
as the committed file. ``python -m repro.experiments NAME`` prints it and
``benchmarks/bench_experiments.py`` writes it. Only :data:`LIVE` runs on
live Spark and takes a SparkSession.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments import (
    fig06_kernels,
    fig07_nqcsa,
    fig08_qcsa,
    fig09_10_iicp,
    fig11_12_opttime,
    fig13_14_speedup,
    fig15_ap_ip,
    fig16_models,
    fig17_iicp_gbrt,
    fig18_19_breakdown,
    fig20_overhead,
    fig21_qit,
    spark_online,
    table1,
    table2,
    table3,
)

__all__ = ["ARTEFACTS", "LIVE", "build", "render", "text"]

LIVE = "spark_online_locat"


def _fig08_summary():
    per_query, summary = fig08_qcsa.run()
    kept = per_query[per_query["class"] == "CSQ"]["query"].tolist()
    return summary, "kept queries: " + ", ".join(kept)


def _opttime(cluster: str):
    df = fig11_12_opttime.run(cluster=cluster)
    return df, fig11_12_opttime.summarize(df).to_string(index=False)


def _speedup(cluster: str):
    df = fig13_14_speedup.run(cluster=cluster, sizes=(100.0, 300.0, 500.0))
    return df, fig13_14_speedup.summarize(df).to_string(index=False)


def _fig15():
    df = fig15_ap_ip.run()
    return df, "avg ip/ap: %.2f" % df.ip_over_ap_x.mean()


def _fig16():
    df = fig16_models.run()
    pivot = df.pivot(index="benchmark", columns="model", values="rel_error").round(3)
    return df, pivot.to_string()


ARTEFACTS = {
    "table1": lambda: (table1.run(), ""),
    "table2": lambda: (table2.run(), ""),
    "table3": lambda: (table3.run(), ""),
    "fig06_kernels": lambda: (fig06_kernels.run(), ""),
    "fig07_nqcsa": lambda: (fig07_nqcsa.run(), ""),
    "fig08_summary": _fig08_summary,
    "fig08_per_query_cv": lambda: (fig08_qcsa.run()[0], ""),
    "fig09_niicp": lambda: (fig09_10_iicp.run_fig9(), ""),
    "fig10_cps_cpe": lambda: (fig09_10_iicp.run_fig10(), ""),
    "fig11_opttime_arm": lambda: _opttime("arm"),
    "fig12_opttime_x86": lambda: _opttime("x86"),
    "fig13_speedup_arm": lambda: _speedup("arm"),
    "fig14_speedup_x86": lambda: _speedup("x86"),
    "fig15_ap_ip": _fig15,
    "fig16_models": _fig16,
    "fig17_iicp_gbrt": lambda: (fig17_iicp_gbrt.run(), ""),
    "fig18_csq_ciq": lambda: (fig18_19_breakdown.run_fig18(), ""),
    "fig19_gc_time": lambda: (fig18_19_breakdown.run_fig19(), ""),
    "fig20_overhead": lambda: (fig20_overhead.run(), ""),
    "fig21_qit": lambda: (fig21_qit.run(), ""),
    LIVE: lambda spark: (spark_online.run(spark), ""),
}


def build(name: str, spark=None) -> tuple[pd.DataFrame, str]:
    """Run artefact ``name``; ``spark`` is passed to :data:`LIVE` only."""
    return ARTEFACTS[name](spark) if name == LIVE else ARTEFACTS[name]()


def text(df: pd.DataFrame, extra: str = "") -> str:
    """The ``results/<name>.txt`` layout: the table, then any extra text."""
    out = df.to_string(index=False)
    if extra:
        out += "\n\n" + extra
    return out + "\n"


def render(name: str, spark=None) -> str:
    return text(*build(name, spark))
