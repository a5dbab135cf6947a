"""Query Configuration Sensitivity Analysis (QCSA) — paper Section 3.2.

Over ``N_QCSA`` executions of the application under different random
configurations, each query's Coefficient of Variation (eq. 3,
population standard deviation over mean) measures how strongly its
latency responds to configuration changes. The CV range across queries
is split into three equal partitions (eq. 4); queries in the lowest
third are Configuration-Insensitive Queries (CIQ) and are removed,
leaving the Reduced Query Application (RQA) of Configuration-Sensitive
Queries (CSQ).

:func:`qcsa` consumes the per-query time table as a long-format pandas
DataFrame; :func:`qcsa_from_runs` builds that table from executor runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.execmodel.interface import RunResult

__all__ = ["QCSAResult", "compute_cvs", "classify", "qcsa", "qcsa_from_runs"]

#: Paper Section 5.1: 30 samples saturate the CV estimate.
N_QCSA = 30


@dataclass(frozen=True)
class QCSAResult:
    """CV per query plus the CIQ/CSQ classification."""

    cvs: dict[str, float]
    threshold: float  # CV below this => configuration-insensitive
    csq: list[str]  # the RQA, in original application order
    ciq: list[str]

    @property
    def rqa(self) -> list[str]:
        """Alias: the Reduced Query Application's query list."""
        return self.csq


def compute_cvs(samples: pd.DataFrame) -> dict[str, float]:
    """Per-query CV from a long table with columns (query, run, time).

    Uses the population standard deviation, matching eq. 3's ``1/N``
    normalization.
    """
    for col in ("query", "run", "time"):
        if col not in samples.columns:
            raise ValueError(f"samples must have column {col!r}")
    g = samples.groupby("query", sort=False)["time"]
    mean = g.mean()
    std = g.std(ddof=0)
    cv = (std / mean).fillna(0.0)
    return {q: float(v) for q, v in cv.items()}


def classify(cvs: dict[str, float]) -> QCSAResult:
    """Eq. 4: equal-thirds partition of the CV range; lowest third = CIQ."""
    if not cvs:
        raise ValueError("no queries")
    vals = np.array(list(cvs.values()))
    width = (vals.max() - vals.min()) / 3.0
    threshold = float(vals.min() + width)
    csq = [q for q, v in cvs.items() if v >= threshold]
    ciq = [q for q, v in cvs.items() if v < threshold]
    if not csq:  # degenerate: all queries identical sensitivity
        csq, ciq = list(cvs), []
    return QCSAResult(cvs, threshold, csq, ciq)


def qcsa(samples: pd.DataFrame) -> QCSAResult:
    """QCSA over a long-format (query, run, time) sample table."""
    return classify(compute_cvs(samples))


def qcsa_from_runs(runs: list[RunResult]) -> QCSAResult:
    """QCSA over the per-query times of the bootstrap BO executions."""
    rows = [
        {"query": q, "run": j, "time": t}
        for j, r in enumerate(runs)
        for q, t in r.times.items()
    ]
    return qcsa(pd.DataFrame(rows))
