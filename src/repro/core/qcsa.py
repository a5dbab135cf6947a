"""Query Configuration Sensitivity Analysis (QCSA) — paper Section 3.2.

Over ``N_QCSA`` executions of the application under different random
configurations, each query's Coefficient of Variation (eq. 3,
population standard deviation over mean) measures how strongly its
latency responds to configuration changes. The CV range across queries
is split into three equal partitions (eq. 4); queries in the lowest
third are Configuration-Insensitive Queries (CIQ) and are removed,
leaving the Reduced Query Application (RQA) of Configuration-Sensitive
Queries (CSQ).

:func:`qcsa_from_runs` reads the executions straight from the
executor's run log: every run must time the same queries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.execmodel.interface import RunResult

__all__ = ["QCSAResult", "classify", "qcsa_from_runs"]

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


def qcsa_from_runs(runs: list[RunResult]) -> QCSAResult:
    """QCSA over the per-query times of the bootstrap BO executions."""
    queries = list(runs[0].times)
    T = np.array([[r.times[q] for q in queries] for r in runs])
    with np.errstate(invalid="ignore"):  # 0/0: a query timed 0 s in every run
        cv = T.std(axis=0) / T.mean(axis=0)
    cv[np.isnan(cv)] = 0.0
    return classify(dict(zip(queries, cv.tolist())))
