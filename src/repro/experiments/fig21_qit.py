"""Figure 21 — grafting QCSA and IICP onto the SOTA approaches.

TPC-DS at 500 GB. Every approach (DAGP-BO and the four SOTA tuners) runs
in four variants:

* **APT** — all-parameter tuning of the full application (the baseline);
* **IICP** — tune only the CPS-selected important parameters;
* **QCSA** — execute only the RQA during tuning;
* **QIT** — both.

Grafted variants first pay the shared 30-run sample-collection cost
(full application, random feasible configurations) from which QCSA/IICP
are computed, exactly as LOCAT amortizes its bootstrap. Reported: final
tuned execution time (full application, noise-free) and total
optimization overhead. Paper averages: IICP 1.7x faster execution /
1.2x less overhead; QCSA 1.3x / 4.2x; QIT 2.6x / 6.8x.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.iicp import N_IICP, cps
from repro.core.qcsa import N_QCSA, qcsa_from_runs
from repro.experiments.common import CAMPAIGN_SEED, EXEC_SEED, SOTA, cluster_for, make_tuner, run_campaign, space_for
from repro.execmodel.sim_exec import make_executor

__all__ = ["PAPER", "run"]

PAPER = {
    "ds_gb": 500,
    "iicp_perf_x": 1.7,
    "iicp_overhead_x": 1.2,
    "qcsa_perf_x": 1.3,
    "qcsa_overhead_x": 4.2,
    "qit_perf_x": 2.6,
    "qit_overhead_x": 6.8,
}

_DS_GB = 500.0
_TUNERS = ("DAGP",) + SOTA
_VARIANTS = ("APT", "IICP", "QCSA", "QIT")


def _graft_run(tuner_name: str, variant: str) -> tuple[float, float]:
    """The noise-free full-application time of the tuned configuration and
    the charged seconds, including the shared bootstrap."""
    use_qcsa = variant in ("QCSA", "QIT")
    use_iicp = variant in ("IICP", "QIT")
    if tuner_name == "DAGP":
        # only the reductions the variant turns off, so QIT and QCSA are
        # Figure 15's IP and AP campaigns
        off = {k: False for k, on in (("use_qcsa", use_qcsa), ("use_iicp", use_iicp)) if not on}
        res, _ = run_campaign("LOCAT", "TPC-DS", "arm", _DS_GB, **off)
        return res.best_time, res.opt_seconds
    space = space_for("arm")
    ex = make_executor("TPC-DS", cluster_for("arm"), seed=EXEC_SEED)
    queries = None
    sub = space
    if use_qcsa or use_iicp:
        # shared bootstrap: N_QCSA charged full-application runs
        rng = np.random.default_rng(CAMPAIGN_SEED)
        runs = [ex.run(ex.sample_feasible(space, rng), _DS_GB) for _ in range(N_QCSA)]
        if use_qcsa:
            queries = qcsa_from_runs(runs).rqa
        if use_iicp:
            sub = space.subspace(cps(runs[:N_IICP], space).kept)
    tuner = make_tuner(tuner_name, sub, CAMPAIGN_SEED, queries=queries)
    res = tuner.tune(ex, _DS_GB)
    # score the final configuration on the FULL application
    return ex.evaluate(space.complete(res.best_conf), _DS_GB).total, ex.charged_seconds


def run() -> pd.DataFrame:
    rows = []
    for tuner_name in _TUNERS:
        base = None
        for variant in _VARIANTS:
            tuned_s, opt_s = _graft_run(tuner_name, variant)
            if variant == "APT":
                base = (tuned_s, opt_s)
            rows.append(
                {
                    "tuner": tuner_name,
                    "variant": variant,
                    "tuned_time_s": tuned_s,
                    "opt_h": opt_s / 3600.0,
                    "perf_vs_apt_x": base[0] / tuned_s if base else 1.0,
                    "overhead_vs_apt_x": base[1] / opt_s if base else 1.0,
                }
            )
    return pd.DataFrame(rows)
