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

from repro.core.iicp import cps
from repro.core.qcsa import qcsa_from_runs
from repro.experiments.common import EXEC_SEED, SOTA, cluster_for, make_tuner, space_for
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

_VARIANTS = ("APT", "IICP", "QCSA", "QIT")


def _graft_run(tuner_name: str, variant: str, cluster: str, ds: float, seed: int) -> tuple[float, float]:
    """The noise-free full-application time of the tuned configuration and
    the charged seconds, including the shared bootstrap."""
    space = space_for(cluster)
    ex = make_executor("TPC-DS", cluster_for(cluster), seed=EXEC_SEED)
    use_qcsa = variant in ("QCSA", "QIT")
    use_iicp = variant in ("IICP", "QIT")
    if tuner_name == "DAGP":
        res = make_tuner("LOCAT", space, seed, use_qcsa=use_qcsa, use_iicp=use_iicp).tune(ex, ds)
        return res.best_time, res.opt_seconds
    queries = None
    sub = space
    if use_qcsa or use_iicp:
        # shared bootstrap: 30 charged full-application runs
        rng = np.random.default_rng(seed)
        confs = [ex.sample_feasible(space, rng) for _ in range(30)]
        runs = [ex.run(c, ds) for c in confs]
        if use_qcsa:
            queries = qcsa_from_runs(runs).rqa
        if use_iicp:
            totals = np.array([r.total for r in runs[:20]])
            sub = space.subspace(cps(confs[:20], totals, space).kept)
    tuner = make_tuner(tuner_name, sub, seed, queries=queries)
    res = tuner.tune(ex, ds)
    # score the final configuration on the FULL application
    return ex.evaluate(space.complete(res.best_conf), ds).total, ex.charged_seconds


def run(*, cluster: str = "arm", ds: float = 500.0, seed: int = 5, tuners=("DAGP",) + SOTA, variants=_VARIANTS) -> pd.DataFrame:
    rows = []
    for tuner_name in tuners:
        base = None
        for variant in variants:
            tuned_s, opt_s = _graft_run(tuner_name, variant, cluster, ds, seed)
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
