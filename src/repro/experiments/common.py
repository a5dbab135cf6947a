"""Shared helpers for the experiment harnesses.

Every experiment module exposes ``run(...) -> pandas.DataFrame`` whose
rows mirror the corresponding paper table/figure, plus a ``PAPER``
constant holding the numbers the paper reports, so EXPERIMENTS.md can
diff them side by side. The harnesses default to the four-node ARM
simulated cluster (the paper's primary platform) at 300 GB (the
Figures 11/12 setting).
"""
from __future__ import annotations

import functools

from repro.baselines import DAC, GBORL, QTune, Tuneful
from repro.cluster.hardware import ARM_CLUSTER, X86_CLUSTER, ClusterSpec
from repro.core.configspace import ConfigSpace, arm_space, x86_space
from repro.core.locat import Locat
from repro.execmodel.sim_exec import make_executor

__all__ = [
    "BENCHMARKS",
    "DATA_SIZES_GB",
    "EXEC_SEED",
    "SOTA",
    "cluster_for",
    "space_for",
    "make_tuner",
    "run_campaign",
]

#: Table 1's five benchmarks and data sizes.
BENCHMARKS = ("TPC-DS", "TPC-H", "Join", "Scan", "Aggregation")
DATA_SIZES_GB = (100.0, 200.0, 300.0, 400.0, 500.0)
SOTA = ("Tuneful", "DAC", "GBO-RL", "QTune")
#: Simulator noise seed of every tuning campaign.
EXEC_SEED = 3


def cluster_for(name: str) -> ClusterSpec:
    return {"arm": ARM_CLUSTER, "x86": X86_CLUSTER}[name]


def space_for(name: str) -> ConfigSpace:
    return {"arm": arm_space(), "x86": x86_space()}[name]


def make_tuner(name: str, space: ConfigSpace, seed: int, **kw):
    """Instantiate a tuner by its paper name."""
    cls = {
        "LOCAT": Locat,
        "Tuneful": Tuneful,
        "DAC": DAC,
        "GBO-RL": GBORL,
        "QTune": QTune,
    }[name]
    return cls(space, seed=seed, **kw)


def run_campaign(
    tuner_name: str,
    benchmark: str,
    cluster: str,
    ds,
    *,
    seed: int = 5,
    **tuner_kw,
):
    """One tuning campaign; returns ``(result, executor)``, where the result
    is a TuneResult (single ds) or a dict of them (a list of sizes).

    Campaigns are deterministic, so each one runs once per process: a
    repeated call returns the same objects, which callers must not mutate.
    """
    key_ds = tuple(ds) if isinstance(ds, list) else ds
    return _run_campaign(tuner_name, benchmark, cluster, key_ds, seed, tuple(sorted(tuner_kw.items())))


@functools.cache
def _run_campaign(tuner_name: str, benchmark: str, cluster: str, ds, seed: int, tuner_kw: tuple):
    space = space_for(cluster)
    ex = make_executor(benchmark, cluster_for(cluster), seed=EXEC_SEED)
    tuner = make_tuner(tuner_name, space, seed, **dict(tuner_kw))
    if isinstance(ds, tuple):
        return tuner.tune_multi(ex, list(ds)), ex
    return tuner.tune(ex, float(ds)), ex
