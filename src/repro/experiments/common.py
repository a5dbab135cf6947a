"""Shared helpers for the experiment harnesses.

Every experiment module exposes ``run(...) -> pandas.DataFrame`` whose
rows mirror the corresponding paper table/figure, plus a ``PAPER``
constant holding the numbers the paper reports, so EXPERIMENTS.md can
diff them side by side. Each harness fixes its artefact's protocol; the
constants below are the values several harnesses share. Only the
Figures 11-14 harnesses take a ``cluster``: everything else runs on the
four-node ARM simulated cluster, the paper's primary platform.
"""
from __future__ import annotations

import functools

import numpy as np

from repro.baselines import DAC, GBORL, QTune, Tuneful
from repro.cluster.hardware import ARM_CLUSTER, X86_CLUSTER, ClusterSpec
from repro.core.configspace import ConfigSpace, arm_space, x86_space
from repro.core.locat import Locat
from repro.execmodel.sim_exec import make_executor

__all__ = [
    "BENCHMARKS",
    "CAMPAIGN_SEED",
    "DATA_SIZES_GB",
    "EXEC_SEED",
    "SAMPLE_DS_GB",
    "SAMPLE_SEED",
    "SAMPLE_SWEEP",
    "SOTA",
    "SPEEDUP_SIZES_GB",
    "cluster_for",
    "space_for",
    "make_tuner",
    "random_runs",
    "run_campaign",
]

#: Table 1's five benchmarks and data sizes.
BENCHMARKS = ("TPC-DS", "TPC-H", "Join", "Scan", "Aggregation")
DATA_SIZES_GB = (100.0, 200.0, 300.0, 400.0, 500.0)
SOTA = ("Tuneful", "DAC", "GBO-RL", "QTune")
#: The sizes that Figures 13/14 and 18/19 tune across, one campaign each.
SPEEDUP_SIZES_GB = (100.0, 300.0, 500.0)
#: Simulator noise seed of every tuning campaign.
EXEC_SEED = 3
#: Tuner seed of every tuning campaign.
CAMPAIGN_SEED = 5
#: Data size of the random sample sets (Figures 6-10, 16 and 17).
SAMPLE_DS_GB = 100.0
#: Configuration-stream seed of those sets and of Table 3's.
SAMPLE_SEED = 7
#: The sample counts Figures 7 and 9 sweep: 5, 10, ..., 50.
SAMPLE_SWEEP = range(5, 51, 5)


def cluster_for(name: str) -> ClusterSpec:
    return {"arm": ARM_CLUSTER, "x86": X86_CLUSTER}[name]


def space_for(name: str) -> ConfigSpace:
    return {"arm": arm_space(), "x86": x86_space()}[name]


def make_tuner(name: str, space: ConfigSpace, seed: int, **kw):
    """Instantiate a tuner by its paper name."""
    cls = {cls.name: cls for cls in (Locat, Tuneful, DAC, GBORL, QTune)}[name]
    return cls(space, seed=seed, **kw)


def random_runs(benchmark: str, n: int):
    """``n`` charged runs of random feasible configurations of ``benchmark``
    at ``SAMPLE_DS_GB`` on the ARM cluster: the sample set every
    sensitivity figure starts from. Returns ``(executor, rng, runs)``; the
    generator continues the stream the configurations were drawn from.

    ``run`` never draws from the generator and ``sample_feasible`` never
    reads the run counter, so ``runs[:k]`` is exactly the set
    ``random_runs(benchmark, k)`` builds.
    """
    space = space_for("arm")
    ex = make_executor(benchmark, ARM_CLUSTER, seed=1)
    rng = np.random.default_rng(SAMPLE_SEED)
    runs = [ex.run(ex.sample_feasible(space, rng), SAMPLE_DS_GB) for _ in range(n)]
    return ex, rng, runs


def run_campaign(tuner_name: str, benchmark: str, cluster: str, ds, **tuner_kw):
    """One tuning campaign; returns ``(result, executor)``, where the result
    is a TuneResult (single ds) or a dict of them (a list of sizes).

    Campaigns are deterministic, so each one runs once per process: a
    repeated call returns the same objects, which callers must not mutate.
    """
    key_ds = tuple(ds) if isinstance(ds, list) else ds
    return _run_campaign(tuner_name, benchmark, cluster, key_ds, tuple(sorted(tuner_kw.items())))


@functools.cache
def _run_campaign(tuner_name: str, benchmark: str, cluster: str, ds, tuner_kw: tuple):
    space = space_for(cluster)
    ex = make_executor(benchmark, cluster_for(cluster), seed=EXEC_SEED)
    tuner = make_tuner(tuner_name, space, CAMPAIGN_SEED, **dict(tuner_kw))
    if isinstance(ds, tuple):
        return tuner.tune_multi(ex, list(ds)), ex
    return tuner.tune(ex, float(ds)), ex
