"""GBO-RL (Kunjir & Babu, SIGMOD 2020) — structural reimplementation.

"Guided Bayesian Optimization with Reinforcement Learning": GP-based BO
over the full configuration space, warm-started by an analytical model
of Spark's memory management (its "white-box" guide), with an RL-style
controller choosing among tuning actions. The LOCAT paper's critique:
the analytical guide covers only memory, and the procedure still needs
on the order of a hundred full-application runs and re-tunes per data
size. We reproduce that structure: memory-model-guided warm-start
samples, then long-horizon BO over all 38 dimensions.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.common import BaseTuner
from repro.core.bo import bo_minimize
from repro.core.result import TuneResult, tune_result
from repro.execmodel.interface import Executor

__all__ = ["GBORL"]


class GBORL(BaseTuner):
    name = "GBO-RL"
    #: BO stop rule: EI below 1% of the incumbent (LOCAT stops at 10%).
    EI_FRAC = 0.01

    def __init__(self, space, *, seed: int = 0, queries=None, n_warm: int = 8, min_iters: int = 170, max_iters: int = 210):
        super().__init__(space, seed=seed, queries=queries)
        self.n_warm = n_warm
        self.min_iters = min_iters
        self.max_iters = max_iters

    def _memory_guided(self, rng) -> dict:
        """Warm-start configuration from the memory analytical model:
        generous heap, high memory fraction, off-heap enabled — the
        memory-centric prior GBO-RL's white-box model encodes. Non-memory
        parameters stay random (the model says nothing about them)."""
        conf = self.space.sample_random(rng)
        for name, u in (
            ("spark.executor.memory", 0.7 + 0.3 * rng.random()),
            ("spark.executor.memoryOverhead", 0.2 + 0.3 * rng.random()),
            ("spark.memory.fraction", 0.5 + 0.5 * rng.random()),
            ("spark.memory.offHeap.size", 0.3 + 0.5 * rng.random()),
        ):
            if name in self.space:  # absent when tuning an IICP subspace
                conf[name] = self.space[name].denormalize(u)
        if "spark.memory.offHeap.enabled" in self.space:
            conf["spark.memory.offHeap.enabled"] = True
        return conf

    def tune(self, executor: Executor, ds: float) -> TuneResult:
        rng = np.random.default_rng(self.seed)
        t0 = executor.charged_seconds
        n0 = executor.n_runs

        warm_X, warm_y = [], []
        for _ in range(self.n_warm):
            conf = executor.repair(self._memory_guided(rng), self.space)
            warm_X.append(self.space.to_vector(conf))
            warm_y.append(self._run(executor, conf, ds))

        def f(u: np.ndarray) -> float:
            conf = executor.repair(self.space.from_vector(np.clip(u, 0.0, 1.0)), self.space)
            return self._run(executor, conf, ds)

        bo_minimize(
            f,
            np.zeros(self.space.dim),
            np.ones(self.space.dim),
            rng,
            min_iters=self.min_iters,
            max_iters=self.max_iters,
            ei_frac=self.EI_FRAC,
            init_X=np.vstack(warm_X),
            init_y=np.array(warm_y),
            local_refine=False,
        )
        best_conf = min(executor.runs[n0:], key=lambda r: r.total).conf
        return tune_result(self.name, executor, best_conf, ds, n0, t0)
