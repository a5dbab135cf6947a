"""QTune (Li et al., VLDB 2019) — structural reimplementation.

QTune is a query-aware database tuner built on deep reinforcement
learning: queries are featurized, and an actor-critic agent maps query
features to configuration actions, trained by running the workload under
each proposed configuration. The LOCAT paper's critique (Section 6.2):
DRL is "too time-consuming to be applied in practice" — it needs by far
the most environment interactions of the compared approaches and is
re-trained per data size.

We reproduce that structure at matching scale: a query-featurized linear
Gaussian policy trained with REINFORCE, where every episode is a charged
application run.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.common import BaseTuner
from repro.core.result import TuneResult, tune_result
from repro.execmodel.interface import Executor

__all__ = ["QTune"]


class QTune(BaseTuner):
    name = "QTune"
    #: REINFORCE learning rate and the policy's initial exploration noise.
    LR = 0.15
    SIGMA0 = 0.25

    def __init__(self, space, *, seed: int = 0, queries=None, episodes: int = 600):
        super().__init__(space, seed=seed, queries=queries)
        self.episodes = episodes

    @staticmethod
    def _featurize(executor: Executor, queries) -> np.ndarray:
        """Query-mix features: fraction of selection/join/aggregation
        queries plus workload size — QTune's query-aware state vector."""
        names = queries if queries is not None else executor.query_names
        cats = {"selection": 0, "join": 0, "aggregation": 0}
        categories = executor.query_categories
        for q in names:
            cats[categories[q]] += 1
        n = max(1, len(names))
        return np.array([cats["selection"] / n, cats["join"] / n, cats["aggregation"] / n, min(n / 100.0, 1.0), 1.0])

    def tune(self, executor: Executor, ds: float) -> TuneResult:
        rng = np.random.default_rng(self.seed)
        t0 = executor.charged_seconds
        n0 = executor.n_runs
        d = self.space.dim
        feat = self._featurize(executor, self.queries)
        W = rng.standard_normal((d, len(feat))) * 0.05  # policy weights
        sigma = self.SIGMA0
        baseline = None
        for ep in range(self.episodes):
            mean = 1.0 / (1.0 + np.exp(-(W @ feat)))  # action mean in (0,1)
            action = np.clip(mean + sigma * rng.standard_normal(d), 0.0, 1.0)
            conf = executor.repair(self.space.from_vector(action), self.space)
            reward = -self._run(executor, conf, ds)
            baseline = reward if baseline is None else 0.95 * baseline + 0.05 * reward
            adv = (reward - baseline) / (abs(baseline) + 1e-9)
            # REINFORCE on the squashed-Gaussian policy
            grad_mean = (action - mean) / (sigma**2) * mean * (1 - mean)
            W += self.LR * adv * np.outer(grad_mean, feat)
            sigma = max(0.05, sigma * 0.995)  # anneal exploration
        # QTune deploys the trained policy: the recommendation is the
        # policy mean action, not the luckiest episode.
        mean = 1.0 / (1.0 + np.exp(-(W @ feat)))
        best_conf = executor.repair(self.space.from_vector(mean), self.space)
        self._run(executor, best_conf, ds)  # charged deployment check
        return tune_result(self.name, executor, best_conf, ds, n0, t0)
