"""Tuneful (Fekry et al. 2020) — structural reimplementation.

Tuneful is an online significance-aware tuner: a One-At-a-Time (OAT)
sensitivity stage sweeps each parameter individually (holding the rest
at defaults) to find the significant subspace, then GP-based BO searches
that subspace. The paper's critique (Section 6.1) is precisely its cost
structure: "the number of iterations of OAT increases rapidly when the
number of configuration parameters increases" — with 38 parameters the
OAT stage alone costs ~3 full-application runs per parameter — and it is
not datasize-aware, so every new input size repeats the whole procedure.
"""
from __future__ import annotations

import numpy as np

from repro.core.bo import bo_minimize
from repro.core.result import BaseTuner
from repro.execmodel.interface import Executor

__all__ = ["Tuneful"]


class Tuneful(BaseTuner):
    name = "Tuneful"
    #: Share of the parameters OAT keeps as the significant subspace.
    KEEP_FRAC = 0.33

    def __init__(self, space, *, seed: int = 0, queries=None, oat_values: int = 3, bo_min_iters: int = 10, bo_max_iters: int = 30):
        super().__init__(space, seed=seed, queries=queries)
        self.oat_values = oat_values
        self.bo_min_iters = bo_min_iters
        self.bo_max_iters = bo_max_iters

    def _oat(self, executor: Executor, ds: float) -> list[str]:
        """One-at-a-time significance analysis: sweep each parameter over
        ``oat_values`` points, others at defaults; significance = relative
        spread of the observed execution times."""
        base = self.space.default_conf()
        significance: dict[str, float] = {}
        for p in self.space.params:
            times = []
            if p.kind == "bool":
                values = [False, True][: self.oat_values]
            else:
                values = [p.denormalize(u) for u in np.linspace(0.0, 1.0, self.oat_values)]
            for v in values:
                conf = dict(base)
                conf[p.name] = v
                conf = executor.repair(conf, self.space)
                times.append(self._run(executor, conf, ds))
            times = np.array(times)
            significance[p.name] = float(np.ptp(times) / times.mean())
        k = max(3, int(round(self.KEEP_FRAC * self.space.dim)))
        ranked = sorted(significance, key=lambda n: -significance[n])
        return ranked[:k]

    def _tune(self, executor: Executor, ds: float, rng) -> dict:
        kept = self._oat(executor, ds)
        k = len(executor.runs)
        sub = self.space.subspace(kept)
        base = self.space.default_conf()

        def f(u: np.ndarray) -> float:
            conf = dict(base)
            conf.update(sub.from_vector(u))
            conf = executor.repair(conf, self.space)
            return self._run(executor, conf, ds)

        bo_minimize(
            f,
            np.zeros(sub.dim),
            np.ones(sub.dim),
            rng,
            min_iters=self.bo_min_iters,
            max_iters=self.bo_max_iters,
        )
        # the best BO run; the OAT sweeps only rank the parameters
        return min(executor.runs[k:], key=lambda r: r.total).conf
