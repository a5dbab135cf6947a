"""DAC (Yu et al., ASPLOS 2018) — structural reimplementation.

DAC builds *datasize-aware* performance models from a large set of
random-configuration runs — hierarchical ensembles of regression trees
over (configuration, data size) — and then searches the model with a
genetic algorithm, validating the top candidates on the real cluster.
Its weakness, per the LOCAT paper, is sample hunger: the model needs
hundreds of training runs, each a full application execution. Its
datasize-awareness means later sizes reuse the model and only add a
smaller batch of fresh samples.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.common import BaseTuner
from repro.core.dagp import ds_normalize
from repro.core.result import TuneResult, tune_result
from repro.execmodel.interface import Executor
from repro.mlmodels import GBRTRegressor

__all__ = ["DAC"]


class DAC(BaseTuner):
    name = "DAC"
    #: A later data size tops the model up with this share of ``n_train``.
    RETUNE_FRAC = 0.35

    def __init__(
        self,
        space,
        *,
        seed: int = 0,
        queries=None,
        samples_per_dim: int = 9,
        ga_pop: int = 40,
        ga_gens: int = 25,
        validate_top: int = 5,
    ):
        super().__init__(space, seed=seed, queries=queries)
        self.samples_per_dim = samples_per_dim
        self.ga_pop = ga_pop
        self.ga_gens = ga_gens
        self.validate_top = validate_top
        self._X: list[np.ndarray] = []  # (normalized conf, ds) training rows
        self._y: list[float] = []

    @property
    def n_train(self) -> int:
        return self.samples_per_dim * self.space.dim

    def _collect(self, executor: Executor, ds: float, n: int, rng) -> None:
        for _ in range(n):
            conf = executor.sample_feasible(self.space, rng)
            t = self._run(executor, conf, ds)
            self._X.append(np.concatenate([self.space.to_vector(conf), [ds_normalize(ds)]]))
            self._y.append(t)

    def _ga(self, model: GBRTRegressor, ds: float, rng) -> list[np.ndarray]:
        """Genetic search on the surrogate; returns top candidate vectors."""
        d = self.space.dim
        pop = rng.random((self.ga_pop, d))
        ds_col = np.full((self.ga_pop, 1), ds_normalize(ds))
        for _ in range(self.ga_gens):
            fit = model.predict(np.hstack([pop, ds_col]))
            order = np.argsort(fit)
            elite = pop[order[: self.ga_pop // 4]]
            children = []
            while len(children) < self.ga_pop - len(elite):
                a, b = elite[rng.integers(len(elite))], elite[rng.integers(len(elite))]
                mask = rng.random(d) < 0.5
                child = np.where(mask, a, b)
                mut = rng.random(d) < 0.1
                child = np.where(mut, rng.random(d), child)
                children.append(child)
            pop = np.vstack([elite, children])
        fit = model.predict(np.hstack([pop, ds_col]))
        order = np.argsort(fit)
        return [pop[i] for i in order[: self.validate_top]]

    def tune(self, executor: Executor, ds: float) -> TuneResult:
        rng = np.random.default_rng(self.seed)
        t0 = executor.charged_seconds
        n0 = executor.n_runs
        # model bootstrap (full cost) or datasize-aware top-up
        need = self.n_train if not self._X else int(self.n_train * self.RETUNE_FRAC)
        self._collect(executor, ds, need, rng)
        k = executor.n_runs
        model = GBRTRegressor(n_estimators=60, max_depth=4).fit(np.vstack(self._X), np.array(self._y))
        # GA search on the model, then validate candidates on the cluster
        for u in self._ga(model, ds, rng):
            conf = executor.repair(self.space.from_vector(np.clip(u, 0.0, 1.0)), self.space)
            self._run(executor, conf, ds)
        # DAC's protocol selects among the validated GA candidates; the
        # random training samples only feed the model.
        best_conf = min(executor.runs[k:], key=lambda r: r.total).conf
        return tune_result(self.name, executor, best_conf, ds, n0, t0)

    def tune_multi(self, executor: Executor, ds_list: list[float]) -> dict[float, TuneResult]:
        """Datasize-aware: the model persists; later sizes only top up."""
        return {ds: self.tune(executor, ds) for ds in ds_list}
