"""DAC (Yu et al., ASPLOS 2018) — structural reimplementation.

DAC builds *datasize-aware* performance models from a large set of
random-configuration runs — hierarchical ensembles of regression trees
over (configuration, data size) — and then searches the model with a
genetic algorithm, validating the top candidates on the real cluster.
Its weakness, per the LOCAT paper, is sample hunger: the model needs
hundreds of training runs, each a full application execution. Its
datasize-awareness means later sizes reuse the model and only add a
smaller batch of fresh samples.

The model's training set is the executor's own records of the
model-sampling runs (``_train``), taken from the run log; the GA
validation runs are charged but never train the model.
"""
from __future__ import annotations

import numpy as np

from repro.core.dagp import augment_with_ds
from repro.core.result import BaseTuner, TuneResult
from repro.execmodel.interface import Executor, RunResult
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
        self._train: list[RunResult] = []  # the model-sampling runs, from the log

    @property
    def n_train(self) -> int:
        return self.samples_per_dim * self.space.dim

    def _ga(self, model: GBRTRegressor, ds: float, rng) -> list[np.ndarray]:
        """Genetic search on the surrogate; returns top candidate vectors."""
        d = self.space.dim
        pop = rng.random((self.ga_pop, d))
        for _ in range(self.ga_gens):
            fit = model.predict(augment_with_ds(pop, ds))
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
        fit = model.predict(augment_with_ds(pop, ds))
        order = np.argsort(fit)
        return [pop[i] for i in order[: self.validate_top]]

    def _tune(self, executor: Executor, ds: float, rng) -> dict:
        # model bootstrap (full cost) or datasize-aware top-up
        need = self.n_train if not self._train else int(self.n_train * self.RETUNE_FRAC)
        start = len(executor.runs)
        for _ in range(need):
            self._run(executor, executor.sample_feasible(self.space, rng), ds)
        self._train += executor.runs[start:]
        k = len(executor.runs)
        X = augment_with_ds(self.space.matrix([r.conf for r in self._train]), [r.ds for r in self._train])
        y = np.array([r.total for r in self._train])
        model = GBRTRegressor(n_estimators=60, max_depth=4).fit(X, y)
        # GA search on the model, then validate candidates on the cluster
        for u in self._ga(model, ds, rng):
            self._run(executor, executor.repair(self.space.from_vector(u), self.space), ds)
        # DAC's protocol selects among the validated GA candidates; the
        # random training samples only feed the model.
        return min(executor.runs[k:], key=lambda r: r.total).conf

    def tune_multi(self, executor: Executor, ds_list: list[float]) -> dict[float, TuneResult]:
        """Datasize-aware: the model persists; later sizes only top up."""
        return {ds: self.tune(executor, ds) for ds in ds_list}
