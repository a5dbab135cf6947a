"""The tuning campaign and its outcome record.

Every tuner in this reproduction — LOCAT and the four SOTA baselines — is
a :class:`BaseTuner` and returns a :class:`TuneResult`, so the experiment
harnesses compare them uniformly on the paper's two axes: the quality of
the found configuration (execution time → Figures 13/14 speedups) and the
optimization time spent finding it (→ Figures 11/12/20). ``tune`` runs one
campaign: it seeds a generator, calls the subclass's
``_tune(executor, ds, rng)`` for a recommended configuration, and returns
the campaign as a :class:`TuneResult`; ``tune_multi`` runs one campaign per
data size.

A campaign is its slice of the executor's run log, ``executor.runs``:
the result holds that slice, not a copy, and its run count and
optimization time are read from it. :meth:`BaseTuner.tune` is the one
place a campaign is opened, and a result built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.configspace import ConfigSpace
from repro.execmodel.interface import Executor, RunResult

__all__ = ["BaseTuner", "TuneResult"]


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning campaign at one input data size."""

    tuner: str
    best_conf: dict
    best_time: float  # noise-free execution time of the tuned configuration
    runs: list[RunResult]  # the charged runs of this campaign, in order
    ds: float

    @property
    def n_runs(self) -> int:
        """Application executions performed."""
        return len(self.runs)

    @property
    def opt_seconds(self) -> float:
        """Charged cluster time spent optimizing: the total of the runs."""
        return sum((r.total for r in self.runs), 0.0)


class BaseTuner:
    """A tuner over a :class:`ConfigSpace`; subclasses implement ``_tune``.

    A tuner that carries state across sizes (LOCAT's DAGP samples, DAC's
    model) keeps it on itself, so one instance serves one executor's
    campaigns. ``queries``/``space`` overrides implement Figure 21's
    grafting of QCSA (run only the RQA) and IICP (tune only the important
    parameters) onto the SOTA approaches.
    """

    name = "base"

    def __init__(self, space: ConfigSpace, *, seed: int = 0, queries: list[str] | None = None):
        self.space = space
        self.seed = seed
        self.queries = queries  # None = full application; else the RQA

    # -- helpers ---------------------------------------------------------
    def _run(self, executor: Executor, conf: dict, ds: float) -> float:
        return executor.run(conf, ds, self.queries).total

    # -- API -------------------------------------------------------------
    def _tune(self, executor: Executor, ds: float, rng: np.random.Generator) -> dict:  # pragma: no cover
        """Run the tuner's algorithm at size ``ds``; return its recommendation."""
        raise NotImplementedError

    def tune(self, executor: Executor, ds: float) -> TuneResult:
        """One campaign: the runs ``_tune`` charges and its recommendation."""
        n0 = len(executor.runs)
        best_conf = self._tune(executor, ds, np.random.default_rng(self.seed))
        return TuneResult(
            tuner=self.name,
            best_conf=best_conf,
            best_time=executor.evaluate(best_conf, ds).total,
            runs=executor.runs[n0:],
            ds=ds,
        )

    def tune_multi(self, executor: Executor, ds_list: list[float]) -> dict[float, TuneResult]:
        """One campaign per size, in order.

        Before the ``i``-th size the tuner's seed grows by ``i``, so a
        tuner built with seed ``s`` tunes three sizes with seeds ``s``,
        ``s + 1`` and ``s + 3``, and keeps the last seed afterwards."""
        out = {}
        for i, ds in enumerate(ds_list):
            self.seed += i  # fresh randomness per campaign
            out[ds] = self.tune(executor, ds)
        return out
