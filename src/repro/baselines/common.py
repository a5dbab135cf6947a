"""Shared machinery for the four SOTA baseline tuners.

The paper compares LOCAT against Tuneful, DAC, GBO-RL and QTune. The
comparisons hinge on each baseline's *sample economics* — how many
full-application cluster runs its algorithm needs — and on its search
structure (which dimensions it tunes, whether it adapts to data size).
Every baseline here implements :class:`BaseTuner`:

* ``tune(executor, ds)`` — one tuning campaign; charged runs make up the
  optimization time of Figures 11/12.
* ``tune_multi(executor, ds_list)`` — default behaviour re-tunes from
  scratch per data size (none of the baselines' published algorithms is
  datasize-aware in the DAGP sense; DAC overrides this with partial
  sample reuse, matching its datasize-aware design).

``queries``/``space`` overrides implement Figure 21's grafting of QCSA
(run only the RQA) and IICP (tune only the important parameters) onto
the SOTA approaches.
"""
from __future__ import annotations

from repro.core.configspace import ConfigSpace
from repro.core.result import TuneResult
from repro.execmodel.interface import Executor

__all__ = ["BaseTuner"]


class BaseTuner:
    """Common scaffolding: charged runs, multi-size."""

    name = "base"

    def __init__(self, space: ConfigSpace, *, seed: int = 0, queries: list[str] | None = None):
        self.space = space
        self.seed = seed
        self.queries = queries  # None = full application; else the RQA

    # -- helpers ---------------------------------------------------------
    def _run(self, executor: Executor, conf: dict, ds: float) -> float:
        return executor.run(conf, ds, self.queries).total

    # -- API -------------------------------------------------------------
    def tune(self, executor: Executor, ds: float) -> TuneResult:  # pragma: no cover
        raise NotImplementedError

    def tune_multi(self, executor: Executor, ds_list: list[float]) -> dict[float, TuneResult]:
        """Default: no datasize adaptation — full re-tune per size.

        Before the ``i``-th size the tuner's seed grows by ``i``, so a
        tuner built with seed ``s`` tunes three sizes with seeds ``s``,
        ``s + 1`` and ``s + 3``, and keeps the last seed afterwards."""
        out = {}
        for i, ds in enumerate(ds_list):
            self.seed += i  # fresh randomness per campaign
            out[ds] = self.tune(executor, ds)
        return out
