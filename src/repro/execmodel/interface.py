"""Executor abstraction: what every tuner (LOCAT and the four SOTA
baselines) sees of "the cluster".

The paper's tuners are black-box optimizers: they submit a configuration,
the application runs, and per-query execution times come back. ``run``
charges the execution to the executor's optimization-time meter (the
quantity Figures 11/12/20 compare) and appends its :class:`RunResult` to
``runs``, the executor's log of charged runs; ``evaluate`` prices a
configuration without charging or logging (used for the final speedup
measurements of Figures 13/14, which the paper performs after tuning
finishes).

Both substrates implement :class:`Executor` directly: the analytic
:class:`~repro.cluster.simulator.SimulatedCluster` and the live
:class:`~repro.execmodel.spark_exec.SparkSQLExecutor`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

__all__ = ["RunResult", "Executor"]


@dataclass
class RunResult:
    """One application execution observed by a tuner."""

    times: dict[str, float]  # per-query seconds
    conf: dict
    ds: float  # input data size (GB for the simulator, SF for live Spark)
    gc_times: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return float(sum(self.times.values()))

    @property
    def gc_total(self) -> float:
        return float(sum(self.gc_times.values()))


@runtime_checkable
class Executor(Protocol):
    """The black-box cluster interface tuners optimize against."""

    @property
    def query_names(self) -> list[str]:
        """All query names of the application, in execution order."""
        ...

    def run(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """Execute (a subset of) the application; charge its time and log the run."""
        ...

    def evaluate(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """Expected execution time without charging the tuning meter."""
        ...

    @property
    def query_categories(self) -> dict[str, str]:
        """Query name -> 'selection', 'join' or 'aggregation'."""
        ...

    @property
    def charged_seconds(self) -> float:
        """Accumulated optimization time so far."""
        ...

    @property
    def runs(self) -> list[RunResult]:
        """Every charged run so far, in order."""
        ...

    @property
    def n_runs(self) -> int:
        """Number of charged runs so far: ``len(runs)``."""
        ...

    def sample_feasible(self, space, rng) -> dict:
        """Random configuration over ``space`` that the executor can run."""
        ...

    def repair(self, conf: dict, space, rng=None) -> dict:
        """``conf`` made runnable; re-draws repaired values when ``rng`` is given."""
        ...
