"""Shared tuning-outcome record.

Every tuner in this reproduction — LOCAT and the four SOTA baselines —
returns a :class:`TuneResult` so the experiment harnesses can compare
them uniformly on the paper's two axes: the quality of the found
configuration (execution time → Figures 13/14 speedups) and the
optimization time spent finding it (→ Figures 11/12/20).

A campaign is its slice of the executor's run log, ``executor.runs``:
the result holds that slice, not a copy, and its run count and
optimization time are read from it. :func:`tune_result` is the one
place a result is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.execmodel.interface import Executor, RunResult

__all__ = ["TuneResult", "tune_result"]


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning campaign at one input data size."""

    tuner: str
    best_conf: dict
    best_time: float  # noise-free execution time of the tuned configuration
    runs: list[RunResult]  # the charged runs of this campaign, in order
    ds: float
    extras: dict = field(default_factory=dict)

    @property
    def n_runs(self) -> int:
        """Application executions performed."""
        return len(self.runs)

    @property
    def opt_seconds(self) -> float:
        """Charged cluster time spent optimizing: the total of the runs."""
        return sum((r.total for r in self.runs), 0.0)


def tune_result(
    tuner: str,
    executor: Executor,
    best_conf: dict,
    ds: float,
    n0: int,
    extras: dict | None = None,
) -> TuneResult:
    """The result of a campaign that started at run ``n0`` of the executor's
    log and has run to its end."""
    return TuneResult(
        tuner=tuner,
        best_conf=best_conf,
        best_time=executor.evaluate(best_conf, ds).total,
        runs=executor.runs[n0:],
        ds=ds,
        extras={} if extras is None else extras,
    )
