"""Executor backed by the analytic cluster simulator.

This is the paper-scale substrate: TPC-DS at 100 GB–1 TB on the ARM or
x86 cluster, where one application run costs simulated minutes-to-hours
but real microseconds. All tuner comparisons (optimization time,
speedup) run against this executor so every algorithm faces the same
black box. :class:`SimulatedCluster` implements the executor protocol
itself; this module only picks the query profiles of a benchmark.
"""
from __future__ import annotations

from repro.cluster.hardware import ClusterSpec
from repro.cluster.profiles import PROFILE_SETS
from repro.cluster.simulator import SimulatedCluster

__all__ = ["make_executor"]


def make_executor(benchmark: str, spec: ClusterSpec, *, seed: int = 0) -> SimulatedCluster:
    """Executor for one of the paper's five benchmarks (Table 1)."""
    sets = PROFILE_SETS()
    if benchmark not in sets:
        raise KeyError(f"unknown benchmark {benchmark!r}; choose from {list(sets)}")
    return SimulatedCluster(spec, sets[benchmark], seed=seed)
