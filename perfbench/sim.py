"""The two simulated-cluster workloads: LOCAT online tuning and the baselines.

Both run whole tuning campaigns against the analytic ARM cluster with the
TPC-DS profiles. The campaign set of a workload is fixed (tuner seeds and
simulator noise seeds are constants), so every pass does the same work and
the paper's metrics (charged optimization hours, tuned/default time) are
exact for the set. The benchmark seed chooses the order in which a pass
runs the campaigns.

Every executor is wrapped in a :class:`TimedExecutor`, which records when
each charged run starts and ends: the gap between one run returning and the
next starting is the tuner's think time, the time a real cluster would sit
idle while the tuner decides. Pass and think times are reported at
reference host speed, from the probes of ``speed.py``.
"""
from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import DAC, GBORL, QTune, Tuneful
from repro.cluster.hardware import ARM_CLUSTER
from repro.core.configspace import ConfigSpace, arm_space
from repro.core.locat import Locat
from repro.execmodel.sim_exec import make_executor
from speed import SpeedProbe

__all__ = ["SimWorkload", "TimedExecutor", "check_result"]

#: LOCAT's online campaign: one campaign per tuner seed, over growing sizes.
LOCAT_SEEDS = (1, 2, 3)
DS_LIST = (100.0, 200.0, 300.0, 400.0, 500.0)
#: The baselines run one campaign each at this size (the Figs 11/12 setting).
BASELINE_DS = 300.0
BASELINE_SEED = 1


def _exec_seed(tuner_seed: int) -> int:
    return 100 + tuner_seed


class TimedExecutor:
    """Forwards everything to a simulated executor; times each charged run.

    A speed probe, when given, may run after a charged run, inside that
    run's span, so think times never include probe time.
    """

    def __init__(self, inner, probe: SpeedProbe | None = None):
        self._inner = inner
        self._probe = probe
        self.spans: list[tuple[float, float, float]] = []  # (start, end, ds)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run(self, conf, ds, queries=None):
        t0 = time.perf_counter()
        r = self._inner.run(conf, ds, queries)
        if self._probe is not None:
            self._probe.maybe()
        self.spans.append((t0, time.perf_counter(), float(ds)))
        return r

    def think_ms(self) -> list[float]:
        return [1e3 * (b[0] - a[1]) for a, b in zip(self.spans, self.spans[1:])]


#: Parameters the simulator's feasibility repair sets (DESIGN.md section 5,
#: "feasibility by repair"): it may take them below their Table 2 range to
#: fit the cluster, so a feasible value outside the range is a finding.
REPAIRED = ("spark.executor.instances", "spark.executor.memoryOverhead", "spark.memory.offHeap.size")


def _out_of_bounds(space: ConfigSpace, conf: dict) -> list[str]:
    bad = []
    for p in space.params:
        v = conf[p.name]
        if p.kind == "bool":
            ok = isinstance(v, (bool, np.bool_))
        else:
            ok = p.lo <= float(v) <= p.hi and (p.kind != "int" or float(v).is_integer())
        if not ok:
            bad.append(p.name)
    return bad


def check_result(space: ConfigSpace, ex: TimedExecutor, res) -> tuple[list[str], list[str]]:
    """(problems, findings) of one recommendation.

    Problems are failures: incomplete, out of bounds, infeasible, or a run
    count that disagrees with the executor. Findings are feasible values
    that the feasibility repair left outside their Table 2 range.
    """
    problems, findings = [], []
    conf = res.best_conf
    missing = [n for n in space.names if n not in conf]
    if missing:
        problems.append(f"incomplete: missing {missing}")
    else:
        feasible = ex.is_feasible(conf)
        for name in _out_of_bounds(space, conf):
            v = conf[name]
            if feasible and name in REPAIRED and float(v).is_integer() and v >= 0:
                findings.append(f"repair left {name}={v!r} outside [{space[name].lo:g}, {space[name].hi:g}]")
            else:
                problems.append(f"out of bounds: {name}={v!r}")
        if not feasible:
            problems.append("infeasible")
    runs_at_ds = sum(1 for s in ex.spans if s[2] == float(res.ds))
    if res.n_runs != runs_at_ds:
        problems.append(f"n_runs {res.n_runs} != executor runs {runs_at_ds} at ds {res.ds}")
    return problems, findings


@dataclass
class Campaign:
    label: str
    ex: TimedExecutor
    results: list  # TuneResult per data size
    error: str | None = None


@dataclass
class PassResult:
    wall_s: float  # wall-clock of the pass without the probes in it
    scale: float  # factor to reference speed, from the probes in the pass
    steps_ms: list[float]  # think times
    n_steps: int  # charged runs
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    opt_hours: float = 0.0
    log_ratios: list[float] = field(default_factory=list)


class SimWorkload:
    """``locat_online_sim`` or ``baselines_sim``."""

    def __init__(self, name: str, seed: int, *, tiny: bool = False):
        if name not in ("locat_online_sim", "baselines_sim"):
            raise ValueError(name)
        self.name = name
        self.tiny = tiny
        self.space = arm_space()
        labels = [f"LOCAT/{s}" for s in LOCAT_SEEDS] if name == "locat_online_sim" else [
            "Tuneful", "DAC", "GBO-RL", "QTune"
        ]
        order = np.random.default_rng(seed).permutation(len(labels))
        self.labels = [labels[i] for i in order]
        self.problems: list[str] = []
        self.machine: dict = {}
        self.probe = SpeedProbe()

    def setup(self, repeats: int, tracer=None) -> float:
        """Median time of one set-up: executor and profile construction for
        every campaign of a pass."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for label in self.labels:
                self._executor(label)
            times.append(time.perf_counter() - t0)
            self.probe.probe()
        return statistics.median(times)

    def check_before(self) -> tuple[int, int]:
        return 0, 0  # recommendations are checked after each pass

    check_after = check_before

    def install(self, tracer) -> None:
        from layers import install_sim

        # Probes inside a traced pass would count in the layer spans' self
        # times; traced passes are scaled by the probes around them.
        self.probe.interval_s = math.inf
        install_sim(tracer)

    def layer_extra(self, tracer, n_traced: int) -> dict:
        return {}

    def _executor(self, label: str) -> TimedExecutor:
        seed = int(label.split("/")[1]) if label.startswith("LOCAT/") else BASELINE_SEED
        return TimedExecutor(make_executor("TPC-DS", ARM_CLUSTER, seed=_exec_seed(seed)), self.probe)

    def _tuner(self, label: str):
        sp, tiny = self.space, self.tiny
        if label.startswith("LOCAT/"):
            kw = dict(n_qcsa=8, n_iicp=6, min_iters=2, max_iters=3, retune_min_iters=1,
                      retune_max_iters=2, n_candidates=30, n_hyper=2) if tiny else {}
            return Locat(sp, seed=int(label.split("/")[1]), **kw)
        cls, kw = {
            "Tuneful": (Tuneful, dict(oat_values=2, bo_min_iters=2, bo_max_iters=3)),
            "DAC": (DAC, dict(samples_per_dim=1, ga_pop=8, ga_gens=2, validate_top=2)),
            "GBO-RL": (GBORL, dict(n_warm=3, min_iters=2, max_iters=3)),
            "QTune": (QTune, dict(episodes=20)),
        }[label]
        return cls(sp, seed=BASELINE_SEED, **(kw if tiny else {}))

    def _campaign(self, label: str) -> Campaign:
        ex = self._executor(label)
        tuner = self._tuner(label)
        try:
            if label.startswith("LOCAT/"):
                sizes = list(DS_LIST[:2] if self.tiny else DS_LIST)
                results = list(tuner.tune_multi(ex, sizes).values())
            else:
                results = [tuner.tune(ex, BASELINE_DS)]
        except Exception as exc:  # a campaign that raises is a counted failure
            traceback.print_exc(file=sys.stderr)
            return Campaign(label, ex, [], f"{label}: {type(exc).__name__}: {exc}")
        return Campaign(label, ex, results)

    def run_pass(self, tracer=None) -> PassResult:
        mark = self.probe.mark()
        self.probe.probe()
        spent = self.probe.spent_s
        t0 = time.perf_counter()
        if tracer is None:
            campaigns = [self._campaign(label) for label in self.labels]
        else:
            with tracer.span("pass"):
                campaigns = [self._campaign(label) for label in self.labels]
        wall = time.perf_counter() - t0 - (self.probe.spent_s - spent)
        self.probe.probe()
        return self._check(campaigns, wall, self.probe.scale(mark))

    def _check(self, campaigns: list[Campaign], wall: float, scale: float) -> PassResult:
        """Correctness and the paper's metrics, outside the timed region."""
        out = PassResult(wall, scale, [], 0, 0, 0)
        for c in campaigns:
            out.steps_ms += c.ex.think_ms()
            out.n_steps += len(c.ex.spans)
            out.attempted += len(c.ex.spans) + max(1, len(c.results))
            if c.error:
                out.failed += 1
                out.problems.append(c.error)
                continue
            for r in c.results:
                problems, findings = check_result(self.space, c.ex, r)
                if problems:
                    out.failed += 1
                    out.problems += [f"{c.label} ds={r.ds:g}: {p}" for p in problems]
                out.findings += [f"{c.label} ds={r.ds:g}: {f}" for f in findings]
                default = c.ex.evaluate(self.space.default_conf(), r.ds).total
                out.opt_hours += r.opt_seconds / 3600.0
                out.log_ratios.append(math.log(r.best_time / default))
        return out

    def report(self, passes: list[PassResult]) -> dict:
        """The paper's metrics of the (identical) passes, for the summary."""
        p = passes[0]
        return {
            "opt_hours": f"{p.opt_hours:.4f} h (charged, summed over {len(self.labels)} campaigns)",
            "tuned_ratio": f"{math.exp(statistics.fmean(p.log_ratios)):.4f} "
            f"(geomean over {len(p.log_ratios)} recommendations)" if p.log_ratios else "n/a",
            "findings": f"{len(p.findings)} per pass"
            + "".join(f"\n  FINDING: {f}" for f in p.findings),
        }

    def close(self) -> None:
        pass
