"""perfbench's per-layer hooks still reach the code they time.

``perfbench/layers.py`` wraps named entry points of the tuners and the
simulator from outside the program. If one of those names moves, its
span silently reads 0; this test runs tiny campaigns under the installed
wrappers and checks that every simulated-workload span fires.
"""
import pathlib

import pytest

from repro.baselines import DAC, GBORL, QTune, Tuneful
from repro.cluster.hardware import ARM_CLUSTER
from repro.cluster.simulator import SimulatedCluster
from repro.core.configspace import arm_space
from repro.core.locat import Locat
from repro.execmodel.sim_exec import make_executor

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
ARM = arm_space()

SPANS = (
    "locat.bootstrap",
    "locat.search",
    "locat.confirm",
    "bo",
    "qcsa",
    "iicp",
    "simulator.run",
    "baselines.tuneful",
    "baselines.dac",
    "baselines.gborl",
    "baselines.qtune",
)


@pytest.fixture
def traced_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import install_sim
    from tracing import Tracer, summarize

    run = SimulatedCluster.run
    tracer = Tracer()
    install_sim(tracer)
    try:
        locat = Locat(
            ARM, seed=1, n_qcsa=8, n_iicp=6, min_iters=3, max_iters=6,
            retune_min_iters=2, retune_max_iters=3, n_candidates=60, n_hyper=3,
        )
        locat.tune_multi(make_executor("Join", ARM_CLUSTER, seed=3), [100.0, 200.0])
        for tuner in (
            Tuneful(ARM, seed=1, oat_values=2, bo_min_iters=2, bo_max_iters=4),
            DAC(ARM, seed=1, samples_per_dim=1, ga_gens=4, validate_top=2),
            GBORL(ARM, seed=1, n_warm=3, min_iters=3, max_iters=5),
            QTune(ARM, seed=1, episodes=12),
        ):
            tuner.tune(make_executor("Join", ARM_CLUSTER, seed=3), 100.0)
    finally:
        tracer.unwrap_all()
    assert SimulatedCluster.run is run
    return {name: agg["calls"] for name, agg in summarize(tracer.spans).items()}


def test_every_sim_span_fires(traced_calls):
    assert [name for name in SPANS if not traced_calls.get(name)] == []
