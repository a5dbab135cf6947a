"""The Executor protocol contract, checked on both substrates: the analytic
simulator and live Spark SQL over TPC-H-lite."""
import numpy as np
import pytest

from repro.cluster.hardware import ARM_CLUSTER
from repro.cluster.simulator import SimulatedCluster
from repro.core.configspace import arm_space
from repro.execmodel.interface import Executor, RunResult
from repro.execmodel.sim_exec import make_executor
from repro.execmodel.spark_exec import SparkSQLExecutor
from repro.workloads.tpch import TPCH_LITE

ARM = arm_space()


@pytest.fixture(scope="module", params=["simulator", "spark"])
def executor_ds(request):
    """An executor and a data size it runs at (GB, or a scale factor)."""
    if request.param == "simulator":
        return make_executor("TPC-H", ARM_CLUSTER), 100.0
    spark = request.getfixturevalue("spark")
    return SparkSQLExecutor(spark, TPCH_LITE), 0.002


def test_is_executor(executor_ds):
    ex, _ = executor_ds
    assert isinstance(ex, Executor)


def test_run_and_evaluate_return_run_result(executor_ds):
    ex, ds = executor_ds
    queries = ex.query_names[:2]
    n0 = len(ex.runs)
    run = ex.run(ARM.default_conf(), ds, queries)
    assert ex.runs[n0:] == [run] and ex.runs[-1] is run  # run appends one record
    for r in (run, ex.evaluate(ARM.default_conf(), ds, queries)):
        assert isinstance(r, RunResult)
        assert type(r.ds) is float and r.ds == ds
        assert list(r.times) == queries
    assert len(ex.runs) == n0 + 1  # evaluate is neither charged nor logged
    assert ex.charged_seconds == sum(r.total for r in ex.runs)  # the meter is the log


def test_query_categories_cover_query_names(executor_ds):
    ex, _ = executor_ds
    cats = ex.query_categories
    assert set(cats) == set(ex.query_names)
    assert set(cats.values()) <= {"selection", "join", "aggregation"}


def test_repair_of_sample(executor_ds):
    ex, _ = executor_ds
    rng = np.random.default_rng(0)
    for _ in range(20):
        conf = ex.sample_feasible(ARM, rng)
        fixed = ex.repair(conf, ARM)
        if isinstance(ex, SimulatedCluster):
            assert ex.is_feasible(fixed)
        else:
            assert fixed == conf


def test_sample_candidates_are_sample_feasible_draws(executor_ds):
    """The batch is ``n`` ``sample_feasible`` draws: the same matrix bytes,
    the same configuration for each row, and the generator where they
    leave it."""
    ex, _ = executor_ds
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    want = [ex.sample_feasible(ARM, a) for _ in range(20)]
    m, conf = ex.sample_candidates(ARM, b, 20)
    assert m.tobytes() == ARM.matrix(want).tobytes() and m.shape == (20, ARM.dim)
    assert [conf(j) for j in range(20)] == want
    assert b.random() == a.random()
