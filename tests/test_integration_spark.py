"""End-to-end online tuning on live Spark SQL (the explicit_spark band).

LOCAT runs its whole pipeline — bootstrap, QCSA, IICP, DAGP-BO — against
real Spark SQL execution metrics of the TPC-H-lite application, with a
tiny budget so the test stays fast. Wall-clock noise on a busy CI box is
large, so assertions target pipeline *behaviour* (structure, bookkeeping,
result correctness under the tuned configuration), not timing wins.
"""
import pytest

from repro.core.configspace import arm_space
from repro.core.locat import Locat
from repro.execmodel.spark_exec import SparkSQLExecutor
from repro.oracle import assert_equivalent
from repro.workloads.registry import register_views
from repro.workloads.tpch import TPCH_LITE

ARM = arm_space()
SF = 0.002


@pytest.fixture(scope="module")
def tuned(spark):
    ex = SparkSQLExecutor(spark, TPCH_LITE)
    loc = Locat(
        ARM,
        seed=2,
        n_qcsa=6,
        n_iicp=5,
        min_iters=2,
        max_iters=3,
        n_candidates=40,
        n_hyper=3,
    )
    res = loc.tune(ex, SF)
    return ex, res, loc.state


class TestOnlineTuning:
    def test_pipeline_completes(self, tuned):
        ex, res, _ = tuned
        assert res.best_time > 0
        assert res.n_runs >= 6
        assert res.opt_seconds > 0

    def test_qcsa_ran_on_real_metrics(self, tuned):
        _, _, state = tuned
        q = state.qcsa
        assert set(q.cvs) == set(TPCH_LITE.query_names)
        assert len(q.csq) >= 1

    def test_iicp_selected_subset(self, tuned):
        _, _, state = tuned
        ii = state.iicp
        assert ii is not None
        assert 1 <= len(ii.cps_result.kept) <= 38
        assert ii.n_components >= 2

    def test_best_conf_complete_and_legal(self, tuned):
        _, res, _ = tuned
        assert set(res.best_conf) == set(ARM.names)
        for p in ARM.params:
            v = res.best_conf[p.name]
            if p.kind != "bool":
                assert p.lo <= v <= p.hi

    def test_results_correct_under_tuned_conf(self, spark, tuned):
        """The tuned configuration must not change query *results*."""
        ex, res, _ = tuned
        tables = ex.tables(SF)
        register_views(spark, tables)
        pdfs = {k: v.toPandas() for k, v in tables.items()}
        prev = ex._apply(res.best_conf)
        try:
            for qname in ("Q01", "Q05", "Q12"):
                q = TPCH_LITE.query(qname)
                assert_equivalent(spark.sql(q.sql), q.sql, **pdfs)
        finally:
            ex._restore(prev)
