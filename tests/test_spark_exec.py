"""Tests for the live-Spark executor."""
import pytest

from repro.core.configspace import arm_space
from repro.execmodel.spark_exec import RUNTIME_TUNABLE, SparkSQLExecutor
from repro.workloads.tpch import TPCH_LITE

ARM = arm_space()
SF = 0.002


@pytest.fixture(scope="module")
def tpch_exec(spark):
    return SparkSQLExecutor(spark, TPCH_LITE)


class TestSparkExecutor:
    def test_run_measures_and_charges(self, tpch_exec):
        before = tpch_exec.charged_seconds
        n0 = len(tpch_exec.runs)
        r = tpch_exec.run(ARM.default_conf(), SF)
        assert set(r.times) == set(tpch_exec.query_names)
        assert all(t > 0 for t in r.times.values())
        assert tpch_exec.charged_seconds == pytest.approx(before + r.total)
        assert tpch_exec.runs[n0:] == [r] and tpch_exec.runs[-1] is r
        assert len(tpch_exec.runs) == n0 + 1

    def test_evaluate_does_not_charge(self, tpch_exec):
        before = tpch_exec.charged_seconds
        n0 = len(tpch_exec.runs)
        tpch_exec.evaluate(ARM.default_conf(), SF, ["Q06"])
        assert tpch_exec.charged_seconds == before
        assert len(tpch_exec.runs) == n0

    def test_query_subset(self, tpch_exec):
        r = tpch_exec.run(ARM.default_conf(), SF, ["Q01", "Q06"])
        assert set(r.times) == {"Q01", "Q06"}

    def test_conf_applied_and_restored(self, spark, tpch_exec):
        key = "spark.sql.shuffle.partitions"
        prev = spark.conf.get(key)
        conf = ARM.complete({key: 7})
        tpch_exec.run(conf, SF, ["Q06"])
        assert spark.conf.get(key) == prev  # restored after the trial

    def test_runtime_tunable_supported_by_spark(self, spark, tpch_exec):
        conf = ARM.default_conf()
        tpch_exec.run(conf, SF, ["Q01"])
        # Spark 4.1 accepts the whole runtime-tunable subset
        assert tpch_exec.unsupported == set()

    def test_different_partitions_still_correct(self, spark, tpch_exec):
        """Results are configuration-independent (oracle check under an
        aggressively tuned configuration)."""
        from repro.oracle import assert_equivalent
        from repro.workloads.registry import register_views

        tables = tpch_exec.tables(SF)
        register_views(spark, tables)
        pdfs = {k: v.toPandas() for k, v in tables.items()}
        conf = ARM.complete({
            "spark.sql.shuffle.partitions": 3,
            "spark.sql.join.preferSortMergeJoin": False,
            "spark.sql.autoBroadcastJoinThreshold": 8192,
            "spark.sql.sort.enableRadixSort": False,
        })
        prev = tpch_exec._apply(conf)
        try:
            q = TPCH_LITE.query("Q05")
            assert_equivalent(spark.sql(q.sql), q.sql, **pdfs)
        finally:
            tpch_exec._restore(prev)

    def test_converters_units(self):
        # Table 2 gives autoBroadcastJoinThreshold in KB; Spark wants bytes
        assert RUNTIME_TUNABLE["spark.sql.autoBroadcastJoinThreshold"](1024) == str(1024 * 1024)
        assert RUNTIME_TUNABLE["spark.sql.join.preferSortMergeJoin"](False) == "false"
