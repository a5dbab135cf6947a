"""Tests for the synthetic data generators (Spark session required)."""
import pytest

from repro import synth_data as sd

SF = 0.002


class TestTpchTables:
    def test_lineitem_ext_schema_and_counts(self, spark):
        df = sd.lineitem(spark, sf=SF)
        cols = set(df.columns)
        assert {"l_orderkey", "l_suppkey", "l_shipmode", "l_commitdate",
                "l_receiptdate", "l_shipinstruct"} <= cols
        assert df.count() == int(6_000_000 * SF)

    def test_supplier(self, spark):
        df = sd.supplier(spark, sf=SF)
        assert df.count() == int(10_000 * SF)
        row = df.agg({"s_nationkey": "max"}).collect()[0][0]
        assert row < 25

    def test_nation_fixed_25(self, spark):
        df = sd.nation(spark)
        assert df.count() == 25
        regions = {r.r_name for r in df.select("r_name").distinct().collect()}
        assert regions == {"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

    def test_part_ext_has_container(self, spark):
        df = sd.part(spark, sf=SF)
        assert "p_container" in df.columns

    def test_determinism(self, spark):
        a = sd.orders(spark, sf=SF).toPandas()
        b = sd.orders(spark, sf=SF).toPandas()
        assert a.equals(b)

