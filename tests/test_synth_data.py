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


class TestTpcdsTables:
    def test_star_schema_keys_join(self, spark):
        ss = sd.store_sales(spark, sf=SF)
        it = sd.item(spark, sf=SF)
        joined = ss.join(it, ss.ss_item_sk == it.i_item_sk)
        assert joined.count() == ss.count()  # every fact row has its dim row

    def test_date_dim_covers_five_years(self, spark):
        dd = sd.date_dim(spark)
        assert dd.count() == 1826
        years = {r.d_year for r in dd.select("d_year").distinct().collect()}
        assert years == {1998, 1999, 2000, 2001, 2002}

    def test_store_sales_derived_column(self, spark):
        pdf = sd.store_sales(spark, sf=SF).limit(100).toPandas()
        assert (abs(pdf.ss_ext_sales_price - (pdf.ss_quantity * pdf.ss_sales_price).round(2)) < 1e-6).all()

    def test_item_zipf_skew(self, spark):
        ss = sd.store_sales(spark, sf=0.01).groupBy("ss_item_sk").count().toPandas()
        top = ss["count"].max()
        med = ss["count"].median()
        assert top > 3 * med  # popular items are much hotter


class TestHiBenchTables:
    def test_uservisits_schema(self, spark):
        df = sd.uservisits(spark, sf=SF)
        assert set(df.columns) == {"sourceIP", "destURL", "visitDate", "adRevenue"}
        assert df.count() == int(1_000_000 * SF)

    def test_rankings_urls_referenced(self, spark):
        uv = sd.uservisits(spark, sf=SF)
        rk = sd.rankings(spark, sf=SF)
        joined = uv.join(rk, uv.destURL == rk.pageURL)
        assert joined.count() == uv.count()
