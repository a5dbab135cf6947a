"""TPC-DS-lite: twelve queries over the synthetic star schema.

A tractable stand-in for the 104-query TPC-DS suite (the paper-scale
104-query structure lives in the simulator profiles; DESIGN.md documents
the reduction). Query shapes follow well-known TPC-DS templates — Q3
(brand sales by year), Q42/Q52 (category/brand by month), Q55, report
aggregates with HAVING, and pure scans — covering selection, join and
aggregation categories.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro import synth_data
from repro.workloads.registry import Benchmark, Query

__all__ = ["TPCDS_LITE", "tpcds_tables"]


def tpcds_tables(spark: SparkSession, sf: float) -> dict:
    """Generate the TPC-DS-lite star schema at scale factor ``sf``."""
    return {
        "store_sales": synth_data.store_sales(spark, sf=sf),
        "date_dim": synth_data.date_dim(spark),
        "item": synth_data.item(spark, sf=sf),
        "store": synth_data.store(spark, sf=sf),
        "customer": synth_data.customer_ds(spark, sf=sf),
    }


_QUERIES = (
    Query(
        "qd01_scan_quantity",
        "selection",
        """
        SELECT COUNT(*) AS cnt, AVG(ss_sales_price) AS avg_price
        FROM store_sales
        WHERE ss_quantity BETWEEN 1 AND 20 AND ss_sales_price > 50
        """,
    ),
    Query(
        "qd02_scan_loss",
        "selection",
        """
        SELECT COUNT(*) AS cnt, SUM(ss_ext_sales_price) AS total
        FROM store_sales
        WHERE ss_net_profit < 0 AND ss_wholesale_cost > 40
        """,
    ),
    Query(
        "qd03_brand_year",
        "join",
        """
        SELECT d_year, i_brand, SUM(ss_ext_sales_price) AS sum_agg
        FROM store_sales, date_dim, item
        WHERE ss_sold_date_sk = d_date_sk
          AND ss_item_sk = i_item_sk
          AND i_manufact_id = 128
          AND d_moy = 11
        GROUP BY d_year, i_brand
        """,
    ),
    Query(
        "qd04_category_month",
        "join",
        """
        SELECT d_year, i_category, SUM(ss_ext_sales_price) AS total_sales
        FROM store_sales, date_dim, item
        WHERE ss_sold_date_sk = d_date_sk
          AND ss_item_sk = i_item_sk
          AND d_moy = 12
          AND d_year = 2000
        GROUP BY d_year, i_category
        """,
    ),
    Query(
        "qd05_store_state",
        "join",
        """
        SELECT s_state, SUM(ss_net_profit) AS profit, COUNT(*) AS cnt
        FROM store_sales, store
        WHERE ss_store_sk = s_store_sk
        GROUP BY s_state
        """,
    ),
    Query(
        "qd06_category_sales",
        "aggregation",
        """
        SELECT i_category, SUM(ss_ext_sales_price) AS revenue
        FROM store_sales, item
        WHERE ss_item_sk = i_item_sk
        GROUP BY i_category
        """,
    ),
    Query(
        "qd07_quarter_volume",
        "aggregation",
        """
        SELECT d_year, d_qoy, SUM(ss_quantity) AS qty, COUNT(*) AS cnt
        FROM store_sales, date_dim
        WHERE ss_sold_date_sk = d_date_sk
        GROUP BY d_year, d_qoy
        """,
    ),
    Query(
        "qd08_birth_decade",
        "join",
        """
        SELECT FLOOR(c_birth_year / 10) * 10 AS decade,
               SUM(ss_ext_sales_price) AS revenue
        FROM store_sales, customer
        WHERE ss_customer_sk = c_customer_sk
          AND c_preferred_cust_flag = 'Y'
        GROUP BY FLOOR(c_birth_year / 10) * 10
        """,
    ),
    Query(
        "qd09_multiway",
        "join",
        """
        SELECT i_category, s_state, SUM(ss_ext_sales_price) AS revenue
        FROM store_sales, date_dim, item, store
        WHERE ss_sold_date_sk = d_date_sk
          AND ss_item_sk = i_item_sk
          AND ss_store_sk = s_store_sk
          AND d_year = 2001
        GROUP BY i_category, s_state
        """,
    ),
    Query(
        "qd10_brand_having",
        "aggregation",
        """
        SELECT i_brand, SUM(ss_ext_sales_price) AS revenue
        FROM store_sales, item
        WHERE ss_item_sk = i_item_sk
        GROUP BY i_brand
        HAVING SUM(ss_ext_sales_price) > 100000
        """,
    ),
    Query(
        "qd11_distinct_customers",
        "aggregation",
        """
        SELECT i_category, COUNT(DISTINCT ss_customer_sk) AS customers
        FROM store_sales, item
        WHERE ss_item_sk = i_item_sk
        GROUP BY i_category
        """,
    ),
    Query(
        "qd12_dow_profile",
        "join",
        """
        SELECT d_dow, AVG(ss_sales_price) AS avg_price, SUM(ss_quantity) AS qty
        FROM store_sales, date_dim
        WHERE ss_sold_date_sk = d_date_sk
          AND d_year BETWEEN 1999 AND 2001
        GROUP BY d_dow
        """,
    ),
)

TPCDS_LITE = Benchmark("TPC-DS", tpcds_tables, _QUERIES)
