"""TPC-H-lite: ten representative queries over the synthetic schema.

A tractable subset of the 22 TPC-H queries (the paper runs the full
suite; DESIGN.md documents the reduction) chosen to cover all three
query categories: heavy aggregation (Q1), pure selection (Q6), and a
spread of join shapes — multi-way star joins (Q5, Q10), semi-joins (Q4,
Q18), and predicate-heavy joins (Q12, Q14, Q19). SQL is engine-portable:
the same text runs on Spark SQL and the DuckDB oracle.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro import synth_data
from repro.workloads.registry import Benchmark, Query

__all__ = ["TPCH_LITE", "tpch_tables"]


def tpch_tables(spark: SparkSession, sf: float = 0.01) -> dict:
    """Generate the TPC-H-lite tables at scale factor ``sf``."""
    return {
        "lineitem": synth_data.lineitem(spark, sf=sf),
        "orders": synth_data.orders(spark, sf=sf),
        "customer": synth_data.customer(spark, sf=sf),
        "part": synth_data.part(spark, sf=sf),
        "supplier": synth_data.supplier(spark, sf=sf),
        "nation": synth_data.nation(spark),
    }


_QUERIES = (
    Query(
        "Q01",
        "aggregation",
        """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice) AS sum_base_price,
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               AVG(l_quantity) AS avg_qty,
               AVG(l_discount) AS avg_disc,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        """,
    ),
    Query(
        "Q03",
        "join",
        """
        SELECT l_orderkey,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue,
               o_orderdate
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING'
          AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate < DATE '1995-03-15'
          AND l_shipdate > DATE '1995-03-15'
        GROUP BY l_orderkey, o_orderdate
        """,
    ),
    Query(
        "Q04",
        "join",
        """
        SELECT o_orderpriority, COUNT(*) AS order_count
        FROM orders
        WHERE o_orderdate >= DATE '1993-07-01'
          AND o_orderdate < DATE '1993-10-01'
          AND EXISTS (
            SELECT 1 FROM lineitem
            WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate
          )
        GROUP BY o_orderpriority
        """,
    ),
    Query(
        "Q05",
        "join",
        """
        SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem, supplier, nation
        WHERE c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey
          AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey
          AND r_name = 'ASIA'
          AND o_orderdate >= DATE '1994-01-01'
          AND o_orderdate < DATE '1995-01-01'
        GROUP BY n_name
        """,
    ),
    Query(
        "Q06",
        "selection",
        """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= DATE '1994-01-01'
          AND l_shipdate < DATE '1995-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
        """,
    ),
    Query(
        "Q10",
        "join",
        """
        SELECT c_custkey, n_name,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate >= DATE '1993-10-01'
          AND o_orderdate < DATE '1994-01-01'
          AND l_returnflag = 'R'
          AND c_nationkey = n_nationkey
        GROUP BY c_custkey, n_name
        """,
    ),
    Query(
        "Q12",
        "join",
        """
        SELECT l_shipmode,
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END) AS high_line_count,
               SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END) AS low_line_count
        FROM orders, lineitem
        WHERE o_orderkey = l_orderkey
          AND l_shipmode IN ('MAIL', 'SHIP')
          AND l_commitdate < l_receiptdate
          AND l_shipdate < l_commitdate
          AND l_receiptdate >= DATE '1994-01-01'
          AND l_receiptdate < DATE '1995-01-01'
        GROUP BY l_shipmode
        """,
    ),
    Query(
        "Q14",
        "join",
        """
        SELECT 100.00 * SUM(CASE WHEN p_type = 'PROMO'
                                 THEN l_extendedprice * (1 - l_discount)
                                 ELSE 0 END)
               / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= DATE '1995-09-01'
          AND l_shipdate < DATE '1995-10-01'
        """,
    ),
    Query(
        "Q18",
        "join",
        """
        SELECT c_custkey, o_orderkey, o_totalprice, SUM(l_quantity) AS sum_qty
        FROM customer, orders, lineitem
        WHERE o_orderkey IN (
            SELECT l_orderkey FROM lineitem
            GROUP BY l_orderkey HAVING SUM(l_quantity) > 180
          )
          AND c_custkey = o_custkey
          AND o_orderkey = l_orderkey
        GROUP BY c_custkey, o_orderkey, o_totalprice
        """,
    ),
    Query(
        "Q19",
        "join",
        """
        SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem, part
        WHERE p_partkey = l_partkey
          AND l_shipmode IN ('AIR', 'REG AIR')
          AND l_shipinstruct = 'DELIVER IN PERSON'
          AND ((p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK')
                AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
            OR (p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG')
                AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
            OR (p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK')
                AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))
        """,
    ),
)

TPCH_LITE = Benchmark("TPC-H", tpch_tables, _QUERIES)
