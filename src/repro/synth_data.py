"""Synthetic OLAP data at a configurable scale factor.

The TPC-H-lite tables of the live workload. SF=1.0 is roughly TPC-H SF1
(~1 GB across tables); live runs use SF 0.001-0.01. Each generator draws
from its own constant seed, so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def orders(spark: SparkSession, *, sf: float) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = np.random.default_rng(1)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = np.random.default_rng(2)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# --------------------------------------------------------------------------
# TPC-H-lite supplier/nation, and lineitem/part with the extra columns the
# query set needs, so the real Spark workloads can express multi-way joins
# like Q5/Q7.
# --------------------------------------------------------------------------

_N_SUPPLIER_PER_SF = 10_000

_NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATION_REGION = [0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1]


def supplier(spark: SparkSession, *, sf: float) -> DataFrame:
    """TPC-H supplier-lite: key, nation, account balance."""
    n = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = np.random.default_rng(6)
    pdf = pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 10000 - 1000).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def nation(spark: SparkSession) -> DataFrame:
    """TPC-H nation with the region name folded in (region-lite)."""
    pdf = pd.DataFrame(
        {
            "n_nationkey": np.arange(25),
            "n_name": _NATIONS,
            "n_regionkey": _NATION_REGION,
            "r_name": [_REGIONS[r] for r in _NATION_REGION],
        }
    )
    return spark.createDataFrame(pdf)


def lineitem(spark: SparkSession, *, sf: float) -> DataFrame:
    """TPC-H lineitem-lite, including l_suppkey, l_shipmode, l_shipinstruct,
    l_commitdate and l_receiptdate."""
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = np.random.default_rng(0)
    ship = pd.to_datetime("1992-01-01") + pd.to_timedelta(g.integers(0, 2557, n), unit="D")
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_suppkey": g.integers(1, n_supp + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": ship,
            "l_commitdate": ship + pd.to_timedelta(g.integers(-30, 60, n), unit="D"),
            "l_receiptdate": ship + pd.to_timedelta(g.integers(1, 45, n), unit="D"),
            "l_shipmode": g.choice(["AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB", "REG AIR"], n),
            "l_shipinstruct": g.choice(
                ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float) -> DataFrame:
    """TPC-H part-lite, including p_container (needed by TPC-H Q19)."""
    n = max(1, int(_N_PART_PER_SF * sf))
    g = np.random.default_rng(5)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
            "p_container": g.choice(
                ["SM CASE", "SM BOX", "SM PACK", "MED BAG", "MED BOX", "MED PKG",
                 "LG CASE", "LG BOX", "LG PACK", "JUMBO BOX"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)
