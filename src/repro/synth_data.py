"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
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


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
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


def supplier(spark: SparkSession, *, sf: float = 0.01, seed: int = 6) -> DataFrame:
    """TPC-H supplier-lite: key, nation, account balance."""
    n = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
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


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """TPC-H lineitem-lite, including l_suppkey, l_shipmode, l_shipinstruct,
    l_commitdate and l_receiptdate."""
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
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


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    """TPC-H part-lite, including p_container (needed by TPC-H Q19)."""
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
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


# --------------------------------------------------------------------------
# TPC-DS-lite star schema: store_sales fact + date_dim/item/store/customer
# dimensions. Scaled so store_sales has ~2.8M rows per SF (TPC-DS-ish).
# --------------------------------------------------------------------------

_N_STORE_SALES_PER_SF = 2_880_000
_N_ITEM_PER_SF = 18_000
_N_STORE_PER_SF = 12
_N_CUSTOMER_DS_PER_SF = 100_000
_N_DATE = 1826  # 5 years of days starting 1998-01-01


def date_dim(spark: SparkSession) -> DataFrame:
    """TPC-DS date dimension: one row per day, 1998-2002."""
    dates = pd.to_datetime("1998-01-01") + pd.to_timedelta(np.arange(_N_DATE), unit="D")
    pdf = pd.DataFrame(
        {
            "d_date_sk": np.arange(1, _N_DATE + 1),
            "d_date": dates,
            "d_year": dates.year.astype("int64"),
            "d_moy": dates.month.astype("int64"),
            "d_qoy": dates.quarter.astype("int64"),
            "d_dow": dates.dayofweek.astype("int64"),
        }
    )
    return spark.createDataFrame(pdf)


def item(spark: SparkSession, *, sf: float = 0.01, seed: int = 11) -> DataFrame:
    n = max(1, int(_N_ITEM_PER_SF * sf))
    g = _rng(seed)
    cats = ["Books", "Electronics", "Home", "Jewelry", "Music", "Shoes", "Sports", "Women"]
    pdf = pd.DataFrame(
        {
            "i_item_sk": np.arange(1, n + 1),
            "i_category": g.choice(cats, n),
            "i_class": g.choice([f"class{k}" for k in range(1, 17)], n),
            "i_brand": g.choice([f"brand{k}" for k in range(1, 101)], n),
            "i_current_price": (g.random(n) * 99 + 0.99).round(2),
            "i_manufact_id": g.integers(1, 1001, n),
        }
    )
    return spark.createDataFrame(pdf)


def store(spark: SparkSession, *, sf: float = 0.01, seed: int = 12) -> DataFrame:
    n = max(2, int(_N_STORE_PER_SF * max(sf, 0.1)))
    g = _rng(seed)
    states = ["TN", "CA", "TX", "NY", "WA", "GA", "OH", "IL"]
    pdf = pd.DataFrame(
        {
            "s_store_sk": np.arange(1, n + 1),
            "s_state": g.choice(states, n),
            "s_county": g.choice([f"county{k}" for k in range(1, 31)], n),
            "s_floor_space": g.integers(5_000_000, 10_000_000, n),
        }
    )
    return spark.createDataFrame(pdf)


def customer_ds(spark: SparkSession, *, sf: float = 0.01, seed: int = 13) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_DS_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_customer_sk": np.arange(1, n + 1),
            "c_birth_year": g.integers(1930, 2001, n),
            "c_preferred_cust_flag": g.choice(["Y", "N"], n),
            "c_current_addr_state": g.choice(["TN", "CA", "TX", "NY", "WA", "GA"], n),
        }
    )
    return spark.createDataFrame(pdf)


def store_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 10) -> DataFrame:
    """TPC-DS store_sales fact table (zipf-skewed item popularity)."""
    n = max(1, int(_N_STORE_SALES_PER_SF * sf))
    n_item = max(1, int(_N_ITEM_PER_SF * sf))
    n_store = max(2, int(_N_STORE_PER_SF * max(sf, 0.1)))
    n_cust = max(1, int(_N_CUSTOMER_DS_PER_SF * sf))
    g = _rng(seed)
    ranks = np.arange(1, n_item + 1)
    w = 1.0 / ranks**0.8
    w /= w.sum()
    qty = g.integers(1, 101, n)
    price = (g.random(n) * 199 + 1).round(2)
    pdf = pd.DataFrame(
        {
            "ss_sold_date_sk": g.integers(1, _N_DATE + 1, n),
            "ss_item_sk": g.choice(ranks, n, p=w),
            "ss_customer_sk": g.integers(1, n_cust + 1, n),
            "ss_store_sk": g.integers(1, n_store + 1, n),
            "ss_quantity": qty,
            "ss_sales_price": price,
            "ss_ext_sales_price": (qty * price).round(2),
            "ss_net_profit": (g.random(n) * 400 - 100).round(2),
            "ss_wholesale_cost": (g.random(n) * 80 + 1).round(2),
        }
    )
    return spark.createDataFrame(pdf)


# --------------------------------------------------------------------------
# HiBench SQL tables: uservisits / rankings (Pavlo benchmark schema).
# --------------------------------------------------------------------------

_N_USERVISITS_PER_SF = 1_000_000
_N_RANKINGS_PER_SF = 120_000


def uservisits(spark: SparkSession, *, sf: float = 0.01, seed: int = 20) -> DataFrame:
    n = max(1, int(_N_USERVISITS_PER_SF * sf))
    n_url = max(1, int(_N_RANKINGS_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "sourceIP": [
                f"{a}.{b}.{c}.{d}"
                for a, b, c, d in zip(
                    g.integers(1, 224, n), g.integers(0, 256, n),
                    g.integers(0, 256, n), g.integers(1, 255, n),
                )
            ],
            "destURL": [f"url{k}" for k in g.integers(1, n_url + 1, n)],
            "visitDate": pd.to_datetime("2000-01-01")
            + pd.to_timedelta(g.integers(0, 3650, n), unit="D"),
            "adRevenue": (g.random(n) * 1000).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def rankings(spark: SparkSession, *, sf: float = 0.01, seed: int = 21) -> DataFrame:
    n = max(1, int(_N_RANKINGS_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "pageURL": [f"url{k}" for k in range(1, n + 1)],
            "pageRank": g.integers(1, 1001, n),
            "avgDuration": g.integers(1, 200, n),
        }
    )
    return spark.createDataFrame(pdf)
