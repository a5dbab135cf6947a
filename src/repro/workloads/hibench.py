"""HiBench SQL workloads: Scan, Join and Aggregation (paper Section 4.2).

The three SQL benchmarks of HiBench over the Pavlo-benchmark schema
(``uservisits``, ``rankings``), each treated as a separate single-query
benchmark exactly as the paper does:

* **Scan** — a Map-only ``SELECT`` with a filter;
* **Join** — rankings x uservisits with a Reduce phase;
* **Aggregation** — ``GROUP BY`` over uservisits (Map + Reduce).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro import synth_data
from repro.workloads.registry import Benchmark, Query

__all__ = ["HIBENCH_BENCHMARKS", "hibench_tables"]


def hibench_tables(spark: SparkSession, sf: float) -> dict:
    return {
        "uservisits": synth_data.uservisits(spark, sf=sf),
        "rankings": synth_data.rankings(spark, sf=sf),
    }


_SCAN = Query(
    "Scan",
    "selection",
    "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 300",
)

_JOIN = Query(
    "Join",
    "join",
    """
    SELECT sourceIP, AVG(pageRank) AS avgRank, SUM(adRevenue) AS totalRevenue
    FROM rankings, uservisits
    WHERE pageURL = destURL
      AND visitDate >= DATE '2000-01-15'
      AND visitDate <= DATE '2008-01-01'
    GROUP BY sourceIP
    """,
)

_AGGREGATION = Query(
    "Aggregation",
    "aggregation",
    """
    SELECT SUBSTRING(sourceIP, 1, 7) AS ipPrefix, SUM(adRevenue) AS sumAdRevenue
    FROM uservisits
    GROUP BY SUBSTRING(sourceIP, 1, 7)
    """,
)

HIBENCH_BENCHMARKS = {
    "Scan": Benchmark("Scan", hibench_tables, (_SCAN,)),
    "Join": Benchmark("Join", hibench_tables, (_JOIN,)),
    "Aggregation": Benchmark("Aggregation", hibench_tables, (_AGGREGATION,)),
}
