"""The types of a live Spark SQL workload.

The one live workload is TPC-H-lite (:mod:`repro.workloads.tpch`); the
paper's five benchmarks run at paper scale on the simulator's profiles
(:mod:`repro.cluster.profiles`). Each :class:`Query` is a single SQL
string executed verbatim by Spark SQL (over temp views) *and* by the
DuckDB oracle (over the same pandas frames), so result equality is
checked query-for-query. Each query carries its Pavlo category
('selection' / 'join' / 'aggregation', Section 5.11) — the same taxonomy
the simulator profiles use.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame, SparkSession

__all__ = ["Query", "Benchmark", "register_views"]


@dataclass(frozen=True)
class Query:
    name: str
    category: str  # 'selection' | 'join' | 'aggregation'
    sql: str

    def __post_init__(self) -> None:
        if self.category not in ("selection", "join", "aggregation"):
            raise ValueError(f"bad category for {self.name}")


@dataclass(frozen=True)
class Benchmark:
    """A named Spark SQL application: tables plus an ordered query list."""

    name: str
    make_tables: Callable[[SparkSession, float], dict[str, DataFrame]]
    queries: tuple[Query, ...]

    def query(self, name: str) -> Query:
        for q in self.queries:
            if q.name == name:
                return q
        raise KeyError(name)

    @property
    def query_names(self) -> list[str]:
        return [q.name for q in self.queries]


def register_views(spark: SparkSession, tables: dict[str, DataFrame]) -> None:
    """Register each table as a temp view so queries run via spark.sql."""
    for name, df in tables.items():
        df.createOrReplaceTempView(name)

