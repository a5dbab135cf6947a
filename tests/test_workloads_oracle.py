"""Result-correctness tests: every TPC-H-lite query vs the DuckDB oracle.

One test per query of the live workload. The same SQL text runs on Spark
(over temp views) and DuckDB (over the same pandas frames); sorted rows
must match. This is the guarantee that the executor's trials measure
*correct* executions, not just completed ones.
"""
import pytest

from repro.oracle import assert_equivalent
from repro.workloads.registry import register_views
from repro.workloads.tpch import TPCH_LITE

SF = 0.003


@pytest.fixture(scope="module")
def tables(spark):
    """Generate the TPC-H-lite tables once (Spark DF + pandas copies)."""
    tables = TPCH_LITE.make_tables(spark, SF)
    return tables, {k: v.toPandas() for k, v in tables.items()}


@pytest.mark.parametrize("qname", TPCH_LITE.query_names, ids=lambda q: f"TPC-H-{q}")
def test_query_matches_duckdb(spark, tables, qname):
    dfs, pdfs = tables
    register_views(spark, dfs)
    q = TPCH_LITE.query(qname)
    assert_equivalent(spark.sql(q.sql), q.sql, **pdfs)


def test_query_counts():
    assert len(TPCH_LITE.queries) == 10


def test_categories_cover_all_three():
    cats = {q.category for q in TPCH_LITE.queries}
    assert cats == {"selection", "join", "aggregation"}


def test_registry_query_lookup():
    assert TPCH_LITE.query("Q01").category == "aggregation"
    with pytest.raises(KeyError):
        TPCH_LITE.query("nope")
