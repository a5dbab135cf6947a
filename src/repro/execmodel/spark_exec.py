"""Live Spark SQL executor — the "online" tuning path on real Spark.

Runs a :class:`~repro.workloads.registry.Benchmark` on the session's
local Spark, applying the *runtime-settable* subset of Table 2's
configuration parameters per trial and measuring real per-query
wall-clock times — exactly the metrics LOCAT observes on a cluster.

Launch-time parameters (``spark.executor.*``, memory sizes, shuffle
service settings) cannot change inside one running local JVM; they are
exercised through the simulated cluster instead (see DESIGN.md
"Layering"). ``spark.sql.retainGroupColumns`` is pinned because it
changes the *result schema* — the executor only explores
result-preserving configurations, and every query's output is checked
against DuckDB in the tests.

``ds`` here is the scale factor of the synthetic data (the paper's GB
axis, scaled to laptop data); generated tables are cached per size.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.execmodel.interface import RunResult
from repro.workloads.registry import Benchmark

__all__ = ["RUNTIME_TUNABLE", "SparkSQLExecutor"]


def _as_bool(v) -> str:
    return "true" if v else "false"


#: Table 2 parameters Spark honours at session runtime, with converters
#: from the paper's units to Spark's.
RUNTIME_TUNABLE = {
    "spark.sql.shuffle.partitions": lambda v: str(int(v)),
    # Table 2 specifies KB; Spark takes bytes.
    "spark.sql.autoBroadcastJoinThreshold": lambda v: str(int(v) * 1024),
    "spark.sql.join.preferSortMergeJoin": _as_bool,
    "spark.sql.codegen.maxFields": lambda v: str(int(v)),
    "spark.sql.inMemoryColumnarStorage.batchSize": lambda v: str(int(v)),
    "spark.sql.inMemoryColumnarStorage.compressed": _as_bool,
    "spark.sql.inMemoryColumnarStorage.partitionPruning": _as_bool,
    "spark.sql.sort.enableRadixSort": _as_bool,
    "spark.sql.cartesianProductExec.buffer.in.memory.threshold": lambda v: str(int(v)),
}


class SparkSQLExecutor:
    """Executor protocol over live Spark SQL."""

    def __init__(self, spark: SparkSession, benchmark: Benchmark):
        self.spark = spark
        self.benchmark = benchmark
        self.charged_seconds = 0.0
        self.runs: list[RunResult] = []
        self._tables_cache: dict[float, dict] = {}
        self.unsupported: set[str] = set()

    # -- data ------------------------------------------------------------
    def tables(self, sf: float) -> dict:
        """Generate (once) and register the benchmark tables at ``sf``."""
        if sf not in self._tables_cache:
            self._tables_cache[sf] = self.benchmark.make_tables(self.spark, sf)
        return self._tables_cache[sf]

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def query_names(self) -> list[str]:
        return self.benchmark.query_names

    @property
    def query_categories(self) -> dict[str, str]:
        return {q.name: q.category for q in self.benchmark.queries}

    def sample_feasible(self, space, rng) -> dict:
        """Every configuration runs: a session never allocates executors."""
        return space.sample_random(rng)

    def repair(self, conf: dict, space, rng=None) -> dict:
        return conf

    # -- configuration ---------------------------------------------------
    def _apply(self, conf: dict) -> dict[str, str | None]:
        """Set the runtime-tunable subset; return previous values."""
        prev: dict[str, str | None] = {}
        for key, conv in RUNTIME_TUNABLE.items():
            if key not in conf or key in self.unsupported:
                continue
            try:
                prev[key] = self.spark.conf.get(key, None)
                self.spark.conf.set(key, conv(conf[key]))
            except Exception:
                # some internal configs may be renamed/removed across
                # Spark versions; record and skip rather than fail a trial
                self.unsupported.add(key)
                prev.pop(key, None)
        return prev

    def _restore(self, prev: dict[str, str | None]) -> None:
        for key, value in prev.items():
            try:
                if value is None:
                    self.spark.conf.unset(key)
                else:
                    self.spark.conf.set(key, value)
            except Exception:
                pass

    # -- execution -------------------------------------------------------
    def _execute_query(self, sql: str) -> None:
        """Run the whole plan and discard the rows (Spark's noop sink)."""
        self.spark.sql(sql).write.format("noop").mode("overwrite").save()

    def _run(self, conf: dict, sf: float, queries: list[str] | None, charge: bool) -> RunResult:
        from repro.workloads.registry import register_views

        register_views(self.spark, self.tables(sf))
        names = self.benchmark.query_names if queries is None else list(queries)
        prev = self._apply(conf)
        times: dict[str, float] = {}
        try:
            for name in names:
                q = self.benchmark.query(name)
                t0 = time.monotonic()
                self._execute_query(q.sql)
                times[name] = time.monotonic() - t0
        finally:
            self._restore(prev)
        r = RunResult(times, dict(conf), float(sf))
        if charge:
            self.charged_seconds += r.total
            self.runs.append(r)
        return r

    def run(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        return self._run(conf, ds, queries, charge=True)

    def evaluate(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """One uncharged measurement run (real Spark has no noise-free oracle)."""
        return self._run(conf, ds, queries, charge=False)
