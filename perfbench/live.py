"""The live-Spark workload: a fixed configuration list replayed on TPC-H-lite.

``SparkSQLExecutor.run`` executes the ten TPC-H-lite queries at two scale
factors under each configuration of a fixed list: the Table 2 defaults plus
Latin-hypercube draws from a constant seed. No tuner runs, so the amount of
work does not depend on noisy timings. The benchmark seed chooses the order
of the (configuration, scale factor) runs and the query order inside each.

Before the timed passes, every query at each scale factor is checked
against the DuckDB oracle under the default and the first non-default
configuration; these untimed executions and one untimed pass warm up the
JVM.
"""
from __future__ import annotations

import dataclasses
import math
import os
import shlex
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["LiveWorkload"]

#: Small SF: per-query fixed cost dominates. Large SF: data volume weighs in.
SFS = (0.002, 0.01)
TINY_SFS = (0.001, 0.002)
#: Configurations replayed per pass: the defaults plus this many LHS draws.
N_LHS = 2
LHS_SEED = 2022
#: Local Spark threads; kept below nproc so the driver's Python thread and
#: the JVM's own threads do not compete with the task threads.
SPARK_THREADS = 2


@dataclass
class PassResult:
    wall_s: float
    steps_ms: list[float]  # query latencies
    n_steps: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    by_sf: dict = field(default_factory=dict)  # sf -> query latencies (ms)
    totals: dict = field(default_factory=dict)  # (conf index, sf) -> seconds
    charged_s: float = 0.0
    scale: float = 1.0  # wall-clock is reported as measured


def _submit_args(out_dir: Path) -> str:
    tmp = out_dir / "tmp"
    # C1-only JIT and the serial collector with a fixed heap: the JVM warms
    # up within the untimed oracle check and keeps few background threads,
    # so pass times do not drift while C2 is still compiling.
    java_opts = f"-XX:-UsePerfData -XX:TieredStopAtLevel=1 -XX:+UseSerialGC -Xms2g -Djava.io.tmpdir={tmp}"
    return " ".join(
        [
            f"--master local[{min(SPARK_THREADS, os.cpu_count() or 1)}]",
            "--driver-memory 2g",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(out_dir / 'spark-local'))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(out_dir / 'spark-warehouse'))}",
            "pyspark-shell",
        ]
    )


class LiveWorkload:
    """``live_spark_tpch``."""

    def __init__(self, seed: int, *, tiny: bool = False, out_dir: Path):
        os.environ["PYSPARK_SUBMIT_ARGS"] = _submit_args(out_dir)
        # spark-submit first runs a launcher JVM; keep its files in the checkout too
        os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={out_dir / 'tmp'}"
        from repro.core.configspace import arm_space
        from repro.workloads import tpch

        self.space = arm_space()
        self.sfs = TINY_SFS if tiny else SFS
        # The benchmark resolves the table generator through its module at
        # call time, so the traced run can wrap it.
        self.benchmark = dataclasses.replace(
            tpch.TPCH_LITE, make_tables=lambda spark, sf: tpch.tpch_tables(spark, sf)
        )
        names = self.benchmark.query_names
        if tiny:
            names = names[:3]
        lhs = self.space.sample_lhs(1 if tiny else N_LHS, np.random.default_rng(LHS_SEED))
        self.confs = [self.space.default_conf()] + lhs
        rng = np.random.default_rng(seed)
        pairs = [(ci, sf) for ci in range(len(self.confs)) for sf in self.sfs]
        self.order = [pairs[i] for i in rng.permutation(len(pairs))]
        self.query_order = {p: [names[i] for i in rng.permutation(len(names))] for p in pairs}
        self.names = names
        self.problems: list[str] = []
        self.machine: dict = {}
        self.spark = None
        self.ex = None
        self._groups: list[str] = []
        self._setup_builds = 1
        #: Times stay wall-clock: host speed probes did not track the JVM's
        #: multi-threaded query work (see README.md, "Host speed").
        self.probe = None

    # -- set-up ----------------------------------------------------------
    def setup(self, repeats: int, tracer=None) -> float:
        """Spark session start (once) plus the median of ``repeats``
        executor constructions with table generation at both SFs."""
        import pyspark
        from pyspark.sql import SparkSession

        from repro.execmodel.spark_exec import SparkSQLExecutor
        from repro.workloads import tpch

        t0 = time.perf_counter()
        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        session_s = time.perf_counter() - t0
        self.machine = {
            "pyspark": pyspark.__version__,
            "spark_master": self.spark.sparkContext.master,
            "spark_threads": self.spark.sparkContext.defaultParallelism,
        }
        if tracer is not None:
            tracer.run_id = -1
            tracer.wrap(tpch, "tpch_tables", "workloads.make_tables")
        builds = []
        try:
            for _ in range(repeats):
                t1 = time.perf_counter()
                ex = SparkSQLExecutor(self.spark, self.benchmark)
                for sf in self.sfs:
                    ex.tables(sf)
                builds.append(time.perf_counter() - t1)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        self.ex = ex
        self._setup_builds = repeats
        return session_s + statistics.median(builds)

    # -- correctness -----------------------------------------------------
    def check_before(self) -> tuple[int, int]:
        """Every query at each SF against DuckDB, under the default and the
        first non-default configuration; then one untimed warm-up pass."""
        from repro.oracle import assert_equivalent
        from repro.workloads.registry import register_views

        t0 = time.perf_counter()
        failed = attempted = 0
        for sf in self.sfs:
            tables = self.ex.tables(sf)
            register_views(self.spark, tables)
            pdfs = {k: v.toPandas() for k, v in tables.items()}
            for ci in (0, 1):
                prev = self.ex._apply(self.confs[ci])
                try:
                    for name in self.names:
                        sql = self.benchmark.query(name).sql
                        attempted += 1
                        try:
                            assert_equivalent(self.spark.sql(sql), sql, **pdfs)
                        except AssertionError as exc:
                            failed += 1
                            self.problems.append(f"oracle sf={sf} conf={ci} {name}: {exc}")
                finally:
                    self.ex._restore(prev)
        # After the oracle check alone, the first timed pass still ran 10-25 %
        # slower than the next, so a run's median depended on its pass count.
        warm = self.run_pass()
        self.problems += warm.problems
        self.check_s = time.perf_counter() - t0
        return failed + warm.failed, attempted + warm.attempted

    def check_after(self) -> tuple[int, int]:
        """Runtime-tunable keys Spark refused during the runs."""
        from repro.execmodel.spark_exec import RUNTIME_TUNABLE

        for key in sorted(self.ex.unsupported):
            self.problems.append(f"unsupported key: {key}")
        return len(self.ex.unsupported), len(RUNTIME_TUNABLE)

    # -- timed work ------------------------------------------------------
    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult(0.0, [], 0, 0, 0, by_sf={sf: [] for sf in self.sfs})
        charged0 = self.ex.charged_seconds
        t0 = time.perf_counter()
        if tracer is None:
            runs = [self._run(pair, out) for pair in self.order]
        else:
            with tracer.span("pass"):
                runs = [self._run(pair, out) for pair in self.order]
        out.wall_s = time.perf_counter() - t0
        out.charged_s = self.ex.charged_seconds - charged0
        for (ci, sf), r in zip(self.order, runs):
            qs = self.query_order[(ci, sf)]
            out.attempted += len(qs)
            if r is None:
                out.failed += len(qs)
                continue
            ms = [1e3 * r.times[q] for q in qs]
            out.steps_ms += ms
            out.by_sf[sf] += ms
            out.n_steps += len(ms)
            out.totals[(ci, sf)] = r.total
        return out

    def _run(self, pair, out: PassResult):
        ci, sf = pair
        try:
            return self.ex.run(self.confs[ci], sf, self.query_order[pair])
        except Exception as exc:  # a run that raises is a counted failure
            import traceback

            traceback.print_exc(file=sys.stderr)
            out.problems.append(f"run conf={ci} sf={sf}: {type(exc).__name__}: {exc}")
            return None

    # -- tracing ---------------------------------------------------------
    def install(self, tracer) -> None:
        from layers import install_live

        self._groups = install_live(tracer, self.spark)

    def layer_extra(self, tracer, n_traced: int) -> dict:
        from layers import spark_stage_totals
        from tracing import summarize

        n = max(1, n_traced)
        st = spark_stage_totals(self.spark, self._groups)
        setup = summarize(tracer.spans, lambda sp: sp.run_id < 0)
        return {
            "spark_exec.unsupported": float(len(self.ex.unsupported)),
            "spark.tasks": st["tasks"] / n,
            "spark.executor_run_s": st["run_ms"] / 1e3 / n,
            "spark.jvm_gc_s": st["gc_ms"] / 1e3 / n,
            "spark.shuffle_read_mb": st["read_b"] / 2**20 / n,
            "spark.shuffle_write_mb": st["write_b"] / 2**20 / n,
            "spark.spill_mb": st["spill_b"] / 2**20 / n,
            "workloads.make_tables.s": setup.get("workloads.make_tables", {}).get("total_s", 0.0)
            / self._setup_builds,
        }

    # -- report ----------------------------------------------------------
    def report(self, passes: list[PassResult]) -> dict:
        wall = sum(p.wall_s for p in passes)
        out = {}
        for sf in self.sfs:
            lat = [x for p in passes for x in p.by_sf[sf]]
            out[f"live_query_ms_p50 sf={sf:g}"] = f"{np.percentile(lat, 50):.4f} ms"
            out[f"live_query_ms_p90 sf={sf:g}"] = f"{np.percentile(lat, 90):.4f} ms (n={len(lat)})"
        out["check_s"] = f"{self.check_s:.3f} s (oracle check and warm-up, untimed)"
        out["live_queries_per_s"] = f"{sum(p.n_steps for p in passes) / wall:.4f} 1/s"
        out["opt_hours"] = f"{statistics.median(p.charged_s for p in passes) / 3600:.6f} h (charged per pass)"
        ratios = []
        for sf in self.sfs:
            t = {
                ci: statistics.median(p.totals[(ci, sf)] for p in passes)
                for ci in range(len(self.confs))
                if all((ci, sf) in p.totals for p in passes)
            }
            if 0 in t:
                ratios.append(min(t.values()) / t[0])
        if ratios:
            ratio = math.exp(statistics.fmean(map(math.log, ratios)))
            out["tuned_ratio"] = f"{ratio:.4f} (best replayed / default)"
        return out

    def close(self) -> None:
        """Stop Spark and the JVM it runs in, and wait for the JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)
            SparkContext._gateway = None
            SparkContext._jvm = None
        self.spark = None
