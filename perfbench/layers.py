"""The layer entry points the traced run wraps, and the per-layer metrics.

Each wrapper is installed from here, outside the program, around a public
entry point of one ``repro.*`` layer (or a LOCAT phase method). Span names
are the metric prefixes. :data:`PER_LAYER` is the full list of per-layer
metrics every traced run prints, in ``BENCHMARK.json`` order; a metric of a
layer a workload does not run reads 0.
"""
from __future__ import annotations

import math
import statistics

from tracing import Tracer, summarize

__all__ = ["PER_LAYER", "install_sim", "install_live", "spark_stage_totals", "per_layer_metrics"]

#: (name, unit) of every per-layer metric.
PER_LAYER: list[tuple[str, str]] = [
    ("acquisition.sample_hypers.calls", "count"),
    ("acquisition.sample_hypers.self_s", "s"),
    ("acquisition.score.self_s", "s"),
    ("acquisition.score.rows", "count"),
    ("gp.lml.calls", "count"),
    ("gp.lml.self_s", "s"),
    ("gp.lml.n_mean", "count"),
    ("gp.lml.finite_ratio", "ratio"),
    ("gp.fit.self_s", "s"),
    ("gp.predict.self_s", "s"),
    ("bo.self_s", "s"),
    ("bo.iters", "count"),
    ("bo.early_stop_ratio", "ratio"),
    ("configspace.sample_random.calls", "count"),
    ("configspace.sample_random.self_s", "s"),
    ("simulator.sample_feasible.self_s", "s"),
    ("qcsa.self_s", "s"),
    ("qcsa.rqa_frac", "ratio"),
    ("iicp.self_s", "s"),
    ("iicp.cps_kept_frac", "ratio"),
    ("kpca.fit.calls", "count"),
    ("kpca.fit.self_s", "s"),
    ("kpca.preimage.calls", "count"),
    ("kpca.preimage.self_s", "s"),
    ("locat.bootstrap.s", "s"),
    ("locat.bootstrap.charged_frac", "ratio"),
    ("locat.search.s", "s"),
    ("locat.search.charged_frac", "ratio"),
    ("locat.confirm.s", "s"),
    ("locat.confirm.charged_frac", "ratio"),
    ("locat.self_s", "s"),
    ("simulator.run.calls", "count"),
    ("simulator.run.self_s", "s"),
    ("simulator.queries_per_run", "count"),
    ("baselines.tuneful.s", "s"),
    ("baselines.dac.s", "s"),
    ("baselines.gborl.s", "s"),
    ("baselines.qtune.s", "s"),
    ("mlmodels.gbrt.fit.self_s", "s"),
    ("mlmodels.gbrt.predict.self_s", "s"),
    ("spark_exec.apply_restore.s", "s"),
    ("spark_exec.register_views.s", "s"),
    ("spark_exec.plan.s", "s"),
    ("spark_exec.action.s", "s"),
    ("spark_exec.unsupported", "count"),
    ("spark.tasks", "count"),
    ("spark.executor_run_s", "s"),
    ("spark.jvm_gc_s", "s"),
    ("spark.shuffle_read_mb", "MB"),
    ("spark.shuffle_write_mb", "MB"),
    ("spark.spill_mb", "MB"),
    ("workloads.make_tables.s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.residual_frac", "ratio"),
    ("trace.spans", "count"),
]


def install_sim(tracer: Tracer) -> None:
    """Wrap the tuner-side layers the simulated workloads run."""
    from repro.baselines import dac, gborl, qtune, tuneful
    from repro.cluster.simulator import SimulatedCluster
    from repro.core import acquisition, gp, locat
    from repro.core.configspace import ConfigSpace
    from repro.core.kpca import KernelPCA
    from repro.mlmodels.gbrt import GBRTRegressor

    count = tracer.count

    def lml_after(_pre, args, _kw, result):
        count("gp.lml.n", len(args[1]))
        count("gp.lml.finite", float(math.isfinite(result)))

    # sample_hypers resolves log_marginal_likelihood in the acquisition
    # module, GP.log_marginal_likelihood in the gp module: wrap both names.
    tracer.wrap(acquisition, "log_marginal_likelihood", "gp.lml", after=lml_after)
    tracer.wrap(gp, "log_marginal_likelihood", "gp.lml", after=lml_after)
    tracer.wrap(gp.GP, "__init__", "gp.fit")
    tracer.wrap(gp.GP, "predict", "gp.predict")
    tracer.wrap(acquisition, "sample_hypers", "acquisition.sample_hypers")
    tracer.wrap(
        acquisition.EIMCMC,
        "score",
        "acquisition.score",
        after=lambda _p, args, _k, r: count("acquisition.score.rows", len(r)),
    )

    def bo_after(_pre, _args, _kw, result):
        count("bo.iters", result.n_iters)
        count("bo.early_stop", float(result.stopped_early))

    for mod in (locat, tuneful, gborl):
        tracer.wrap(mod, "bo_minimize", "bo", after=bo_after)

    tracer.wrap(ConfigSpace, "sample_random", "configspace.sample_random")
    tracer.wrap(SimulatedCluster, "sample_feasible", "simulator.sample_feasible")
    tracer.wrap(
        SimulatedCluster,
        "run",
        "simulator.run",
        after=lambda _p, _a, _k, r: count("simulator.queries", len(r.times)),
    )

    tracer.wrap(
        locat,
        "qcsa_from_runs",
        "qcsa",
        after=lambda _p, _a, _k, r: count("qcsa.rqa_frac", len(r.rqa) / len(r.cvs)),
    )
    tracer.wrap(
        locat,
        "iicp",
        "iicp",
        after=lambda _p, _a, _k, r: count("iicp.cps_kept_frac", len(r.cps_result.kept) / r.space.dim),
    )
    tracer.wrap(KernelPCA, "fit", "kpca.fit")
    tracer.wrap(KernelPCA, "inverse_transform", "kpca.preimage")

    for method, phase in (("_bootstrap", "bootstrap"), ("_search", "search"), ("_best_at", "confirm")):
        key = f"locat.{phase}.charged_s"
        tracer.wrap(
            locat.Locat,
            method,
            f"locat.{phase}",
            before=lambda args, _kw: (args[1], args[1].charged_seconds),
            after=lambda pre, _a, _k, _r, key=key: count(key, pre[0].charged_seconds - pre[1]),
        )
    tracer.wrap(locat.Locat, "tune", "locat.tune")
    tracer.wrap(locat.Locat, "tune_multi", "locat.tune_multi")

    for cls, name in (
        (tuneful.Tuneful, "tuneful"),
        (dac.DAC, "dac"),
        (gborl.GBORL, "gborl"),
        (qtune.QTune, "qtune"),
    ):
        tracer.wrap(cls, "tune", f"baselines.{name}")
    tracer.wrap(GBRTRegressor, "fit", "mlmodels.gbrt.fit")
    tracer.wrap(GBRTRegressor, "predict", "mlmodels.gbrt.predict")


def install_live(tracer: Tracer, spark) -> list[str]:
    """Wrap the live executor's steps; returns the list the Spark job group
    of every query is appended to."""
    from repro.execmodel.spark_exec import SparkSQLExecutor
    from repro.workloads import registry

    groups: list[str] = []
    sc = spark.sparkContext

    def set_group(_args, _kw):
        gid = f"perfbench-{len(groups)}"
        groups.append(gid)
        sc.setJobGroup(gid, "perfbench query", False)

    tracer.wrap(SparkSQLExecutor, "run", "spark_exec.run")
    tracer.wrap(SparkSQLExecutor, "_apply", "spark_exec.apply")
    tracer.wrap(SparkSQLExecutor, "_restore", "spark_exec.restore")
    tracer.wrap(registry, "register_views", "spark_exec.register_views")
    tracer.wrap(SparkSQLExecutor, "_execute_query", "spark_exec.query", before=set_group)
    tracer.wrap(spark, "sql", "spark_exec.plan")
    return groups


def spark_stage_totals(spark, groups: list[str]) -> dict[str, float]:
    """Sum stage metrics of every job in ``groups`` from Spark's status store.

    Waits for the listener bus first: the store is filled asynchronously
    after an action returns.
    """
    from py4j.protocol import Py4JJavaError

    sc = spark.sparkContext
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    store = jsc.statusStore()
    tracker = sc.statusTracker()
    tot = {"tasks": 0.0, "run_ms": 0.0, "gc_ms": 0.0, "read_b": 0.0, "write_b": 0.0, "spill_b": 0.0}
    for gid in groups:
        for job in tracker.getJobIdsForGroup(gid):
            info = tracker.getJobInfo(job)
            for sid in info.stageIds if info is not None else ():
                try:
                    sd = store.lastStageAttempt(sid)
                except Py4JJavaError:  # skipped stage: never ran, no data
                    continue
                tot["tasks"] += sd.numTasks()
                tot["run_ms"] += sd.executorRunTime()
                tot["gc_ms"] += sd.jvmGcTime()
                tot["read_b"] += sd.shuffleReadBytes()
                tot["write_b"] += sd.shuffleWriteBytes()
                tot["spill_b"] += sd.memoryBytesSpilled() + sd.diskBytesSpilled()
    sc.setLocalProperty("spark.jobGroup.id", None)
    return tot


def per_layer_metrics(
    tracer: Tracer,
    *,
    traced_s: list[float],
    untraced_s: list[float],
    traced_wall_s: list[float],
    extra: dict[str, float],
) -> dict[str, dict]:
    """Every :data:`PER_LAYER` metric, per timed pass, from the traced passes.

    ``traced_s`` and ``untraced_s`` are pass times at reference host speed,
    so ``trace.overhead_s`` leaves out drift between the two halves; span
    times are wall-clock, and ``traced_wall_s`` gives the pass wall-clock
    times they are a share of. ``extra`` supplies values measured outside the spans (Spark stage
    totals, unsupported keys, set-up spans); anything absent reads 0.
    """
    n = max(1, len(traced_s))
    agg = summarize(tracer.spans, lambda sp: sp.run_id >= 0)
    c = tracer.counters

    def calls(name):
        return agg.get(name, {}).get("calls", 0) / n

    def self_s(*names):
        return sum(agg.get(nm, {}).get("self_s", 0.0) for nm in names) / n

    def total_s(name):
        return agg.get(name, {}).get("total_s", 0.0) / n

    def mean_of(counter, name):
        k = agg.get(name, {}).get("calls", 0)
        return c[counter] / k if k else 0.0

    charged = sum(c[f"locat.{p}.charged_s"] for p in ("bootstrap", "search", "confirm"))
    run_traced = statistics.median(traced_s)
    run_plain = statistics.median(untraced_s)
    residual = self_s("pass")
    v = {
        "acquisition.sample_hypers.calls": calls("acquisition.sample_hypers"),
        "acquisition.sample_hypers.self_s": self_s("acquisition.sample_hypers"),
        "acquisition.score.self_s": self_s("acquisition.score"),
        "acquisition.score.rows": c["acquisition.score.rows"] / n,
        "gp.lml.calls": calls("gp.lml"),
        "gp.lml.self_s": self_s("gp.lml"),
        "gp.lml.n_mean": mean_of("gp.lml.n", "gp.lml"),
        "gp.lml.finite_ratio": mean_of("gp.lml.finite", "gp.lml"),
        "gp.fit.self_s": self_s("gp.fit"),
        "gp.predict.self_s": self_s("gp.predict"),
        "bo.self_s": self_s("bo"),
        "bo.iters": c["bo.iters"] / n,
        "bo.early_stop_ratio": mean_of("bo.early_stop", "bo"),
        "configspace.sample_random.calls": calls("configspace.sample_random"),
        "configspace.sample_random.self_s": self_s("configspace.sample_random"),
        "simulator.sample_feasible.self_s": self_s("simulator.sample_feasible"),
        "qcsa.self_s": self_s("qcsa"),
        "qcsa.rqa_frac": mean_of("qcsa.rqa_frac", "qcsa"),
        "iicp.self_s": self_s("iicp"),
        "iicp.cps_kept_frac": mean_of("iicp.cps_kept_frac", "iicp"),
        "kpca.fit.calls": calls("kpca.fit"),
        "kpca.fit.self_s": self_s("kpca.fit"),
        "kpca.preimage.calls": calls("kpca.preimage"),
        "kpca.preimage.self_s": self_s("kpca.preimage"),
        "locat.self_s": self_s("locat.tune_multi", "locat.tune", "locat.bootstrap", "locat.search", "locat.confirm"),
        "simulator.run.calls": calls("simulator.run"),
        "simulator.run.self_s": self_s("simulator.run"),
        "simulator.queries_per_run": mean_of("simulator.queries", "simulator.run"),
        "baselines.tuneful.s": total_s("baselines.tuneful"),
        "baselines.dac.s": total_s("baselines.dac"),
        "baselines.gborl.s": total_s("baselines.gborl"),
        "baselines.qtune.s": total_s("baselines.qtune"),
        "mlmodels.gbrt.fit.self_s": self_s("mlmodels.gbrt.fit"),
        "mlmodels.gbrt.predict.self_s": self_s("mlmodels.gbrt.predict"),
        "spark_exec.apply_restore.s": total_s("spark_exec.apply") + total_s("spark_exec.restore"),
        "spark_exec.register_views.s": total_s("spark_exec.register_views"),
        "spark_exec.plan.s": total_s("spark_exec.plan"),
        "spark_exec.action.s": self_s("spark_exec.query"),
        "trace.run_s": run_traced,
        "trace.untraced_run_s": run_plain,
        "trace.overhead_s": run_traced - run_plain,
        "trace.residual_s": residual,
        "trace.residual_frac": residual / statistics.median(traced_wall_s),
        "trace.spans": sum(a["calls"] for a in agg.values()) / n,
    }
    for phase in ("bootstrap", "search", "confirm"):
        v[f"locat.{phase}.s"] = total_s(f"locat.{phase}")
        v[f"locat.{phase}.charged_frac"] = c[f"locat.{phase}.charged_s"] / charged if charged else 0.0
    v.update(extra)
    units = dict(PER_LAYER)
    unknown = set(v) - set(units)
    if unknown:
        raise KeyError(f"per-layer metrics missing from PER_LAYER: {sorted(unknown)}")
    return {k: {"value": _num(v.get(k, 0.0)), "unit": u} for k, u in units.items()}


def _num(x: float) -> float:
    x = float(x)
    return x if math.isfinite(x) else 0.0
