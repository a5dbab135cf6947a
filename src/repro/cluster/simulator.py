"""Analytic Spark SQL cluster simulator.

The paper evaluates tuners against real 100 GB–1 TB runs on two physical
clusters; one sample takes minutes and a full tuning campaign takes days
(Figure 2). This module is the laptop-scale substitute: a deterministic
analytic model mapping ``(configuration, data size, query profile)`` to
an execution time, exposing exactly the black-box interface every tuner
in the paper consumes.

The model is intentionally structural, not fitted: each cost term
corresponds to a mechanism the paper names —

* task parallelism from ``executor.instances x executor.cores`` capped by
  cluster resources (Section 2.1);
* shuffle volume cut by ``shuffle.compress`` / zstd level, moved over a
  finite-bandwidth network (Section 5.4);
* spill I/O when per-task shuffle data exceeds execution memory — this is
  what makes ``spark.sql.shuffle.partitions`` the top parameter
  (Table 3);
* JVM GC time from heap pressure (:mod:`repro.cluster.gc_model`,
  Figure 19);
* broadcast-join savings under ``spark.sql.autoBroadcastJoinThreshold``;
* small monotone effects for the long tail of parameters, plus a rugged
  hash-based term in the *unimportant* parameters. The ruggedness models
  the paper's observation (Section 5.6) that "unimportant parameters may
  counteract the performance improvements caused by tuning the important
  ones" — it is what makes tuning all 38 parameters worse than tuning
  the 15 important ones (Figure 15).

Multiplicative log-normal noise (per run counter) models run-to-run
variance; 'selection' queries are dominated by fixed scan cost + noise,
giving them the low CVs of Figure 8.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.cluster.gc_model import gc_seconds
from repro.cluster.hardware import ClusterSpec
from repro.cluster.profiles import QueryProfile, _h01, _u01
from repro.execmodel.interface import RunResult

__all__ = ["SimulatedCluster"]

#: Skew factor: the largest shuffle partition holds this multiple of the mean.
_SKEW = 6.0
#: Hash-table/object inflation of reduce-side working data on the JVM heap.
_INFLATION = 4.0
_TASK_OVERHEAD_S = 0.012
_SPLIT_GB = 0.128
#: Log-normal sigma of the run-level noise; each query adds half of it.
_NOISE = 0.12
_INSTANCES = "spark.executor.instances"
_OVERHEAD = "spark.executor.memoryOverhead"
_OFFHEAP = "spark.memory.offHeap.size"
#: The parameters that size one executor, in the order of
#: `SimulatedCluster._slabs_of`'s arguments.
_RESOURCES = ("spark.executor.cores", "spark.executor.memory", _OVERHEAD, _OFFHEAP, "spark.memory.offHeap.enabled")
#: Parameters `SimulatedCluster._fit` returns beyond the caller's keys.
_ADJUSTED = frozenset({_INSTANCES, _OVERHEAD, _OFFHEAP})


def _gauss(key: bytes) -> float:
    """Deterministic standard normal from the bytes of a ``|``-joined key
    (Box-Muller): the normal ``_h01`` draws for the key's parts."""
    u1 = max(_u01(key + b"|u1"), 1e-12)
    u2 = _u01(key + b"|u2")
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


#: Parameters whose rugged hash-bump term deceives full-space optimizers.
_RUGGED_PARAMS = (
    "spark.broadcast.blockSize",
    "spark.kryoserializer.buffer",
    "spark.kryoserializer.buffer.max",
    "spark.scheduler.revive.interval",
    "spark.storage.memoryMapThreshold",
    "spark.sql.cartesianProductExec.buffer.in.memory.threshold",
    "spark.sql.codegen.maxFields",
    "spark.sql.inMemoryColumnarStorage.batchSize",
)


def _exec_mem(heap: float, overhead_gb: float, offheap_gb: float) -> float:
    """GB one executor takes from the cluster; overhead counts as at least
    6.25% of the heap."""
    return heap + max(overhead_gb, 0.0625 * heap) + offheap_gb


def _bucket(v) -> int:
    return int(v) if isinstance(v, bool) else int(round(float(v) * 16))


def _rugged_hashes(conf: dict) -> list[float]:
    """The rugged hash of each :data:`_RUGGED_PARAMS` value in ``conf``,
    then of each adjacent pair's values."""
    names = _RUGGED_PARAMS
    return [_h01("rug", name, _bucket(conf[name])) for name in names] + [
        _h01("rug2", a, b, _bucket(conf[a]), _bucket(conf[b])) for a, b in zip(names[::2], names[1::2])
    ]


#: Weight of each of :func:`_rugged_hashes`' terms: pairs count 0.8.
_RUGGED_WEIGHTS = (1.0,) * len(_RUGGED_PARAMS) + (0.8,) * (len(_RUGGED_PARAMS) // 2)


def _rugged_multiplier(conf: dict, default_hashes: list[float]) -> float:
    """Application-level multiplicative bump from the *unimportant*
    parameters — the mechanism behind the paper's Section 5.6 finding
    that "unimportant parameters may counteract the performance
    improvements caused by tuning the important ones" (Figure 15).

    Each rugged parameter contributes a deterministic *non-negative*
    pseudo-random penalty per distinct non-default value (no learnable
    monotone structure), plus pairwise interaction terms. Spark's
    defaults for these minor parameters are well-engineered, so deviating
    can only hurt — which is precisely the paper's Section 5.6 claim. A
    tuner that leaves them at their defaults (LOCAT after IICP) sees a
    clean low-dimensional landscape; a tuner that searches all 38
    dimensions pays a rugged, unlearnable tax.

    ``default_hashes`` is :func:`_rugged_hashes` of the defaults, which a
    cluster computes once.
    """
    bump = 0.0
    for w, h, d in zip(_RUGGED_WEIGHTS, _rugged_hashes(conf), default_hashes):
        bump += w * abs(h - d)
    return 1.0 + 0.05 * bump


class _Columns:
    """The profiles of one query tuple as float64 columns (``max_cores`` as
    int64), in the tuple's order. The category columns hold the factor that
    scales a query's reduce CPU when a parameter's effect applies to its
    category, and 1.0 elsewhere (``x * 1.0`` is exact)."""

    def __init__(self, profiles: list[QueryProfile]):
        def col(field: str) -> np.ndarray:
            return np.array([getattr(p, field) for p in profiles], dtype=np.float64)

        self.names = [p.name for p in profiles]
        self.keys = [p.name.encode() for p in profiles]  # the noise-key parts
        self.cpu_per_gb = col("cpu_per_gb")
        self.shuffle_per_gb = col("shuffle_per_gb")
        self.reduce_frac = col("reduce_frac")
        self.mem_per_gb = col("mem_per_gb")
        self.input_frac = col("input_frac")
        self.base_s = col("base_s")
        self.broadcast_kb = col("broadcast_kb")
        self.max_cores = np.array([p.max_cores for p in profiles], dtype=np.int64)
        cat = np.array([p.category for p in profiles])
        self.selection = cat == "selection"
        # sort-merge pays a sort; hash join is cheaper in memory
        self.sort_merge = np.where(cat == "join", 1.06, 1.0)
        self.one_level_agg = np.where(cat == "aggregation", 1.02, 1.0)
        self.no_radix_sort = np.where(self.selection, 1.0, 1.01)


class SimulatedCluster:
    """Simulates Spark SQL application runs on a :class:`ClusterSpec`;
    implements the :class:`~repro.execmodel.interface.Executor` protocol.

    ``run`` appends the run to ``runs``; ``charged_seconds``, the total of
    that log, is the quantity every "optimization time" comparison in the
    paper measures.
    ``evaluate`` prices a configuration without charging (used to score
    final tuned configurations, mirroring the paper's separate speedup
    measurements).
    """

    def __init__(self, spec: ClusterSpec, profiles: list[QueryProfile], *, seed: int = 0):
        if not profiles:
            raise ValueError("need at least one query profile")
        from repro.core.configspace import TABLE2

        self.spec = spec
        self.profiles = {p.name: p for p in profiles}
        self.seed = seed
        self.runs: list[RunResult] = []
        self._defaults = {p.name: p.clip(p.default) for p in TABLE2}
        self._rugged_base = _rugged_hashes(self._defaults)
        self._columns: dict[tuple[str, ...] | None, _Columns] = {}

    # -- public API ------------------------------------------------------
    @property
    def charged_seconds(self) -> float:
        return sum((r.total for r in self.runs), 0.0)

    @property
    def query_names(self) -> list[str]:
        return list(self.profiles)

    @property
    def query_categories(self) -> dict[str, str]:
        return {name: p.category for name, p in self.profiles.items()}

    def _get(self, conf: dict, name: str):
        """``conf``'s value of ``name`` over the Table 2 default."""
        return conf[name] if name in conf else self._defaults[name]

    def _slabs(self, conf: dict) -> tuple[int, float, float, float, float]:
        """:meth:`_slabs_of` the :data:`_RESOURCES` values of ``conf`` over the
        defaults."""
        get = self._get
        return self._slabs_of(*[get(conf, name) for name in _RESOURCES])

    def _slabs_of(self, cores, memory, overhead, offheap, offheap_on) -> tuple[int, float, float, float, float]:
        """Cores, heap GB, overhead GB, off-heap GB and total memory GB of one
        executor of these :data:`_RESOURCES` values, with cores and heap capped
        by the container."""
        spec = self.spec
        cores = int(min(cores, spec.container_max_cores))
        heap = float(min(memory, spec.container_max_mem_gb))
        overhead_gb = float(overhead) / 1024.0
        offheap_gb = float(offheap) / 1024.0 if offheap_on else 0.0
        return cores, heap, overhead_gb, offheap_gb, _exec_mem(heap, overhead_gb, offheap_gb)

    def _inst_cap(self, cores: int, per_exec_mem: float) -> int:
        """Most executors of this size the cluster holds, and at least one."""
        spec = self.spec
        return max(1, int(min(spec.total_mem_gb // per_exec_mem, spec.total_cores // cores)))

    def is_feasible(self, conf: dict) -> bool:
        """Section 5.12's joint resource constraint: the product of
        ``executor.instances`` and per-process resources must fit in the
        cluster. The paper's tuners only sample feasible configurations;
        infeasible ones would simply fail YARN allocation."""
        spec = self.spec
        cores, heap, overhead_gb, offheap_gb, per_exec_mem = self._slabs(conf)
        inst = int(self._get(conf, "spark.executor.instances"))
        if heap + overhead_gb + offheap_gb > spec.container_max_mem_gb * 2.0:
            return False
        return inst * per_exec_mem <= spec.total_mem_gb and inst * cores <= spec.total_cores

    def _instance_bounds(self, space) -> tuple[int, int]:
        """``space``'s range of ``spark.executor.instances``, or its default
        twice on a subspace without it."""
        if _INSTANCES in space:
            p = space[_INSTANCES]
            return p.lo, p.hi
        return self._defaults[_INSTANCES], self._defaults[_INSTANCES]

    def _fit_values(self, values, bounds: tuple[int, int]) -> tuple[int | None, int | None, int, int]:
        """Section 5.12's rule on one executor's :data:`_RESOURCES` ``values``,
        Python scalars: heap + overhead + off-heap must fit the container, so
        the two optional slabs scale down proportionally if they do not. Returns
        the scaled overhead and off-heap MB (``None`` where a value stays) and
        the feasible ``spark.executor.instances`` range ``lo..hi`` within
        ``bounds``."""
        cores, heap, overhead_gb, offheap_gb, _ = self._slabs_of(*values)
        overhead_mb = offheap_mb = None
        cap = self.spec.container_max_mem_gb * 2.0
        excess = heap + overhead_gb + offheap_gb - cap
        if excess > 0 and overhead_gb + offheap_gb > 0:
            scale = max(0.0, (cap - heap)) / (overhead_gb + offheap_gb)
            overhead_gb *= scale
            offheap_gb *= scale
            overhead_mb = int(overhead_gb * 1024)
            if values[-1]:  # off-heap enabled
                offheap_mb = int(offheap_gb * 1024)
        lo_bound, hi_bound = bounds
        hi = int(min(hi_bound, self._inst_cap(cores, _exec_mem(heap, overhead_gb, offheap_gb))))
        return overhead_mb, offheap_mb, int(min(lo_bound, hi)), hi

    def _fit(self, conf: dict, space) -> tuple[dict, int, int]:
        """How ``conf`` fits the cluster under :meth:`_fit_values`: the caller's
        keys over the Table 2 defaults with the optional memory slabs scaled
        into the container, and the feasible ``spark.executor.instances``
        range ``lo..hi``."""
        get = self._get
        overhead_mb, offheap_mb, lo, hi = self._fit_values(
            [get(conf, name) for name in _RESOURCES], self._instance_bounds(space)
        )
        # the caller's keys and _ADJUSTED, in Table 2 order
        conf = {k: v for k, v in {**self._defaults, **conf}.items() if k in conf or k in _ADJUSTED}
        if overhead_mb is not None:
            conf[_OVERHEAD] = overhead_mb
        if offheap_mb is not None:
            conf[_OFFHEAP] = offheap_mb
        return conf, lo, hi

    def sample_feasible(self, space, rng) -> dict:
        """Random configuration satisfying :meth:`is_feasible`: a uniform draw
        whose ``spark.executor.instances`` is re-drawn uniformly over
        :meth:`_fit`'s range (repair, not rejection, keeps marginals broad).
        A one-value range takes no draw from ``rng``."""
        conf, lo, hi = self._fit(space.sample_random(rng), space)
        conf[_INSTANCES] = int(rng.integers(lo, hi + 1))
        return conf

    def sample_candidates(self, space, rng, n: int) -> tuple[np.ndarray, Callable[[int], dict]]:
        """``n`` :meth:`sample_feasible` draws at once: ``space.matrix`` of the
        ``n`` configurations, with the same stream and bits, and a function
        that builds the configuration of row ``j``.

        Each candidate still takes its own ``rng.random(dim)`` and then its
        instance-count draw. The loop computes only :meth:`_fit_values` of the
        candidate's resource values, each a :meth:`ConfigParam.denormalize`;
        the other values convert as one matrix, and a row's configuration is
        built only when asked for."""
        col = {name: i for i, name in enumerate(space.names)}
        # per resource value the draw decides: its index and column
        drawn = [(k, col[name], space[name].denormalize) for k, name in enumerate(_RESOURCES) if name in col]
        values = [self._defaults[name] for name in _RESOURCES]
        bounds = self._instance_bounds(space)
        U = np.empty((n, space.dim))
        draws, scaled = [], []  # scaled: (row, parameter, MB) of each scaled slab
        for i in range(n):
            u = rng.random(out=U[i])
            for k, c, denormalize in drawn:
                values[k] = denormalize(u[c])
            overhead_mb, offheap_mb, lo, hi = self._fit_values(values, bounds)
            draws.append(int(rng.integers(lo, hi + 1)))
            if overhead_mb is not None:
                scaled.append((i, _OVERHEAD, overhead_mb))
            if offheap_mb is not None:
                scaled.append((i, _OFFHEAP, offheap_mb))
        X = space.values(U)
        for i, name, mb in scaled:
            if name in col:
                X[i, col[name]] = mb
        if _INSTANCES in col:
            X[:, col[_INSTANCES]] = draws

        def conf(j: int) -> dict:
            c, _, _ = self._fit(space.from_vector(U[j]), space)
            c[_INSTANCES] = draws[j]
            return c

        return space.normalize(X), conf

    def repair(self, conf: dict, space) -> dict:
        """``conf`` with ``spark.executor.instances`` clipped into the range
        of :meth:`_fit`."""
        conf, lo, hi = self._fit(conf, space)
        conf[_INSTANCES] = int(min(max(conf[_INSTANCES], lo), hi))
        return conf

    def run(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """Execute the (possibly reduced) application at ``ds`` GB; charge its
        time and log the run."""
        r = self._execute(conf, ds, queries, noisy=True)
        self.runs.append(r)
        return r

    def evaluate(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """Noise-free expected execution time; nothing is charged."""
        return self._execute(conf, ds, queries, noisy=False)

    # -- model -----------------------------------------------------------
    def _columns_of(self, queries: list[str] | None) -> _Columns:
        """The profiles of ``queries`` (all, if ``None``) as columns, built on
        the first run of that query tuple."""
        key = None if queries is None else tuple(queries)
        cols = self._columns.get(key)
        if cols is None:
            names = list(self.profiles) if queries is None else list(queries)
            unknown = [q for q in names if q not in self.profiles]
            if unknown:
                raise KeyError(f"unknown queries: {unknown[:5]}")
            cols = self._columns[key] = _Columns([self.profiles[q] for q in names])
        return cols

    def _execute(self, conf: dict, ds_gb: float, queries: list[str] | None, *, noisy: bool) -> RunResult:
        """Time and GC time of every query of the run, one array element per
        query. Terms that depend only on the configuration are Python floats
        computed once. NumPy applies only operations that are exact on every
        host (``+ - * /``, ``ceil``, ``//``, ``minimum``/``maximum``,
        comparisons), so a query's result has the same bits as the same
        expressions on Python floats, wherever it sits in the run. Every
        ``exp``, ``log``, ``cos`` and ``**`` stays a scalar ``math`` or
        Python-float call."""
        # Partial configurations (subspace tuners, IICP grafting) leave the
        # untuned parameters at their Spark defaults.
        conf = {**self._defaults, **conf}
        c = self._columns_of(queries)
        spec = self.spec
        run_id = len(self.runs)
        rug = _rugged_multiplier(conf, self._rugged_base)
        cores, heap, _, offheap_gb, per_exec_mem = self._slabs(conf)
        inst = max(1, min(int(conf["spark.executor.instances"]), self._inst_cap(cores, per_exec_mem)))
        # Per-query parallelism ceiling: insensitive queries cannot use more
        # resources than their plan exposes (Section 5.11).
        total_cores = np.minimum(inst * cores, c.max_cores)
        read_gb = ds_gb * c.input_frac

        # ---- map stage ----
        cpu_map = c.cpu_per_gb * read_gb / spec.cpu_factor  # core-seconds
        map_tasks = np.maximum(1.0, np.ceil(read_gb / _SPLIT_GB))
        map_waves = np.ceil(map_tasks / total_cores)
        t_task_map = cpu_map / map_tasks
        sched_over = _TASK_OVERHEAD_S * (1.0 + 0.005 * float(conf["spark.scheduler.revive.interval"]))
        sched_over *= 1.0 + 0.1 / max(float(conf["spark.driver.cores"]), 1.0)
        # 2% of tasks wait out spark.locality.wait before launching non-local
        locality_pen = 0.004 * float(conf["spark.locality.wait"])
        t_map = map_waves * t_task_map + (map_tasks / total_cores) * (sched_over + locality_pen)

        # ---- shuffle volume ----
        S = c.shuffle_per_gb * read_gb  # GB written by mappers
        threshold = float(conf["spark.sql.autoBroadcastJoinThreshold"])
        # broadcast join avoids shuffling the big side's keys
        S = np.where((c.broadcast_kb != 0.0) & (threshold >= c.broadcast_kb), S * 0.35, S)
        zlevel = float(conf["spark.io.compression.zstd.level"])
        cpu_comp = 0.0
        if conf["spark.shuffle.compress"]:
            ratio = 0.50 - 0.04 * (zlevel - 1.0)  # higher level -> smaller
            S_wire = S * ratio
            cpu_comp = S * 0.008 * (1.0 + 0.3 * (zlevel - 1.0)) / spec.cpu_factor
        else:
            S_wire = S

        # ---- reduce stage ----
        partitions = max(1, int(conf["spark.sql.shuffle.partitions"]))
        # the largest (skewed) partition bounds spill sizing and the reduce
        # stage; skew dilutes as partitions grow (keys spread across
        # reducers)
        skew_eff = 1.0 + (_SKEW - 1.0) * math.sqrt(200.0 / partitions)
        net_eff = 0.92 + 0.08 * min(float(conf["spark.shuffle.io.numConnectionsPerPeer"]), 3.0) / 3.0
        net_eff *= 0.97 + 0.03 * min(float(conf["spark.reducer.maxSizeInFlight"]) / 96.0, 1.0)
        t_net = S_wire / (spec.net_total_gBps * net_eff)
        # map outputs are written to and re-read from local disks at the
        # (possibly compressed) stored size — the other half of why
        # spark.shuffle.compress matters (Section 5.4)
        t_shuffle_disk = 2.0 * S_wire / spec.disk_total_gBps

        cpu_red = cpu_map * c.reduce_frac + cpu_comp
        if conf["spark.sql.join.preferSortMergeJoin"]:
            cpu_red *= c.sort_merge
        if not conf["spark.sql.codegen.aggregate.map.twolevel.enable"]:
            cpu_red *= c.one_level_agg
        if not conf["spark.sql.sort.enableRadixSort"]:
            cpu_red *= c.no_radix_sort
        if partitions < float(conf["spark.shuffle.sort.bypassMergeThreshold"]):
            cpu_red *= 0.99  # bypass merge-sort for few partitions

        # spill: biggest partition vs per-task execution memory
        exec_frac = float(conf["spark.memory.fraction"]) * (
            1.0 - 0.5 * float(conf["spark.memory.storageFraction"])
        )
        slots = np.maximum(1, total_cores // inst)  # concurrent tasks per executor
        task_mem_gb = (heap * exec_frac + offheap_gb) / slots
        per_task_gb = (S / partitions) * skew_eff * _INFLATION
        spill_gb = np.maximum(0.0, per_task_gb - task_mem_gb) * partitions / skew_eff
        buf_eff = 0.97 + 0.03 * min(float(conf["spark.shuffle.file.buffer"]) / 96.0, 1.0)
        spill_comp = 0.6 if conf["spark.shuffle.spill.compress"] else 1.0
        t_spill = 3.0 * spill_gb * spill_comp / (spec.disk_total_gBps * buf_eff)

        reduce_waves = np.ceil(partitions / total_cores)
        t_red_cpu = np.maximum(reduce_waves * (cpu_red / partitions), (cpu_red / partitions) * skew_eff)
        # every reduce task pays fetch/setup cost proportional to the map
        # side fan-in: too many partitions hurts, giving the interior
        # optimum in spark.sql.shuffle.partitions that shifts with data
        # size and memory (Table 3 / Section 5.4)
        t_fanin = partitions * (0.004 + 3e-6 * map_tasks)
        t_reduce = (
            t_red_cpu
            + t_net
            + t_shuffle_disk
            + t_spill
            + t_fanin
            + (partitions / total_cores) * sched_over
        )

        # ---- GC ----
        # Heap pressure comes from the per-task reduce working set held by
        # each concurrently running task, plus the query's resident state
        # spread over executors.
        working_per_exec = (S / partitions) * _INFLATION * slots + c.mem_per_gb * read_gb * _INFLATION / inst
        frac = float(conf["spark.memory.fraction"])
        gc = gc_seconds(
            cpu_map / total_cores + cpu_red / total_cores,
            heap,
            frac,
            offheap_gb,
            bool(conf["spark.memory.offHeap.enabled"]),
            working_per_exec,
        )

        t = c.base_s + t_map + t_reduce + gc
        # per-executor startup/heartbeat overhead: many tiny executors cost
        t += inst * 0.004
        # starving user/metadata memory (fraction near 0.9) causes task
        # retries and OOM-adjacent churn: interior optimum in
        # spark.memory.fraction (too low -> GC above, too high -> this)
        if frac > 0.75:
            churn = 1.0 + 1.2 * (frac - 0.75) ** 2 * np.minimum(read_gb / 50.0, 4.0)
            t *= np.where(c.selection, 1.0, churn)

        # small monotone costs for the remaining long-tail parameters
        t *= 1.0 + 0.002 * (float(conf["spark.broadcast.blockSize"]) / 16.0)
        if not conf["spark.broadcast.compress"]:
            t *= 1.003
        if not conf["spark.rdd.compress"]:
            t *= 1.002
        t *= rug
        if noisy:
            # Run-level noise models shared cluster state (JIT, page cache,
            # co-location); per-query noise is smaller and independent, so the
            # application total does not average the variance away. A query's
            # key is "seed|run|query|ds", whatever its place in the run.
            prefix = f"{self.seed!s}|{run_id!s}|".encode()
            suffix = f"|{round(ds_gb, 3)!s}".encode()
            run_noise = math.exp(_NOISE * _gauss(prefix + b"run" + suffix))
            t *= np.array([run_noise * math.exp(0.5 * _NOISE * _gauss(prefix + q + suffix)) for q in c.keys])
        return RunResult(
            times=dict(zip(c.names, t.tolist())),
            conf=dict(conf),
            ds=float(ds_gb),
            gc_times=dict(zip(c.names, gc.tolist())),
        )
