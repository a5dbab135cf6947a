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

from repro.cluster.gc_model import gc_seconds
from repro.cluster.hardware import ClusterSpec
from repro.cluster.profiles import QueryProfile, _h01
from repro.execmodel.interface import RunResult

__all__ = ["SimulatedCluster"]

#: Skew factor: the largest shuffle partition holds this multiple of the mean.
_SKEW = 6.0
#: Hash-table/object inflation of reduce-side working data on the JVM heap.
_INFLATION = 4.0
_TASK_OVERHEAD_S = 0.012
_SPLIT_GB = 0.128


def _gauss(*key: object) -> float:
    """Deterministic standard normal from a hashable key (Box-Muller)."""
    u1 = max(_h01(*key, "u1"), 1e-12)
    u2 = _h01(*key, "u2")
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


def _rugged_multiplier(conf: dict, defaults: dict) -> float:
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
    """
    bump = 0.0
    names = [n for n in _RUGGED_PARAMS if n in conf]
    for name in names:
        bump += abs(
            _h01("rug", name, _bucket(conf[name]))
            - _h01("rug", name, _bucket(defaults[name]))
        )
    for a, b in zip(names[::2], names[1::2]):
        bump += 0.8 * abs(
            _h01("rug2", a, b, _bucket(conf[a]), _bucket(conf[b]))
            - _h01("rug2", a, b, _bucket(defaults[a]), _bucket(defaults[b]))
        )
    return 1.0 + 0.05 * bump


class SimulatedCluster:
    """Simulates Spark SQL application runs on a :class:`ClusterSpec`;
    implements the :class:`~repro.execmodel.interface.Executor` protocol.

    ``run`` charges the simulated seconds to ``charged_seconds`` — the
    quantity every "optimization time" comparison in the paper measures —
    and appends the run to ``runs``.
    ``evaluate`` prices a configuration without charging (used to score
    final tuned configurations, mirroring the paper's separate speedup
    measurements).
    """

    def __init__(self, spec: ClusterSpec, profiles: list[QueryProfile], *, seed: int = 0, noise: float = 0.12):
        if not profiles:
            raise ValueError("need at least one query profile")
        from repro.core.configspace import TABLE2

        self.spec = spec
        self.profiles = {p.name: p for p in profiles}
        self.seed = seed
        self.noise = noise
        self.charged_seconds = 0.0
        self.runs: list[RunResult] = []
        self._defaults = {p.name: p.clip(p.default) for p in TABLE2}

    # -- public API ------------------------------------------------------
    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def query_names(self) -> list[str]:
        return list(self.profiles)

    @property
    def query_categories(self) -> dict[str, str]:
        return {name: p.category for name, p in self.profiles.items()}

    def _slabs(self, conf: dict) -> tuple[int, float, float, float, float]:
        """Cores, heap GB, overhead GB, off-heap GB and total memory GB of one
        executor, with cores and heap capped by the container."""
        spec = self.spec
        cores = int(min(conf["spark.executor.cores"], spec.container_max_cores))
        heap = float(min(conf["spark.executor.memory"], spec.container_max_mem_gb))
        overhead_gb = float(conf["spark.executor.memoryOverhead"]) / 1024.0
        offheap_gb = (
            float(conf["spark.memory.offHeap.size"]) / 1024.0
            if conf["spark.memory.offHeap.enabled"]
            else 0.0
        )
        return cores, heap, overhead_gb, offheap_gb, _exec_mem(heap, overhead_gb, offheap_gb)

    def is_feasible(self, conf: dict) -> bool:
        """Section 5.12's joint resource constraint: the product of
        ``executor.instances`` and per-process resources must fit in the
        cluster. The paper's tuners only sample feasible configurations;
        infeasible ones would simply fail YARN allocation."""
        conf = {**self._defaults, **conf}
        spec = self.spec
        cores, heap, overhead_gb, offheap_gb, per_exec_mem = self._slabs(conf)
        inst = int(conf["spark.executor.instances"])
        if heap + overhead_gb + offheap_gb > spec.container_max_mem_gb * 2.0:
            return False
        return inst * per_exec_mem <= spec.total_mem_gb and inst * cores <= spec.total_cores

    def sample_feasible(self, space, rng) -> dict:
        """Random configuration satisfying :meth:`is_feasible`.

        Draws all parameters uniformly, then *repairs*
        ``spark.executor.instances`` by re-drawing it uniformly over the
        range that fits the sampled per-executor resources — the paper's
        Section 5.12 constraint ("the product of spark.executor.instances
        and the resource amount of a single process [must] be less than
        the total amount of resources in the cluster") applied at
        sampling time instead of by rejection, so marginals stay broad."""
        conf = space.sample_random(rng)
        return self.repair(conf, space, rng)

    def repair(self, conf: dict, space, rng=None) -> dict:
        """Clamp ``spark.executor.instances`` into its feasible range given
        the other resource draws; re-draw it uniformly when ``rng`` is
        given, else clip."""
        spec = self.spec
        given_keys = set(conf)
        conf = {**self._defaults, **conf}
        cores, heap, overhead_gb, offheap_gb, _ = self._slabs(conf)
        # Section 5.12: heap + overhead + off-heap must fit the container;
        # scale the two optional slabs down proportionally if they do not.
        cap = spec.container_max_mem_gb * 2.0
        excess = heap + overhead_gb + offheap_gb - cap
        if excess > 0 and overhead_gb + offheap_gb > 0:
            scale = max(0.0, (cap - heap)) / (overhead_gb + offheap_gb)
            overhead_gb *= scale
            offheap_gb *= scale
            conf["spark.executor.memoryOverhead"] = int(overhead_gb * 1024)
            if conf["spark.memory.offHeap.enabled"]:
                conf["spark.memory.offHeap.size"] = int(offheap_gb * 1024)
        per_exec_mem = _exec_mem(heap, overhead_gb, offheap_gb)
        if "spark.executor.instances" in space:
            p = space["spark.executor.instances"]
            lo_bound, hi_bound = p.lo, p.hi
        else:  # subspace without the parameter: clamp around its default
            lo_bound = hi_bound = self._defaults["spark.executor.instances"]
        inst_max = int(min(hi_bound, spec.total_mem_gb // per_exec_mem, spec.total_cores // cores))
        inst_max = max(inst_max, 1)
        inst_lo = int(min(lo_bound, inst_max))
        if rng is not None and "spark.executor.instances" in space:
            conf["spark.executor.instances"] = int(rng.integers(inst_lo, inst_max + 1))
        else:
            conf["spark.executor.instances"] = int(
                min(max(conf["spark.executor.instances"], inst_lo), inst_max)
            )
        # return only the caller's keys (plus any we had to adjust)
        adjusted = {"spark.executor.instances", "spark.executor.memoryOverhead", "spark.memory.offHeap.size"}
        return {k: v for k, v in conf.items() if k in given_keys | adjusted}

    def run(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """Execute the (possibly reduced) application at ``ds`` GB; charge its
        time and log the run."""
        r = self._execute(conf, ds, queries, noisy=True)
        self.charged_seconds += r.total
        self.runs.append(r)
        return r

    def evaluate(self, conf: dict, ds: float, queries: list[str] | None = None) -> RunResult:
        """Noise-free expected execution time; nothing is charged."""
        return self._execute(conf, ds, queries, noisy=False)

    # -- model -----------------------------------------------------------
    def _execute(self, conf: dict, ds_gb: float, queries: list[str] | None, *, noisy: bool) -> RunResult:
        # Partial configurations (subspace tuners, IICP grafting) leave the
        # untuned parameters at their Spark defaults.
        conf = {**self._defaults, **conf}
        names = list(self.profiles) if queries is None else list(queries)
        unknown = [q for q in names if q not in self.profiles]
        if unknown:
            raise KeyError(f"unknown queries: {unknown[:5]}")
        times: dict[str, float] = {}
        gcs: dict[str, float] = {}
        run_id = self.n_runs
        rug = _rugged_multiplier(conf, self._defaults)
        # Run-level noise models shared cluster state (JIT, page cache,
        # co-location); per-query noise is smaller and independent, so the
        # application total does not average the variance away.
        run_noise = 1.0
        if noisy:
            run_noise = math.exp(self.noise * _gauss(self.seed, run_id, "run", round(ds_gb, 3)))
        for q in names:
            t, gc = self._query_time(conf, ds_gb, self.profiles[q])
            t *= rug
            if noisy:
                t *= run_noise * math.exp(
                    0.5 * self.noise * _gauss(self.seed, run_id, q, round(ds_gb, 3))
                )
            times[q] = t
            gcs[q] = gc
        return RunResult(times=times, conf=dict(conf), ds=float(ds_gb), gc_times=gcs)

    def _resources(self, conf: dict) -> tuple[int, int, float, float]:
        """Feasible executors, total cores, heap GB and off-heap GB per executor."""
        spec = self.spec
        cores, heap, _, offheap_gb, per_exec_mem = self._slabs(conf)
        inst = int(conf["spark.executor.instances"])
        inst = max(1, min(inst, int(spec.total_mem_gb // per_exec_mem), spec.total_cores // cores))
        return inst, inst * cores, heap, offheap_gb

    def _query_time(self, conf: dict, ds_gb: float, p: QueryProfile) -> tuple[float, float]:
        spec = self.spec
        inst, total_cores, heap, offheap_gb = self._resources(conf)
        # Per-query parallelism ceiling: insensitive queries cannot use more
        # resources than their plan exposes (Section 5.11).
        total_cores = min(total_cores, p.max_cores)
        read_gb = ds_gb * p.input_frac

        # ---- map stage ----
        cpu_map = p.cpu_per_gb * read_gb / spec.cpu_factor  # core-seconds
        map_tasks = max(1, math.ceil(read_gb / _SPLIT_GB))
        map_waves = math.ceil(map_tasks / total_cores)
        t_task_map = cpu_map / map_tasks
        sched_over = _TASK_OVERHEAD_S * (1.0 + 0.005 * float(conf["spark.scheduler.revive.interval"]))
        sched_over *= 1.0 + 0.1 / max(float(conf["spark.driver.cores"]), 1.0)
        # 2% of tasks wait out spark.locality.wait before launching non-local
        locality_pen = 0.004 * float(conf["spark.locality.wait"])
        t_map = map_waves * t_task_map + (map_tasks / total_cores) * (sched_over + locality_pen)

        # ---- shuffle volume ----
        S = p.shuffle_per_gb * read_gb  # GB written by mappers
        if p.broadcast_kb and float(conf["spark.sql.autoBroadcastJoinThreshold"]) >= p.broadcast_kb:
            S *= 0.35  # broadcast join avoids shuffling the big side's keys
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

        cpu_red = cpu_map * p.reduce_frac + cpu_comp
        if conf["spark.sql.join.preferSortMergeJoin"] and p.category == "join":
            cpu_red *= 1.06  # sort-merge pays a sort; hash join is cheaper in memory
        if not conf["spark.sql.codegen.aggregate.map.twolevel.enable"] and p.category == "aggregation":
            cpu_red *= 1.02
        if not conf["spark.sql.sort.enableRadixSort"] and p.category in ("join", "aggregation"):
            cpu_red *= 1.01
        if partitions < float(conf["spark.shuffle.sort.bypassMergeThreshold"]):
            cpu_red *= 0.99  # bypass merge-sort for few partitions

        # spill: biggest partition vs per-task execution memory
        exec_frac = float(conf["spark.memory.fraction"]) * (
            1.0 - 0.5 * float(conf["spark.memory.storageFraction"])
        )
        cores = max(1, total_cores // inst)
        task_mem_gb = (heap * exec_frac + offheap_gb) / cores
        per_task_gb = (S / partitions) * skew_eff * _INFLATION
        spill_gb = max(0.0, per_task_gb - task_mem_gb) * partitions / skew_eff
        buf_eff = 0.97 + 0.03 * min(float(conf["spark.shuffle.file.buffer"]) / 96.0, 1.0)
        spill_comp = 0.6 if conf["spark.shuffle.spill.compress"] else 1.0
        t_spill = 3.0 * spill_gb * spill_comp / (spec.disk_total_gBps * buf_eff)

        reduce_waves = math.ceil(partitions / total_cores)
        t_red_cpu = max(reduce_waves * (cpu_red / partitions), (cpu_red / partitions) * skew_eff)
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
        working_per_exec = (S / partitions) * _INFLATION * cores + p.mem_per_gb * read_gb * _INFLATION / inst
        gc = gc_seconds(
            cpu_map / total_cores + cpu_red / total_cores,
            heap,
            float(conf["spark.memory.fraction"]),
            offheap_gb,
            bool(conf["spark.memory.offHeap.enabled"]),
            working_per_exec,
        )

        t = p.base_s + t_map + t_reduce + gc
        # per-executor startup/heartbeat overhead: many tiny executors cost
        t += inst * 0.004
        # starving user/metadata memory (fraction near 0.9) causes task
        # retries and OOM-adjacent churn: interior optimum in
        # spark.memory.fraction (too low -> GC above, too high -> this)
        frac = float(conf["spark.memory.fraction"])
        if frac > 0.75 and p.category != "selection":
            t *= 1.0 + 1.2 * (frac - 0.75) ** 2 * min(read_gb / 50.0, 4.0)

        # small monotone costs for the remaining long-tail parameters
        t *= 1.0 + 0.002 * (float(conf["spark.broadcast.blockSize"]) / 16.0)
        if not conf["spark.broadcast.compress"]:
            t *= 1.003
        if not conf["spark.rdd.compress"]:
            t *= 1.002
        return float(t), float(gc)
