"""The Spark SQL configuration space of LOCAT (paper Table 2).

The paper tunes 38 configuration parameters spanning the Spark core
("lower level") and Spark SQL ("upper level"): 27 numeric and 11 boolean
as printed in Table 2 (the prose says 28/10; we implement the 38 rows as
printed). Each parameter carries its default, its value range on the
four-node ARM cluster ("Range A") and on the eight-node x86 cluster
("Range B"), and whether it is a *resource* parameter (starred in the
paper's Table 2 — its range derives from container capacity, Section
5.12).

``ConfigSpace`` is the object every other component works against: it
normalizes configurations to the unit hypercube for the GP / KPCA math
and denormalizes search points back to real Spark values.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ConfigParam",
    "ConfigSpace",
    "TABLE2",
    "arm_space",
    "x86_space",
]


@dataclass(frozen=True)
class ConfigParam:
    """One tunable Spark configuration parameter (a row of Table 2).

    ``kind`` is ``"int"``, ``"float"`` or ``"bool"``. ``lo``/``hi`` are the
    inclusive range bounds for numeric parameters (ignored for booleans,
    which range over {False, True}).
    """

    name: str
    kind: str
    default: float | bool
    lo: float = 0.0
    hi: float = 1.0
    resource: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "bool"):
            raise ValueError(f"bad kind {self.kind!r} for {self.name}")
        if self.kind != "bool" and not self.lo < self.hi:
            raise ValueError(f"empty range for {self.name}: [{self.lo}, {self.hi}]")

    def denormalize(self, u: float):
        """Map a unit-interval coordinate back to a legal parameter value."""
        u = min(1.0, max(0.0, float(u)))
        if self.kind == "bool":
            return u >= 0.5
        v = self.lo + u * (self.hi - self.lo)
        if self.kind == "int":
            return int(round(v))
        return float(v)

    def sample(self, rng: np.random.Generator):
        """Draw a uniform random legal value."""
        return self.denormalize(rng.random())

    def clip(self, value):
        """Clamp ``value`` into the legal range (identity for booleans)."""
        if self.kind == "bool":
            return bool(value)
        v = min(self.hi, max(self.lo, float(value)))
        return int(round(v)) if self.kind == "int" else v


def _rows(cluster: str) -> list[ConfigParam]:
    """Table 2 rows. ``cluster`` selects Range A (arm) or Range B (x86)."""
    a = cluster == "arm"

    def num(name, default, lo_a, hi_a, lo_b, hi_b, *, kind="int", resource=False, desc=""):
        lo, hi = (lo_a, hi_a) if a else (lo_b, hi_b)
        return ConfigParam(name, kind, default, lo, hi, resource, desc)

    def flag(name, desc=""):
        return ConfigParam(name, "bool", True, description=desc)

    return [
        num("spark.broadcast.blockSize", 4, 1, 16, 1, 16, desc="MB per broadcast block"),
        # Default "#" in the paper (cluster-dependent); Spark's own default
        # is total cores; we use 200 as a neutral midpoint default.
        num("spark.default.parallelism", 200, 100, 1000, 100, 1000, desc="max partitions in parent RDD for shuffles"),
        num("spark.driver.cores", 1, 1, 8, 1, 16, resource=True, desc="driver cores"),
        num("spark.driver.memory", 1, 4, 32, 4, 48, resource=True, desc="driver memory GB"),
        num("spark.executor.cores", 1, 1, 8, 1, 16, resource=True, desc="cores per executor"),
        num("spark.executor.instances", 2, 48, 384, 9, 112, desc="number of executors"),
        num("spark.executor.memory", 1, 4, 32, 4, 48, resource=True, desc="executor heap GB"),
        num("spark.executor.memoryOverhead", 384, 0, 32768, 0, 49152, resource=True, desc="extra per-executor memory MB"),
        num("spark.io.compression.zstd.bufferSize", 32, 16, 96, 16, 96, desc="Zstd buffer KB"),
        num("spark.io.compression.zstd.level", 1, 1, 5, 1, 5, desc="Zstd level"),
        num("spark.kryoserializer.buffer", 64, 32, 128, 32, 128, desc="Kryo initial buffer KB"),
        num("spark.kryoserializer.buffer.max", 64, 32, 128, 32, 128, desc="Kryo max buffer MB"),
        num("spark.locality.wait", 3, 1, 6, 1, 6, desc="data-local launch wait s"),
        num("spark.memory.fraction", 0.6, 0.5, 0.9, 0.5, 0.9, kind="float", desc="fraction of heap for exec+storage"),
        num("spark.memory.storageFraction", 0.5, 0.5, 0.9, 0.5, 0.9, kind="float", desc="storage memory immune to eviction"),
        num("spark.memory.offHeap.size", 0, 0, 32768, 0, 49152, resource=True, desc="off-heap size MB"),
        num("spark.reducer.maxSizeInFlight", 48, 24, 144, 24, 144, desc="max in-flight fetch MB"),
        num("spark.scheduler.revive.interval", 1, 1, 5, 1, 5, desc="scheduler revive interval s"),
        num("spark.shuffle.file.buffer", 32, 16, 96, 16, 96, desc="shuffle file buffer KB"),
        num("spark.shuffle.io.numConnectionsPerPeer", 1, 1, 5, 1, 5, desc="connections reused per peer"),
        num("spark.shuffle.sort.bypassMergeThreshold", 200, 100, 400, 100, 400, desc="partitions to skip map-side sort"),
        num("spark.sql.autoBroadcastJoinThreshold", 1024, 1024, 8192, 1024, 8192, desc="max broadcast table KB"),
        num("spark.sql.cartesianProductExec.buffer.in.memory.threshold", 4096, 1024, 8192, 1024, 8192, desc="rows of Cartesian cache"),
        num("spark.sql.codegen.maxFields", 100, 50, 200, 50, 200, desc="max fields for whole-stage codegen"),
        num("spark.sql.inMemoryColumnarStorage.batchSize", 10000, 5000, 20000, 5000, 20000, desc="column-cache batch size"),
        num("spark.sql.shuffle.partitions", 200, 100, 1000, 100, 1000, desc="shuffle partitions for joins/aggregations"),
        num("spark.storage.memoryMapThreshold", 1, 1, 10, 1, 10, desc="mmap threshold MB"),
        flag("spark.broadcast.compress", "compress broadcast variables"),
        flag("spark.memory.offHeap.enabled", "use off-heap memory"),
        flag("spark.rdd.compress", "compress serialized RDD partitions"),
        flag("spark.shuffle.compress", "compress map output files"),
        flag("spark.shuffle.spill.compress", "compress shuffle spills"),
        flag("spark.sql.codegen.aggregate.map.twolevel.enable", "two-level aggregate hash map"),
        flag("spark.sql.inMemoryColumnarStorage.compressed", "compress cached columns"),
        flag("spark.sql.inMemoryColumnarStorage.partitionPruning", "prune in-memory partitions"),
        flag("spark.sql.join.preferSortMergeJoin", "prefer sort-merge over shuffle-hash join"),
        flag("spark.sql.retainGroupColumns", "retain group-by columns"),
        flag("spark.sql.sort.enableRadixSort", "use radix sort"),
    ]


#: Canonical Table 2 (ARM ranges) for callers that just need the rows.
TABLE2: tuple[ConfigParam, ...] = tuple(_rows("arm"))


@dataclass
class ConfigSpace:
    """An ordered set of :class:`ConfigParam` with vector conversions.

    Configurations travel either as ``dict[str, value]`` (what an executor
    consumes) or as normalized ``np.ndarray`` in ``[0, 1]^d`` (what the
    GP / KPCA / BO math consumes).

    Dicts are built by the :class:`ConfigParam` methods, one value at a
    time. Matrices are built by array operations with the per-parameter
    bounds computed once, and hold the same bits as those methods give: NumPy
    applies only operations that are exact on every host (``+ - * /``,
    ``rint``, comparisons, ``where``), in the scalar methods' order.
    """

    params: Sequence[ConfigParam]
    _index: dict = field(init=False, repr=False)
    _lo: np.ndarray = field(init=False, repr=False, compare=False)
    _span: np.ndarray = field(init=False, repr=False, compare=False)
    _int: np.ndarray = field(init=False, repr=False, compare=False)
    _bool: np.ndarray = field(init=False, repr=False, compare=False)
    _defaults: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self._index = {p.name: p for p in self.params}
        # ``hi - lo`` as the scalar methods compute it, then as a float
        self._lo = np.array([p.lo for p in self.params], dtype=float)
        self._span = np.array([p.hi - p.lo for p in self.params], dtype=float)
        kinds = np.array([p.kind for p in self.params])
        self._int = np.flatnonzero(kinds == "int")
        self._bool = np.flatnonzero(kinds == "bool")
        self._defaults = {p.name: p.clip(p.default) for p in self.params}

    # -- introspection ---------------------------------------------------
    @property
    def names(self) -> list[str]:
        return list(self._index)

    @property
    def dim(self) -> int:
        return len(self.params)

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, name: str) -> ConfigParam:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    # -- conversions -----------------------------------------------------
    def default_conf(self) -> dict:
        return dict(self._defaults)

    def normalize(self, X: np.ndarray) -> np.ndarray:
        """Map every value of the (n, d) float rows ``X`` into [0, 1], one
        column per parameter in order: ``(v − lo) / (hi − lo)``, and 1.0 or
        0.0 for a boolean by its truth."""
        Y = (X - self._lo) / self._span
        Y[:, self._bool] = X.take(self._bool, axis=1) != 0.0
        return Y

    def values(self, U: np.ndarray) -> np.ndarray:
        """The values of the configurations :meth:`from_vector` gives the
        unit rows ``U``, as an (n, d) float array with booleans as 1.0 and
        0.0: what :meth:`matrix` reads from those dicts, without building
        them."""
        # min(1.0, max(0.0, u)) on a Python float sends NaN and -0.0 to 0.0;
        # np.clip would keep them
        U = np.minimum(np.where(U > 0.0, U, 0.0), 1.0)
        X = self._lo + U * self._span
        X[:, self._int] = np.rint(X.take(self._int, axis=1))
        X[:, self._bool] = U.take(self._bool, axis=1) >= 0.5
        return X

    def to_vector(self, conf: dict) -> np.ndarray:
        """Normalize a configuration dict to a unit-cube vector."""
        return self.normalize(np.array([[conf[n] for n in self._index]], dtype=float))[0]

    def from_vector(self, u: np.ndarray) -> dict:
        """Denormalize a unit-cube vector to a configuration dict.

        Coordinates outside [0, 1] clamp to the ends of their ranges."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {u.shape}")
        return {p.name: p.denormalize(x) for p, x in zip(self.params, u.tolist())}

    def matrix(self, confs: Iterable[dict]) -> np.ndarray:
        """Stack configurations into an (n, d) normalized matrix."""
        names = list(self._index)
        return self.normalize(np.array([[c[n] for n in names] for c in confs], dtype=float))

    # -- sampling --------------------------------------------------------
    def sample_random(self, rng: np.random.Generator) -> dict:
        """A uniform random configuration: one ``rng.random(dim)`` draw, the
        same stream as :meth:`ConfigParam.sample` of each parameter in turn."""
        return self.from_vector(rng.random(self.dim))

    def sample_lhs(self, n: int, rng: np.random.Generator) -> list[dict]:
        """Latin-Hypercube sample of ``n`` configurations (BO start points)."""
        from repro.core.lhs import latin_hypercube

        return [self.from_vector(u) for u in latin_hypercube(n, self.dim, rng)]

    # -- derived spaces --------------------------------------------------
    def subspace(self, names: Sequence[str]) -> "ConfigSpace":
        """The sub-space of the named parameters, preserving Table 2 order."""
        missing = [n for n in names if n not in self._index]
        if missing:
            raise KeyError(f"unknown parameters: {missing}")
        keep = set(names)
        return ConfigSpace([p for p in self.params if p.name in keep])

    def complete(self, partial: dict) -> dict:
        """Fill a partial configuration with defaults for missing parameters."""
        conf = self.default_conf()
        for k, v in partial.items():
            if k not in self._index:
                raise KeyError(f"unknown parameter {k!r}")
            conf[k] = self._index[k].clip(v)
        return conf


def arm_space() -> ConfigSpace:
    """Table 2 with "Range A" — the four-node ARM cluster."""
    return ConfigSpace(_rows("arm"))


def x86_space() -> ConfigSpace:
    """Table 2 with "Range B" — the eight-node x86 cluster."""
    return ConfigSpace(_rows("x86"))
