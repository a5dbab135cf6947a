"""JVM garbage-collection time model.

Section 5.8 / Figure 19 of the paper attributes most of LOCAT's speedup
to reduced GC time: proper values of the memory parameters
(``spark.executor.memory``, ``spark.memory.fraction``,
``spark.memory.offHeap.*``) shrink GC work, and GC time grows with input
data size — off-heap allocation matters once data is large (Table 3's
1 TB column). The model captures exactly that structure:

* on-heap *pressure* = working set left on the heap / usable heap;
* GC time is a superlinear function of pressure times the CPU time of
  the stage (more allocation churn → more collections);
* pressure far above 1 models OOM-retry thrashing (paper Section 1:
  "too small value may even lead to out of memory errors") with a large
  but finite penalty so the tuner sees a signal instead of a crash.
"""
from __future__ import annotations

import numpy as np

__all__ = ["gc_seconds", "OOM_PRESSURE"]

#: Pressure beyond which executions degenerate into OOM/retry thrashing.
OOM_PRESSURE = 3.0


def gc_seconds(
    cpu_seconds,
    heap_gb: float,
    mem_fraction: float,
    offheap_gb: float,
    offheap_enabled: bool,
    working_gb_per_executor,
):
    """GC seconds charged on top of ``cpu_seconds`` of task work.

    ``working_gb_per_executor`` is the live working set each executor
    holds; the fraction it exceeds the usable heap (after moving what fits
    off-heap) drives collection frequency. ``cpu_seconds`` and the working
    set are scalars or arrays of one value per query; the result has their
    shape. NumPy evaluates only exact operations here: the cube is a Python
    float power per element, so an array gives the same bits as its scalars.
    """
    usable_heap = max(heap_gb * mem_fraction - 0.3, 0.1)  # Spark reserves ~300MB
    onheap = np.asarray(working_gb_per_executor, dtype=float)
    if offheap_enabled and offheap_gb > 0:
        # Off-heap absorbs up to 70% of the working set (shuffle/cache data).
        onheap = np.maximum(onheap - np.minimum(offheap_gb, 0.7 * onheap), 0.0)
    pressure = onheap / usable_heap
    cube = np.array([p**3 for p in pressure.ravel().tolist()]).reshape(pressure.shape)
    # Past OOM_PRESSURE: the OOM / executor-retry regime dominates execution
    # time. Below it, graded growth: every byte of on-heap working set costs
    # collection work, growing steeply as the live set approaches the heap.
    return cpu_seconds * np.where(pressure >= OOM_PRESSURE, 1.5 + pressure, 0.35 * pressure + 0.45 * cube)
