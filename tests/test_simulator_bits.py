"""Bit pin and noise-key contract for the simulator's cost model.

``test_campaign_identity`` compares campaigns at ``rel=1e-12``, so it cannot
see a change in the last bit of one query's time. ``test_model_bits_pinned``
can: it hashes the exact ``repr`` of every per-query time and GC time that
``run`` and ``evaluate`` report over a fixed set of configurations, for the
full application and for one query subset given in reverse order. A refactor
that keeps every float operation of the model in its order reproduces
``PINNED``; a change meant to alter simulator results recaptures it and says
why in CHANGES.md. The configurations hit every branch of the model, and the
test checks that they do.
"""
import hashlib
import math

import numpy as np
import pytest

from repro.cluster import gc_model, simulator
from repro.cluster.hardware import ARM_CLUSTER
from repro.cluster.profiles import PROFILE_SETS, _h01
from repro.cluster.simulator import _NOISE, SimulatedCluster
from repro.core.configspace import arm_space

ARM = arm_space()
#: One entry per benchmark; the mixed sizes include one that ``round(ds, 3)``
#: changes, which the noise key holds.
SIZES = (100.0, 300.0, 500.0, 123.4567)
#: Configurations for the model's branches that a random draw may miss.
BRANCH_CONFS = (
    {"spark.shuffle.compress": False},
    {"spark.memory.offHeap.enabled": True, "spark.memory.offHeap.size": 8192},
    {"spark.memory.fraction": 0.85},
    # 4 GB heaps, half of it for execution, 8 cores sharing 100 partitions
    {"spark.executor.memory": 4, "spark.executor.cores": 8, "spark.memory.fraction": 0.5,
     "spark.sql.shuffle.partitions": 100},
    {"spark.sql.shuffle.partitions": 120, "spark.shuffle.sort.bypassMergeThreshold": 300},
    # between the smallest and the largest broadcastable table of TPC-DS and TPC-H
    {"spark.sql.autoBroadcastJoinThreshold": 2048},
)

PINNED = {
    "TPC-DS": "55d68a381999bd5f85148c4a0d30c53aed976e55",
    "TPC-H": "115937928bface4d83aa780a1d55d6343c029f12",
    "Join": "4d590260bfe0f3164b8a456fc0bdf94aedcf0a85",
}


def _confs() -> list[dict]:
    rng = np.random.default_rng(2024)
    sim = SimulatedCluster(ARM_CLUSTER, PROFILE_SETS()["Join"])
    return [sim.sample_feasible(ARM, rng) for _ in range(40)] + [ARM.complete(c) for c in BRANCH_CONFS]


def _branches_hit(r, profiles) -> set[str]:
    conf = r.conf
    thr = conf["spark.sql.autoBroadcastJoinThreshold"]
    bkb = [profiles[q].broadcast_kb for q in r.times if profiles[q].broadcast_kb]
    hit = {
        "shuffle.compress off": not conf["spark.shuffle.compress"],
        "off-heap on with a size": conf["spark.memory.offHeap.enabled"] and conf["spark.memory.offHeap.size"] > 0,
        "memory.fraction above 0.75": conf["spark.memory.fraction"] > 0.75,
        "partitions below bypassMergeThreshold": (
            conf["spark.sql.shuffle.partitions"] < conf["spark.shuffle.sort.bypassMergeThreshold"]
        ),
        "broadcast threshold at or above a table": any(thr >= b for b in bkb),
        "broadcast threshold below a table": any(thr < b for b in bkb),
    }
    return {name for name, h in hit.items() if h}


def test_model_bits_pinned(monkeypatch):
    gc_calls = []
    real_gc = simulator.gc_seconds

    def recorded_gc(*args):
        gc = real_gc(*args)
        gc_calls.append((args, np.array(gc, dtype=float)))
        return gc

    monkeypatch.setattr(simulator, "gc_seconds", recorded_gc)
    confs = _confs()
    digests, hit = {}, set()
    for bench in PINNED:
        profiles = PROFILE_SETS()[bench]
        sim = SimulatedCluster(ARM_CLUSTER, profiles, seed=11)
        subset = [p.name for p in profiles][::4][::-1]
        h = hashlib.sha1()
        for i, conf in enumerate(confs):
            ds = SIZES[i % len(SIZES)]
            for queries in (None, subset):
                for r in (sim.run(conf, ds, queries), sim.evaluate(conf, ds, queries)):
                    h.update(repr((sorted(r.times.items()), sorted(r.gc_times.items()))).encode())
                    hit |= _branches_hit(r, sim.profiles)
        digests[bench] = h.hexdigest()

    # The GC model's OOM regime decided a value iff lifting its threshold
    # changes one.
    monkeypatch.setattr(gc_model, "OOM_PRESSURE", math.inf)
    if any(not np.array_equal(np.array(real_gc(*args), dtype=float), gc) for args, gc in gc_calls):
        hit.add("OOM regime")
    assert hit == {
        "shuffle.compress off",
        "off-heap on with a size",
        "memory.fraction above 0.75",
        "OOM regime",
        "partitions below bypassMergeThreshold",
        "broadcast threshold at or above a table",
        "broadcast threshold below a table",
    }
    assert digests == PINNED


def _expected_gauss(*key) -> float:
    """The Box-Muller normal the simulator draws for ``key``."""
    u1 = max(_h01(*key, "u1"), 1e-12)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * _h01(*key, "u2"))


def test_noise_keys_and_subset_indexing():
    seed, ds = 5, 123.4567
    profiles = PROFILE_SETS()["TPC-DS"]
    sim = SimulatedCluster(ARM_CLUSTER, profiles, seed=seed)
    conf = ARM.complete({"spark.sql.shuffle.partitions": 600, "spark.executor.cores": 4})
    subset = [p.name for p in profiles][1::5][::-1]
    noisy = sim.run(conf, ds, subset)
    clean = sim.evaluate(conf, ds, subset)
    run_noise = math.exp(_NOISE * _expected_gauss(seed, 0, "run", round(ds, 3)))
    for q in subset:
        q_noise = math.exp(0.5 * _NOISE * _expected_gauss(seed, 0, q, round(ds, 3)))
        assert noisy.times[q] / clean.times[q] == pytest.approx(run_noise * q_noise, rel=1e-12)
    full = sim.evaluate(conf, ds)
    for q in subset:
        alone = sim.evaluate(conf, ds, [q])
        assert alone.times[q] == clean.times[q] == full.times[q]
        assert alone.gc_times[q] == clean.gc_times[q] == full.gc_times[q]
