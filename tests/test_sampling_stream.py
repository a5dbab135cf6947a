"""Stream pin for configuration sampling and repair.

Every tuner draws its random configurations through
``SimulatedCluster.sample_feasible`` and keeps proposals runnable through
``repair``; both go through ``ConfigSpace``'s conversions. A change to how
those convert or draw must keep every value, its Python type, the key order
of each dict and the generator's position, or every campaign after it
changes. ``PINNED`` hashes, per space, the ``repr`` of:

* 200 ``sample_feasible`` draws, each item with its type name;
* ``repair`` of 200 perturbed configurations (unit-cube points up to a
  quarter outside the cube, so every clamp and the memory-slab scaling
  fire);
* ``space.matrix`` of the draws;
* the bit generator's state after all of it.

It then checks that the next ``rng.random()`` is the pinned next draw of the
stream. The spaces are ARM (Range A), x86 (Range B) and a CPS-style subspace
of ARM: two thirds of the parameters, without ``spark.executor.instances``,
so the subspace path of ``_fit`` and its draw-free instance count are pinned
too. ``PINNED`` was captured on the code whose ``ConfigSpace`` converted one
parameter at a time; a change meant to alter sampling recaptures it and
says why in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from repro.cluster.hardware import ARM_CLUSTER, X86_CLUSTER
from repro.cluster.profiles import PROFILE_SETS
from repro.cluster.simulator import SimulatedCluster
from repro.core.configspace import arm_space, x86_space

N = 200
SEED = 77


def _spaces():
    arm = arm_space()
    cps = arm.subspace([n for i, n in enumerate(arm.names) if i % 3 != 2])
    return {"ARM": (arm, ARM_CLUSTER), "x86": (x86_space(), X86_CLUSTER), "CPS": (cps, ARM_CLUSTER)}


def _items(conf: dict) -> list:
    return [(k, type(v).__name__, v) for k, v in conf.items()]


def _stream(space, spec):
    sim = SimulatedCluster(spec, PROFILE_SETS()["TPC-H"])
    rng = np.random.default_rng(SEED)
    h = hashlib.sha1()
    draws = [sim.sample_feasible(space, rng) for _ in range(N)]
    for conf in draws:
        h.update(repr(_items(conf)).encode())
    for _ in range(N):
        conf = space.from_vector(rng.uniform(-0.25, 1.25, space.dim))
        h.update(repr(_items(sim.repair(conf, space))).encode())
    m = space.matrix(draws)
    h.update(repr((m.dtype.str, m.shape, m.tolist())).encode())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest(), rng.random()


PINNED = {
    "ARM": ("8fa420eeb2dca6b0f04ddc5d154754d04b964c1f", 0.05688567496188279),
    "x86": ("1a412d5aa5bc0b43e0fe5c4ebb58e7b69d682d44", 0.5068595255999235),
    "CPS": ("a8fb71cb99b32f30c652fab7034440c3948cdff8", 0.17561456830120425),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_sampling_stream_pinned(name):
    space, spec = _spaces()[name]
    digest, next_draw = _stream(space, spec)
    assert digest == PINNED[name][0]
    assert next_draw == PINNED[name][1]
