"""Stream pin for the batch draw of BO candidates.

LOCAT's bootstrap scores ``n_candidates`` random feasible configurations per
DAGP-BO proposal and runs one of them. ``Executor.sample_candidates`` draws
them as one normalized matrix and builds the configuration of a row only on
request. Its contract is that nothing else changes: the matrix has the bytes
of ``space.matrix`` of ``n`` successive ``sample_feasible`` draws, each row's
configuration is that draw (values, Python types and key order), and the
generator is left where those draws leave it. On the simulator each
candidate takes its ``rng.random(dim)`` and then its instance-count draw, so
a batch that drew all its rows first would change every campaign after it.
The spaces are those of ``test_sampling_stream``: ARM, x86 and a CPS-style
subspace of ARM without ``spark.executor.instances``.
"""
import numpy as np
import pytest

from repro.cluster.profiles import PROFILE_SETS
from repro.cluster.simulator import SimulatedCluster
from repro.execmodel.spark_exec import SparkSQLExecutor
from tests.test_sampling_stream import SEED, _spaces

#: Batch sizes drawn one after another from one generator.
SIZES = (1, 7, 250)


def _typed(conf: dict) -> str:
    return repr([(k, type(v).__name__, v) for k, v in conf.items()])


def _same_as_draws(ex, space, draw):
    """Check ``ex.sample_candidates`` against ``draw(space, rng)`` called once
    per candidate, batch after batch on one generator."""
    a, b = np.random.default_rng(SEED), np.random.default_rng(SEED)
    for n in SIZES:
        want = [draw(space, a) for _ in range(n)]
        m, conf = ex.sample_candidates(space, b, n)
        w = space.matrix(want)
        assert (m.dtype, m.shape) == (w.dtype, w.shape)
        assert m.tobytes() == w.tobytes()
        assert [_typed(conf(j)) for j in range(n)] == [_typed(c) for c in want]
    assert b.random() == a.random()
    assert b.bit_generator.state == a.bit_generator.state


@pytest.mark.parametrize("name", list(_spaces()))
def test_simulator_batch_is_sample_feasible_draws(name):
    space, spec = _spaces()[name]
    sim = SimulatedCluster(spec, PROFILE_SETS()["TPC-H"])
    fits = []
    fit_values = sim._fit_values

    def recorded(values, bounds):
        fits.append(fit_values(values, bounds))
        return fits[-1]

    sim._fit_values = recorded
    _same_as_draws(sim, space, sim.sample_feasible)
    # the draws reach both branches of the rule: slabs scaled into the
    # container and slabs kept, and (on the subspace) a one-value range
    assert any(oh is not None for _, oh, _, _ in fits)
    assert any(ov is None for ov, _, _, _ in fits)
    assert any(lo < hi for *_, lo, hi in fits) == ("spark.executor.instances" in space)


@pytest.mark.parametrize("name", list(_spaces()))
def test_live_batch_is_sample_random_draws(name):
    space, _ = _spaces()[name]
    ex = object.__new__(SparkSQLExecutor)  # sampling needs no session
    _same_as_draws(ex, space, lambda s, rng: s.sample_random(rng))
    _same_as_draws(ex, space, ex.sample_feasible)
