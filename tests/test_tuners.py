"""Tests for LOCAT and the four baseline tuners on the simulated cluster.

Small budgets keep these fast; the paper-scale campaigns run in
benchmarks/. The Join benchmark (single query) is used where the
workload itself does not matter.
"""
import numpy as np
import pytest

from repro.baselines import DAC, GBORL, QTune, Tuneful
from repro.cluster.hardware import ARM_CLUSTER
from repro.core.configspace import arm_space
from repro.core.locat import Locat
from repro.core.result import TuneResult
from repro.execmodel.sim_exec import make_executor

ARM = arm_space()


def _executor(bench="Join", seed=3):
    return make_executor(bench, ARM_CLUSTER, seed=seed)


def _small_locat(**kw):
    defaults = dict(
        seed=1, n_qcsa=8, n_iicp=6, min_iters=3, max_iters=6,
        retune_min_iters=2, retune_max_iters=3, n_candidates=60, n_hyper=3,
    )
    defaults.update(kw)
    return Locat(ARM, **defaults)


class TestLocat:
    def test_tune_returns_result_and_charges(self):
        ex = _executor()
        res = _small_locat().tune(ex, 100.0)
        assert isinstance(res, TuneResult)
        assert res.tuner == "LOCAT"
        assert res.opt_seconds == pytest.approx(ex.charged_seconds)
        assert res.n_runs >= 8
        assert len(res.runs) == res.n_runs
        assert sum(r.total for r in res.runs) == pytest.approx(res.opt_seconds)
        assert res.best_time > 0
        assert set(res.best_conf) == set(ARM.names)

    def test_best_conf_feasible(self):
        ex = _executor()
        res = _small_locat().tune(ex, 100.0)
        assert ex.is_feasible(res.best_conf)

    def test_beats_default_configuration(self):
        ex = _executor("TPC-H")
        res = _small_locat(n_qcsa=12, n_iicp=10, max_iters=8).tune(ex, 200.0)
        default_t = ex.evaluate(ARM.default_conf(), 200.0).total
        assert res.best_time < default_t

    def test_qcsa_reduces_tpch_queries(self):
        ex = _executor("TPC-H")
        res = _small_locat(n_qcsa=10, n_iicp=8).tune(ex, 100.0)
        q = res.extras["qcsa"]
        assert 0 < len(q.csq) < 22
        assert len(q.csq) + len(q.ciq) == 22

    def test_use_qcsa_false_keeps_all_queries(self):
        ex = _executor("TPC-H")
        res = _small_locat(use_qcsa=False).tune(ex, 100.0)
        assert len(res.extras["qcsa"].csq) == 22

    def test_use_iicp_false_skips_extraction(self):
        ex = _executor()
        res = _small_locat(use_iicp=False).tune(ex, 100.0)
        assert res.extras["iicp"] is None

    def test_tune_multi_reuses_and_is_cheaper_per_size(self):
        ex = _executor("TPC-H")
        out = _small_locat().tune_multi(ex, [100.0, 200.0, 300.0])
        assert set(out) == {100.0, 200.0, 300.0}
        first = out[100.0]
        for ds in (200.0, 300.0):
            # later sizes reuse QCSA/IICP/DAGP state: far fewer runs
            assert out[ds].n_runs < first.n_runs / 2
            assert out[ds].best_time > 0
        # each size's runs are the next consecutive slice of the executor's log
        start = 0
        for ds in (100.0, 200.0, 300.0):
            runs = out[ds].runs
            assert all(a is b for a, b in zip(runs, ex.runs[start:start + len(runs)]))
            start += len(runs)
        assert start == len(ex.runs)


@pytest.mark.parametrize(
    "name,make",
    [
        ("Tuneful", lambda: Tuneful(ARM, seed=1, oat_values=2, bo_min_iters=2, bo_max_iters=4)),
        ("DAC", lambda: DAC(ARM, seed=1, samples_per_dim=1, ga_gens=4, validate_top=2)),
        ("GBO-RL", lambda: GBORL(ARM, seed=1, n_warm=3, min_iters=3, max_iters=5)),
        ("QTune", lambda: QTune(ARM, seed=1, episodes=12)),
    ],
)
class TestBaselines:
    def test_tune_contract(self, name, make):
        ex = _executor()
        res = make().tune(ex, 100.0)
        assert isinstance(res, TuneResult)
        assert res.tuner == name
        assert res.opt_seconds == pytest.approx(ex.charged_seconds)
        assert res.n_runs > 0
        assert len(res.runs) == res.n_runs
        assert sum(r.total for r in res.runs) == pytest.approx(res.opt_seconds)
        assert res.best_time > 0

    def test_rqa_restriction_reduces_cost(self, name, make):
        full = _executor("TPC-H")
        make().tune(full, 100.0)
        reduced_ex = _executor("TPC-H")
        t = make()
        t.queries = ["Q05", "Q07"]  # pretend-RQA
        t.tune(reduced_ex, 100.0)
        assert reduced_ex.charged_seconds < full.charged_seconds

    def test_subspace_tuning(self, name, make):
        ex = _executor()
        t = make()
        t.space = ARM.subspace(
            ["spark.sql.shuffle.partitions", "spark.executor.memory", "spark.executor.cores"]
        )
        res = t.tune(ex, 100.0)
        assert res.best_time > 0


class TestBaselineEconomics:
    def test_baselines_cost_more_than_locat(self):
        """The optimization-time ordering of Figures 11/12, small-scale."""
        costs = {}
        for name, make in [
            ("LOCAT", lambda: _small_locat(n_qcsa=10, n_iicp=8)),
            ("Tuneful", lambda: Tuneful(ARM, seed=1)),
            ("QTune", lambda: QTune(ARM, seed=1, episodes=120)),
        ]:
            ex = _executor("TPC-H")
            make().tune(ex, 100.0)
            costs[name] = ex.charged_seconds
        assert costs["Tuneful"] > costs["LOCAT"]
        assert costs["QTune"] > costs["LOCAT"]

    def test_dac_topup_cheaper_than_bootstrap(self):
        ex = _executor()
        dac = DAC(ARM, seed=1, samples_per_dim=1, ga_gens=3, validate_top=2)
        r1 = dac.tune(ex, 100.0)
        r2 = dac.tune(ex, 200.0)
        assert r2.n_runs < r1.n_runs  # datasize-aware top-up

    def test_gborl_warm_start_memory_biased(self):
        rng = np.random.default_rng(0)
        g = GBORL(ARM, seed=1)
        confs = [g._memory_guided(rng) for _ in range(10)]
        mems = [c["spark.executor.memory"] for c in confs]
        assert min(mems) >= 0.7 * (ARM["spark.executor.memory"].hi - ARM["spark.executor.memory"].lo) + ARM["spark.executor.memory"].lo - 1
        assert all(c["spark.memory.offHeap.enabled"] for c in confs)
