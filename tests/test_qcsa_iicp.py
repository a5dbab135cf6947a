"""Unit tests for QCSA and IICP (the paper's Sections 3.2 / 3.3)."""
import numpy as np
import pytest

from repro.core.configspace import arm_space
from repro.core.iicp import SCC_THRESHOLD, cpe, cps, iicp
from repro.core.qcsa import QCSAResult, classify, qcsa_from_runs
from repro.execmodel.interface import RunResult

ARM = arm_space()


def _runs(times, confs=None) -> list[RunResult]:
    """A run log: one run per entry of ``times`` (its per-query seconds, or
    its application time as one query), with the matching configuration."""
    if confs is None:
        confs = [{}] * len(times)
    return [
        RunResult(t if isinstance(t, dict) else {"app": float(t)}, c, 1.0)
        for t, c in zip(times, confs, strict=True)
    ]


def _sample_runs():
    # q_flat: constant latency; q_var: strongly varying; q_mid: middling
    return _runs(
        [{"q_flat": 10.0 + 0.01 * (j % 2), "q_var": 10.0 * (1 + j), "q_mid": 10.0 + 2.0 * (j % 3)} for j in range(10)]
    )


class TestQCSA:
    def test_cv_matches_population_formula(self):
        runs = _sample_runs()
        cvs = qcsa_from_runs(runs).cvs
        t = np.array([r.times["q_var"] for r in runs])
        assert cvs["q_var"] == pytest.approx(t.std(ddof=0) / t.mean())

    def test_cv_ordering(self):
        cvs = qcsa_from_runs(_sample_runs()).cvs
        assert cvs["q_var"] > cvs["q_mid"] > cvs["q_flat"]

    def test_classify_equal_thirds(self):
        cvs = {"a": 0.0, "b": 0.5, "c": 3.0}
        res = classify(cvs)
        # width = 1.0; threshold = 1.0 -> a,b insensitive, c sensitive
        assert res.threshold == pytest.approx(1.0)
        assert res.csq == ["c"]
        assert set(res.ciq) == {"a", "b"}
        assert res.rqa == res.csq

    def test_classify_degenerate_all_equal(self):
        res = classify({"a": 1.0, "b": 1.0})
        assert set(res.csq) == {"a", "b"}
        assert res.ciq == []

    def test_classify_empty_rejected(self):
        with pytest.raises(ValueError):
            classify({})

    def test_qcsa_pipeline(self):
        res = qcsa_from_runs(_sample_runs())
        assert isinstance(res, QCSAResult)
        assert "q_var" in res.csq
        assert "q_flat" in res.ciq

    def test_qcsa_from_runs(self):
        res = qcsa_from_runs(_runs([{"a": 1.0 + 0.001 * j, "b": float(1 + j) ** 2} for j in range(8)]))
        assert res.csq == ["b"]

    def test_preserves_application_order(self):
        res = qcsa_from_runs(_runs([{"z": 5.0 * (1 + j), "a": 4.0 * (1 + j)} for j in range(5)]))
        assert res.csq == ["z", "a"]  # original order, not alphabetical


class TestCPS:
    def _samples(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        confs = [ARM.sample_random(rng) for _ in range(n)]
        X = ARM.matrix(confs)
        j_part = ARM.names.index("spark.sql.shuffle.partitions")
        j_mem = ARM.names.index("spark.executor.memory")
        times = 100 - 50 * X[:, j_part] - 30 * X[:, j_mem] + 0.5 * rng.standard_normal(n)
        return _runs(times, confs)

    def test_keeps_strong_drops_weak(self):
        res = cps(self._samples(), ARM)
        assert "spark.sql.shuffle.partitions" in res.kept
        assert "spark.executor.memory" in res.kept
        assert all(abs(res.scc[k]) >= SCC_THRESHOLD for k in res.kept)

    def test_ranking_descends(self):
        r = cps(self._samples(), ARM).ranking()
        mags = [abs(s) for _, s in r]
        assert mags == sorted(mags, reverse=True)
        assert r[0][0] == "spark.sql.shuffle.partitions"

    def test_top_n(self):
        res = cps(self._samples(), ARM)
        assert len(res.top(5)) == 5
        assert res.top(5)[0] == res.ranking()[0][0]

    def test_flat_response_keeps_one(self):
        rng = np.random.default_rng(1)
        confs = [ARM.sample_random(rng) for _ in range(20)]
        res = cps(_runs(np.full(20, 7.0), confs), ARM)
        assert len(res.kept) == 1


class TestCPEAndIICP:
    def _confs(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        return [ARM.sample_random(rng) for _ in range(n)]

    def test_cpe_one_third_rule(self):
        confs = self._confs()
        sub = ARM.subspace(ARM.names[:15])
        kp = cpe(_runs(np.zeros(len(confs)), confs), sub)
        assert kp.n_components == 5  # round(15/3)

    def test_cpe_min_two_components(self):
        confs = self._confs()
        sub = ARM.subspace(ARM.names[:4])
        assert cpe(_runs(np.zeros(len(confs)), confs), sub).n_components == 2

    def test_iicp_end_to_end_roundtrip(self):
        confs = self._confs(30, seed=2)
        X = ARM.matrix(confs)
        j = ARM.names.index("spark.sql.shuffle.partitions")
        times = 50 - 40 * X[:, j] + 0.1 * np.random.default_rng(3).standard_normal(30)
        res = iicp(_runs(times, confs), ARM)
        assert "spark.sql.shuffle.partitions" in res.cps_result.kept
        z = res.to_latent(confs[0])
        assert z.shape == (res.n_components,)
        conf = res.to_conf(z)
        assert set(conf) == set(ARM.names)  # full configuration
        # non-selected parameters pinned at defaults
        defaults = ARM.default_conf()
        for name in ARM.names:
            if name not in res.cps_result.kept:
                assert conf[name] == defaults[name]

    def test_latent_bounds_shape(self):
        confs = self._confs(25, seed=5)
        times = np.arange(25, dtype=float)
        res = iicp(_runs(times, confs), ARM)
        lo, hi = res.latent_bounds()
        assert lo.shape == hi.shape == (res.n_components,)
        assert np.all(hi > lo)
