"""Experiment-harness tests: each table/figure module runs and shows the
paper's qualitative shape (full-scale numbers come from benchmarks/)."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments import common, table3


class TestTable1:
    def test_matrix_shape(self, artefact):
        df, _ = artefact("table1")
        assert len(df) == 5
        assert df.paper_queries.sum() == 129  # 104 + 22 + 3
        assert (df.sim_queries == df.paper_queries).all()


class TestTable2:
    def test_rows_and_split(self, artefact):
        df, _ = artefact("table2")
        assert len(df) == 38
        assert (df.kind != "bool").sum() == 27
        assert (df.kind == "bool").sum() == 11
        assert (df.resource == "*").sum() == 6

    def test_ranges_differ_between_clusters_for_resources(self, artefact):
        df = artefact("table2")[0].set_index("parameter")
        row = df.loc["spark.executor.memory"]
        assert row.range_A_arm == "4 - 32"
        assert row.range_B_x86 == "4 - 48"


class TestTable3:
    @pytest.fixture(scope="class")
    def df(self):
        return table3.run(seed=23)

    def test_shape(self, df):
        assert len(df) == 15  # 3 sizes x top 5
        assert set(df.datasize_gb) == {100, 500, 1000}

    def test_shuffle_partitions_dominates_at_scale(self, df):
        for ds in (500, 1000):
            top1 = df[(df.datasize_gb == ds) & (df["rank"] == 1)].parameter.iloc[0]
            assert top1 == "spark.sql.shuffle.partitions"

    def test_paper_parameters_recur(self, df):
        paper_set = {p for lst in table3.PAPER.values() for p in lst}
        for ds in (100, 500, 1000):
            ours = set(df[df.datasize_gb == ds].parameter)
            assert len(ours & paper_set) >= 2, (ds, ours)

    def test_memory_pressure_rises_with_datasize(self, df):
        mem_params = {
            "spark.memory.offHeap.size",
            "spark.memory.offHeap.enabled",
            "spark.executor.memoryOverhead",
            "spark.executor.memory",
            "spark.memory.fraction",
        }
        n_small = len(set(df[df.datasize_gb == 100].parameter) & mem_params)
        n_large = len(set(df[df.datasize_gb == 1000].parameter) & mem_params)
        assert n_large >= n_small


class TestFig7:
    def test_cv_saturates(self, artefact):
        df, _ = artefact("fig07_nqcsa")
        for bench in ("TPC-DS", "TPC-H"):
            s = df[df.benchmark == bench].sort_values("n_samples")
            early = s[s.n_samples <= 10].mean_cv.iloc[-1]
            late = s[s.n_samples >= 30].mean_cv.to_numpy()
            # estimates at >=30 samples vary little (saturated)
            assert np.ptp(late) < 0.35 * late.mean()
            assert late.mean() > 0.5 * early


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self, artefact):
        return artefact("fig08_per_query_cv")[0], artefact("fig08_summary")[0]

    def test_kept_and_removed_counts_match_paper(self, result):
        _, summary = result
        assert summary.n_queries.iloc[0] == 104
        assert 18 <= summary.n_kept.iloc[0] <= 30  # paper: 23
        assert summary.overlap_with_paper_csq.iloc[0] >= 20  # paper list

    def test_anchor_queries(self, result):
        per_query, summary = result
        cvs = per_query.set_index("query").cv
        assert cvs["Q72"] > cvs["Q04"]  # sensitive vs long-but-insensitive
        assert cvs["Q14b"] > 2 * cvs["Q04"]
        assert cvs["Q08"] < summary.cv_threshold.iloc[0]

    def test_classes_consistent(self, result):
        per_query, summary = result
        thr = summary.cv_threshold.iloc[0]
        assert (per_query[per_query["class"] == "CSQ"].cv >= thr).all()
        assert (per_query[per_query["class"] == "CIQ"].cv < thr).all()


class TestFig9And10:
    def test_fig9_count_stabilizes(self, artefact):
        df, _ = artefact("fig09_niicp")
        counts = df.sort_values("n_samples").n_important.to_numpy()
        assert counts[0] >= counts[-1]  # chance selections wash out
        assert counts[-1] >= 5  # real drivers remain

    def test_fig10_fractions(self, artefact):
        df, _ = artefact("fig10_cps_cpe")
        assert ((df.cps_selected >= 10) & (df.cps_selected <= 30)).all()
        # CPE extracts about a third of CPS's selection
        ratio = df.cpe_extracted / df.cps_selected
        assert ((ratio > 0.2) & (ratio < 0.5)).all()


class TestFig6:
    def test_gaussian_kernel_competitive(self, artefact):
        df, _ = artefact("fig06_kernels")
        for bench in ("TPC-DS", "TPC-H"):
            s = df[df.benchmark == bench].set_index("kernel").exec_time_sd
            assert s["gaussian"] >= s["perceptron"]
            assert s["gaussian"] >= 0.8 * s.max()


class TestFig16:
    @pytest.fixture(scope="class")
    def df(self, artefact):
        return artefact("fig16_models")[0]

    def test_all_models_and_benchmarks(self, df):
        assert set(df.model) == {"GBRT", "SVR", "LinearR", "LR", "KNNAR"}
        assert len(df) == 25

    def test_gbrt_most_accurate(self, df):
        mean_err = df.groupby("model").rel_error.mean()
        assert mean_err.idxmin() == "GBRT"
        assert mean_err["GBRT"] < 0.35


class TestFig17:
    def test_iicp_beats_gbrt_on_tpcds(self, artefact):
        df, _ = artefact("fig17_iicp_gbrt")
        tds = df[df.benchmark == "TPC-DS"]
        assert (tds.sd_iicp > tds.sd_gbrt).mean() >= 0.5


class TestCampaignMemo:
    """``run_campaign`` runs each campaign once per process."""

    KW = dict(n_qcsa=8, n_iicp=6, min_iters=3, max_iters=6, n_candidates=60, n_hyper=3)

    @pytest.fixture
    def built(self, monkeypatch):
        """The executors and tuners ``run_campaign`` builds, in order."""
        common._run_campaign.cache_clear()
        executors, tuners = [], []

        def recorded(make, out):
            def wrapped(*args, **kw):
                out.append(make(*args, **kw))
                return out[-1]

            return wrapped

        monkeypatch.setattr(common, "make_executor", recorded(common.make_executor, executors))
        monkeypatch.setattr(common, "make_tuner", recorded(common.make_tuner, tuners))
        yield executors, tuners
        common._run_campaign.cache_clear()

    def test_same_key_runs_once(self, built):
        executors, tuners = built
        first = common.run_campaign("LOCAT", "Join", "arm", [100.0, 200.0], **self.KW)
        # keyword order does not change the key
        again = common.run_campaign("LOCAT", "Join", "arm", [100.0, 200.0], **dict(reversed(self.KW.items())))
        assert again is first
        assert len(executors) == 1
        ablated = common.run_campaign("LOCAT", "Join", "arm", [100.0, 200.0], use_iicp=False, **self.KW)
        assert ablated is not first
        assert len(executors) == 2
        assert [t.state.iicp is None for t in tuners] == [False, True]
