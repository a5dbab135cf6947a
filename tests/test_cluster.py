"""Unit tests for the simulated-cluster substrate."""
import numpy as np
import pytest

from repro.cluster.gc_model import OOM_PRESSURE, gc_seconds
from repro.cluster.hardware import ARM_CLUSTER, X86_CLUSTER
from repro.cluster.profiles import (
    PROFILE_SETS,
    TPCDS_CSQ,
    TPCDS_SELECTION,
    hibench_profiles,
    tpcds_profiles,
    tpcds_query_names,
    tpch_profiles,
)
from repro.cluster.simulator import SimulatedCluster
from repro.core.configspace import arm_space

ARM = arm_space()


class TestHardware:
    def test_arm_totals(self):
        assert ARM_CLUSTER.total_cores == 384
        assert ARM_CLUSTER.total_mem_gb == 1536.0
        assert ARM_CLUSTER.net_total_gBps == pytest.approx(3.75)

    def test_x86_totals(self):
        assert X86_CLUSTER.total_cores == 140
        assert X86_CLUSTER.total_mem_gb == 448.0

    def test_container_caps_match_table2_ranges(self):
        assert ARM_CLUSTER.container_max_cores == 8  # Range A executor.cores hi
        assert X86_CLUSTER.container_max_cores == 16  # Range B
        assert ARM_CLUSTER.container_max_mem_gb == 32.0
        assert X86_CLUSTER.container_max_mem_gb == 48.0


class TestGCModel:
    def test_monotone_in_pressure(self):
        ts = [gc_seconds(100.0, 16.0, 0.6, 0.0, False, w) for w in (0.5, 2.0, 5.0, 8.0)]
        assert ts == sorted(ts)

    def test_offheap_reduces_gc(self):
        with_off = gc_seconds(100.0, 8.0, 0.6, 8.0, True, 6.0)
        without = gc_seconds(100.0, 8.0, 0.6, 8.0, False, 6.0)
        assert with_off < without

    def test_offheap_disabled_ignored(self):
        a = gc_seconds(100.0, 8.0, 0.6, 0.0, True, 6.0)
        b = gc_seconds(100.0, 8.0, 0.6, 0.0, False, 6.0)
        assert a == b

    def test_oom_regime_dominates(self):
        heap = 4.0
        usable = heap * 0.6 - 0.3
        w_oom = usable * (OOM_PRESSURE + 0.5)
        assert gc_seconds(100.0, heap, 0.6, 0.0, False, w_oom) > 100.0

    def test_bigger_heap_less_gc(self):
        small = gc_seconds(100.0, 4.0, 0.6, 0.0, False, 3.0)
        big = gc_seconds(100.0, 32.0, 0.6, 0.0, False, 3.0)
        assert big < small


class TestProfiles:
    def test_tpcds_has_104_queries(self):
        names = tpcds_query_names()
        assert len(names) == 104
        assert len(set(names)) == 104
        for v in ("Q14a", "Q14b", "Q23a", "Q23b", "Q24a", "Q24b", "Q39a", "Q39b", "Q64a", "Q64b"):
            assert v in names

    def test_paper_csq_have_heavy_shuffles(self):
        profs = {p.name: p for p in tpcds_profiles()}
        csq = {
            f"Q{int(q[1:-1]):02d}{q[-1]}" if q[-1] in "ab" else f"Q{int(q[1:]):02d}"
            for q in TPCDS_CSQ
        }
        for name in csq:
            assert profs[name].shuffle_per_gb >= 0.2, name
        assert profs["Q72"].shuffle_per_gb == pytest.approx(0.52)  # 52GB/100GB

    def test_selection_queries_capped_and_light(self):
        profs = {p.name: p for p in tpcds_profiles()}
        for q in TPCDS_SELECTION:
            name = f"Q{int(q[1:]):02d}"
            assert profs[name].category == "selection"
            assert profs[name].max_cores < 10  # "only consume 5 CPU cores"

    def test_q04_long_but_capped(self):
        profs = {p.name: p for p in tpcds_profiles()}
        assert profs["Q04"].cpu_per_gb > 10
        assert profs["Q04"].max_cores == 24

    def test_deterministic(self):
        a = tpcds_profiles()
        b = tpcds_profiles()
        assert a == b

    def test_tpch_has_22(self):
        assert len(tpch_profiles()) == 22

    def test_hibench_categories(self):
        hb = hibench_profiles()
        assert hb["Scan"][0].category == "selection"
        assert hb["Join"][0].category == "join"
        assert hb["Aggregation"][0].category == "aggregation"

    def test_profile_sets_match_table1(self):
        sets = PROFILE_SETS()
        assert {k: len(v) for k, v in sets.items()} == {
            "TPC-DS": 104, "TPC-H": 22, "Join": 1, "Scan": 1, "Aggregation": 1,
        }

    def test_bad_category_rejected(self):
        from repro.cluster.profiles import QueryProfile

        with pytest.raises(ValueError):
            QueryProfile("x", "bogus", 1, 1, 1, 1, 1, 1, 0)


class TestSimulator:
    def _sim(self, bench="TPC-DS", seed=0):
        return SimulatedCluster(ARM_CLUSTER, PROFILE_SETS()[bench], seed=seed)

    def test_evaluate_deterministic_and_noise_free(self):
        sim = self._sim()
        conf = ARM.default_conf()
        a = sim.evaluate(conf, 100.0)
        b = sim.evaluate(conf, 100.0)
        assert a.total == b.total
        assert sim.charged_seconds == 0.0

    def test_run_charges_and_counts(self):
        sim = self._sim()
        conf = ARM.default_conf()
        r = sim.run(conf, 100.0)
        assert sim.charged_seconds == pytest.approx(r.total)
        assert len(sim.runs) == 1

    def test_run_noise_varies_by_run(self):
        sim = self._sim()
        conf = ARM.default_conf()
        a = sim.run(conf, 100.0)
        b = sim.run(conf, 100.0)
        assert a.total != b.total

    def test_queries_subset(self):
        sim = self._sim()
        r = sim.run(ARM.default_conf(), 100.0, ["Q72", "Q08"])
        assert set(r.times) == {"Q72", "Q08"}
        with pytest.raises(KeyError):
            sim.run(ARM.default_conf(), 100.0, ["nope"])

    def test_time_grows_with_datasize(self):
        sim = self._sim()
        conf = ARM.default_conf()
        assert sim.evaluate(conf, 500.0).total > sim.evaluate(conf, 100.0).total

    def test_more_parallelism_speeds_up_csq(self):
        # more executors at identical per-task memory -> faster heavy query
        sim = self._sim()
        slow = ARM.complete({"spark.executor.instances": 48, "spark.executor.cores": 2,
                             "spark.executor.memory": 16})
        fast = ARM.complete({"spark.executor.instances": 192, "spark.executor.cores": 2,
                             "spark.executor.memory": 16})
        assert sim.evaluate(fast, 100.0).times["Q72"] < sim.evaluate(slow, 100.0).times["Q72"]

    def test_q04_insensitive_to_parallelism(self):
        sim = self._sim()
        slow = ARM.complete({"spark.executor.instances": 48, "spark.executor.cores": 1})
        fast = ARM.complete({"spark.executor.instances": 384, "spark.executor.cores": 8})
        a = sim.evaluate(slow, 100.0).times["Q04"]
        b = sim.evaluate(fast, 100.0).times["Q04"]
        assert abs(a - b) / a < 0.1

    def test_shuffle_compress_helps_heavy_shuffler(self):
        sim = self._sim()
        on = ARM.complete({"spark.shuffle.compress": True})
        off = ARM.complete({"spark.shuffle.compress": False})
        assert sim.evaluate(on, 300.0).times["Q72"] < sim.evaluate(off, 300.0).times["Q72"]

    def test_gc_reported_and_included(self):
        sim = self._sim()
        r = sim.evaluate(ARM.complete({"spark.executor.memory": 4}), 500.0)
        assert r.gc_total > 0
        assert r.gc_total < r.total

    def test_feasibility_and_repair(self):
        sim = self._sim()
        bad = ARM.complete({
            "spark.executor.instances": 384,
            "spark.executor.memory": 32,
            "spark.executor.memoryOverhead": 32768,
        })
        assert not sim.is_feasible(bad)
        fixed = sim.repair(bad, ARM)
        assert sim.is_feasible(fixed)

    def test_sample_feasible_always_feasible(self):
        sim = self._sim()
        rng = np.random.default_rng(0)
        for _ in range(25):
            assert sim.is_feasible(sim.sample_feasible(ARM, rng))

    @staticmethod
    def _items(conf):
        return [(k, type(v).__name__, v) for k, v in conf.items()]

    def test_repair_returns_table2_order_from_any_key_order(self):
        sim = self._sim()
        rng = np.random.default_rng(4)
        big = ARM.complete({"spark.executor.memory": 32, "spark.executor.memoryOverhead": 32768,
                            "spark.memory.offHeap.enabled": True, "spark.memory.offHeap.size": 32768})
        for conf in [big] + [ARM.sample_random(rng) for _ in range(20)]:
            want = sim.repair(conf, ARM)
            got = sim.repair(dict(reversed(conf.items())), ARM)
            assert list(want) == ARM.names
            assert self._items(got) == self._items(want)

    def test_repair_of_a_subspace_conf_adds_the_adjusted_keys(self):
        sim = self._sim()
        adjusted = {"spark.executor.instances", "spark.executor.memoryOverhead", "spark.memory.offHeap.size"}
        sub = ARM.subspace(["spark.sql.shuffle.partitions", "spark.executor.cores", "spark.executor.memory",
                            "spark.memory.offHeap.enabled", "spark.rdd.compress"])
        rng = np.random.default_rng(8)
        for _ in range(20):
            conf = sub.sample_random(rng)
            want = [k for k in ARM.names if k in conf or k in adjusted]
            for given in (conf, dict(reversed(conf.items()))):
                got = sim.repair(given, sub)
                assert list(got) == want
                assert all(got[k] == v for k, v in conf.items())

    def test_sample_feasible_on_subspace_clamps_default_without_a_draw(self):
        sim = self._sim()
        name = "spark.executor.instances"
        sub = ARM.subspace([n for n in ARM.names if n != name])
        default = ARM[name].clip(ARM[name].default)
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            conf = sim.sample_feasible(sub, rng)
            drawn = sub.sample_random(ref)
            assert rng.random() == ref.random()  # no draw for the instance count
            assert sim.is_feasible(conf)
            inst = conf[name]
            # the largest feasible count at or below the default
            assert inst == default or (inst < default and not sim.is_feasible({**conf, name: inst + 1}))
            slabs = ("spark.executor.memoryOverhead", "spark.memory.offHeap.size")  # may be scaled
            assert all(conf[k] == v for k, v in drawn.items() if k not in slabs)

    def test_evaluate_derives_executors_once_per_run(self, monkeypatch):
        sim = self._sim()
        calls = []
        real = SimulatedCluster._slabs

        def counted(self, conf):
            calls.append(conf)
            return real(self, conf)

        monkeypatch.setattr(SimulatedCluster, "_slabs", counted)
        r = sim.evaluate(ARM.default_conf(), 100.0)
        assert len(r.times) == 104
        assert len(calls) == 1

    def test_partial_conf_uses_defaults(self):
        sim = self._sim()
        partial = {"spark.sql.shuffle.partitions": 800}
        full = ARM.complete(partial)
        assert sim.evaluate(partial, 100.0).total == pytest.approx(
            sim.evaluate(full, 100.0).total
        )

    def test_rugged_default_neutral(self):
        from repro.cluster.simulator import _rugged_hashes, _rugged_multiplier

        defaults = {p.name: p.clip(p.default) for p in ARM.params}
        assert _rugged_multiplier(defaults, _rugged_hashes(defaults)) == pytest.approx(1.0)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCluster(ARM_CLUSTER, [])
