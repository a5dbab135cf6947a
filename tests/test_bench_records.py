"""Schema of the committed ``BENCH_perfbench.json`` and of the records its
writer, ``benchmarks/perfbench_record.py``, appends."""
import json
import pathlib
import re

import pytest

from benchmarks.perfbench_record import METRICS, summary, workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCH["workloads"]}


def _check_record(rec: dict) -> None:
    assert re.fullmatch(r"[0-9a-f]{40}", rec["sha"])
    host = rec["host"]
    assert host["cpu_model"] and host["numpy"]
    assert isinstance(host["numpy_simd"], list)
    assert set(rec["workloads"]) <= WORKLOADS
    for wl in rec["workloads"].values():
        assert wl["seeds"] == sorted(wl["seeds"]) and wl["seeds"]
        assert list(wl["metrics"]) == list(METRICS)
        for m in wl["metrics"].values():
            assert m["n"] == len(wl["seeds"])
            assert m["q1"] <= m["median"] <= m["q3"]
            assert m["iqr"] == m["q3"] - m["q1"]
            assert m["unit"] in ("s", "ms")


def test_committed_records_match_schema():
    records = json.loads((ROOT / "BENCH_perfbench.json").read_text())
    assert isinstance(records, list) and records
    for rec in records:
        _check_record(rec)
    # every record covers every workload of BENCHMARK.json
    assert all(set(rec["workloads"]) == WORKLOADS for rec in records)


def test_metrics_follow_benchmark_json():
    assert METRICS == tuple(m["name"] for m in BENCH["end_to_end"])


def test_summary_quartiles():
    s = summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["iqr"], s["n"]) == (2.0, 3.0, 4.0, 2.0, 5)


def test_workloads_reads_untraced_results(tmp_path):
    for seed, run_s in ((2, 3.0), (1, 5.0), (3, 4.0)):
        rec = {"workload": "locat_online_sim", "seed": seed,
               "metrics": {m: {"value": run_s, "unit": "s"} for m in METRICS}}
        (tmp_path / f"result-locat_online_sim-seed{seed}-trace0.json").write_text(json.dumps(rec))
    (tmp_path / "result-locat_online_sim-seed9-trace1.json").write_text("{}")  # traced: skipped
    got = workloads(tmp_path)
    assert list(got) == ["locat_online_sim"]
    assert got["locat_online_sim"]["seeds"] == [1, 2, 3]
    assert got["locat_online_sim"]["metrics"]["run_s"]["median"] == pytest.approx(4.0)
