"""Digest of 18 tuning campaigns' run logs: a quick same-host gate for refactors.

Run from the root of a checkout::

    PYTHONPATH=src python benchmarks/runlog_digest.py

On the ARM cluster, for TPC-DS, TPC-H and Join, it runs LOCAT's
``tune_multi`` over ``SPEEDUP_SIZES_GB``, LOCAT's single-size ``tune`` (the
campaign of Figs 11/12/15/21) and each of the four baselines at 300 GB, with
the seeds every artefact uses. It prints one line per campaign:
its label, the number of charged runs in the executor's log, and the SHA-1 of
every run's ``(total, ds, sorted configuration, sorted per-query times, sorted
per-query GC times)``, so a change to any number a run reports (GC time is
what Fig 19 reads) shows. A second line per campaign hashes the noise-free
``evaluate`` of each recommendation at its size, the path every figure's
``best_time`` takes: its ``(ds, sorted per-query times, sorted per-query GC
times)``. Floats are hashed by
``repr``, which round-trips, so a change that keeps every result prints the
same lines as its parent on the same host. Across hosts the last bits of
SIMD kernels may differ (see ROADMAP.md, "the byte gate is host-bound").

OpenBLAS also rounds differently at different thread counts, so the script
pins the native thread pools to one thread before NumPy is imported, as
perfbench does: its lines do not depend on the caller's environment.
"""
from __future__ import annotations

import hashlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from repro.experiments.common import SOTA, SPEEDUP_SIZES_GB, run_campaign  # noqa: E402

BENCHMARKS = ("TPC-DS", "TPC-H", "Join")
BASELINE_DS_GB = 300.0


def digest(runs) -> str:
    h = hashlib.sha1()
    for r in runs:
        h.update(
            repr((r.total, r.ds, sorted(r.conf.items()), sorted(r.times.items()), sorted(r.gc_times.items()))).encode()
        )
    return h.hexdigest()


def best_digest(results, ex) -> str:
    h = hashlib.sha1()
    for res in results:
        r = ex.evaluate(res.best_conf, res.ds)
        h.update(repr((r.ds, sorted(r.times.items()), sorted(r.gc_times.items()))).encode())
    return h.hexdigest()


def main() -> None:
    for bench in BENCHMARKS:
        campaigns = [("LOCAT", "LOCAT", list(SPEEDUP_SIZES_GB)), (f"LOCAT@{BASELINE_DS_GB:g}", "LOCAT", BASELINE_DS_GB)]
        campaigns += [(name, name, BASELINE_DS_GB) for name in SOTA]
        for label, name, ds in campaigns:
            result, ex = run_campaign(name, bench, "arm", ds)
            results = list(result.values()) if isinstance(result, dict) else [result]
            print(f"{bench:7s} {label:9s} runs={len(ex.runs):4d} sha1={digest(ex.runs)}", flush=True)
            print(f"{bench:7s} {label:9s} best={len(results):4d} sha1={best_digest(results, ex)}", flush=True)


if __name__ == "__main__":
    main()
