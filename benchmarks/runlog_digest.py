"""Digest of 15 tuning campaigns' run logs: a quick same-host gate for refactors.

Run from the root of a checkout::

    PYTHONPATH=src python benchmarks/runlog_digest.py

On the ARM cluster, for TPC-DS, TPC-H and Join, it runs LOCAT's
``tune_multi`` over ``SPEEDUP_SIZES_GB`` and each of the four baselines at
300 GB, with the seeds every artefact uses. It prints one line per campaign:
its label, the number of charged runs in the executor's log, and the SHA-1 of
every run's ``(total, ds, sorted configuration, sorted per-query times, sorted
per-query GC times)``, so a change to any number a run reports (GC time is
what Fig 19 reads) shows. Floats are hashed by
``repr``, which round-trips, so a change that keeps every result prints the
same lines as its parent on the same host. Across hosts the last bits of
SIMD kernels may differ (see ROADMAP.md, "the byte gate is host-bound").
"""
from __future__ import annotations

import hashlib

from repro.experiments.common import SOTA, SPEEDUP_SIZES_GB, run_campaign

BENCHMARKS = ("TPC-DS", "TPC-H", "Join")
BASELINE_DS_GB = 300.0


def digest(runs) -> str:
    h = hashlib.sha1()
    for r in runs:
        h.update(
            repr((r.total, r.ds, sorted(r.conf.items()), sorted(r.times.items()), sorted(r.gc_times.items()))).encode()
        )
    return h.hexdigest()


def main() -> None:
    for bench in BENCHMARKS:
        campaigns = [("LOCAT", list(SPEEDUP_SIZES_GB))] + [(name, BASELINE_DS_GB) for name in SOTA]
        for name, ds in campaigns:
            _, ex = run_campaign(name, bench, "arm", ds)
            print(f"{bench:7s} {name:8s} runs={len(ex.runs):4d} sha1={digest(ex.runs)}", flush=True)


if __name__ == "__main__":
    main()
