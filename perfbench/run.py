"""Benchmark of the LOCAT reproduction: tuner cost, the paper's metrics, live Spark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload locat_online_sim --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: a pass (a fixed amount of work, see
``README.md``) starts only after the previous one ended, and passes repeat
until ``--seconds`` of timed work are done. With ``--trace 0`` the last
stdout line is a JSON object holding the end-to-end metrics; with
``--trace 1`` the run times untraced passes for half the time, then wraps
the layer entry points and times traced passes for the other half, writes
the spans under ``.perfbench_out/`` and prints the per-layer metrics.
Correctness checks run outside the timed region; any failure makes the exit
code 1. On the sim workloads the gated times are at reference host speed
(``speed.py``); on live they are wall-clock. ``--size tiny`` shrinks every
workload for the smoke test.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("locat_online_sim", "baselines_sim", "live_spark_tpch")
#: Native thread pools pinned to one thread, so one process means one core
#: of numeric work and runs on a shared machine compare.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: End-to-end metrics and their units, in BENCHMARK.json order. Every time
#: is at reference host speed (see ``speed.py``).
END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("step_ms_mean", "ms"),
)
#: Set-ups measured per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def pct(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def pin_environment() -> dict:
    """Cap native thread pools and keep temporary files inside the checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    return {var: os.environ[var] for var in THREAD_VARS}


def cpu_ticks() -> list[int] | None:
    """Aggregate CPU counters from /proc/stat (user ... steal), if readable."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the host took from this machine between two reads."""
    if before is None or after is None:
        return None
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def machine_record(threads: dict, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {
        "nproc": os.cpu_count(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    rec.update(workload.machine)
    return rec


def make_workload(name: str, seed: int, tiny: bool):
    if name == "live_spark_tpch":
        from live import LiveWorkload

        return LiveWorkload(seed, tiny=tiny, out_dir=OUT)
    from sim import SimWorkload

    return SimWorkload(name, seed, tiny=tiny)


def timed_passes(wl, seconds: float, tracer=None) -> list:
    """Closed loop: passes back to back for about ``seconds`` of timed work.

    Another pass starts while at least half a mean pass of the time is left,
    so a run overshoots ``seconds`` by at most half a pass.
    """
    passes = []
    timed = 0.0
    while not passes or seconds - timed >= 0.5 * timed / len(passes):
        if tracer is not None:
            tracer.run_id = len(passes)
        passes.append(wl.run_pass(tracer))
        timed += passes[-1].wall_s
    return passes


def ref_run_s(passes: list) -> list[float]:
    """Pass wall-clock times at reference host speed."""
    return [p.wall_s * p.scale for p in passes]


def end_to_end(passes: list, setup_s: float) -> dict:
    v = {
        "run_s": statistics.median(ref_run_s(passes)),
        "setup_s": setup_s,
        "step_ms_mean": statistics.fmean(s * p.scale for p in passes for s in p.steps_ms),
    }
    return {k: {"value": v[k], "unit": u} for k, u in END_TO_END}


def summary_lines(name: str, passes: list, report: dict, attempted: int, failed: int) -> list[str]:
    """Human-readable report: every metric the workload defines, with units
    and sample counts (the JSON line carries the benchmark contract)."""
    steps = [s for p in passes for s in p.steps_ms]
    wall = sum(p.wall_s for p in passes)
    kind = "query latency" if name == "live_spark_tpch" else "think time"
    lines = [
        f"passes: {len(passes)}  wall-clock run_s median {statistics.median(p.wall_s for p in passes):.4f} s"
        f"  ({', '.join(f'{p.wall_s:.3f}' for p in passes)})",
    ]
    if any(p.scale != 1.0 for p in passes):
        lines.append(f"host speed: reference/measured {', '.join(f'{p.scale:.3f}' for p in passes)} per pass")
    lines += [
        f"wall-clock step ({kind}): p50 {pct(steps, 50):.4f} ms  p90 {pct(steps, 90):.4f} ms  "
        f"mean {statistics.fmean(steps):.4f} ms  n={len(steps)}",
        f"wall-clock steps_per_s: {sum(p.n_steps for p in passes) / wall:.4f} 1/s",
        f"error_rate: {failed}/{attempted} = {failed / attempted:.6f}",
    ]
    for key, value in report.items():
        lines.append(f"{key}: {value}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_environment()
    sys.path.insert(0, str(ROOT / "src"))

    from layers import per_layer_metrics
    from tracing import Tracer

    wl = make_workload(args.workload, args.seed, args.size == "tiny")
    import_s = time.perf_counter() - T_START
    if wl.probe is not None:
        wl.probe.probe()
    tracer = Tracer() if args.trace else None
    try:
        setup_wall_s = import_s + wl.setup(SETUP_REPEATS, tracer)
        # The set-up probes are the first samples of the run.
        setup_s = setup_wall_s * (wl.probe.scale(0) if wl.probe is not None else 1.0)
        failed, attempted = wl.check_before()
        ticks = cpu_ticks()
        untraced = timed_passes(wl, args.seconds / 2 if tracer else args.seconds)
        steal = steal_share(ticks, cpu_ticks())
        traced = []
        if tracer is not None:
            wl.install(tracer)
            try:
                traced = timed_passes(wl, args.seconds / 2, tracer)
            finally:
                tracer.unwrap_all()
        passes = untraced + traced
        attempted += sum(p.attempted for p in passes)
        failed += sum(p.failed for p in passes)
        f2, a2 = wl.check_after()
        failed, attempted = failed + f2, attempted + a2
        problems = [msg for p in passes for msg in p.problems] + wl.problems
        if tracer is not None:
            extra = wl.layer_extra(tracer, len(traced))
            metrics = per_layer_metrics(
                tracer,
                traced_s=ref_run_s(traced),
                untraced_s=ref_run_s(untraced),
                traced_wall_s=[p.wall_s for p in traced],
                extra=extra,
            )
        else:
            metrics = end_to_end(untraced, setup_s)
        report = wl.report(untraced)
        lines = summary_lines(args.workload, untraced, report, attempted, failed)
        machine = machine_record(threads, wl)
    finally:
        wl.close()

    lines.append(f"setup_s: {setup_s:.4f} (wall-clock {setup_wall_s:.4f}, import {import_s:.4f})")
    if steal is not None:
        lines.append(f"host CPU steal during the untraced passes: {100 * steal:.2f} %")
        machine["steal_share"] = steal
    lines.append("machine: " + json.dumps(machine, sort_keys=True))
    for msg in problems[:50]:
        lines.append(f"FAILED: {msg}")
    print("\n".join(lines))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "machine": machine,
              "report": report, "metrics": metrics, "problems": problems}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.write_jsonl(OUT / f"spans-{tag}.jsonl")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
