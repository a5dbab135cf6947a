"""Append one perfbench record to ``BENCH_perfbench.json``.

Run from the root of a checkout after its perfbench runs::

    python benchmarks/perfbench_record.py [--checkout DIR] [--sha SHA] [--label TEXT]

It reads every ``DIR/.perfbench_out/result-*-trace0.json`` that
``perfbench/run.py`` wrote (one per workload and seed) and appends to
``BENCH_perfbench.json`` at the root of this checkout one record: the git sha
of ``DIR`` (``--sha`` for a copy without ``.git``), the host (CPU model, the
SIMD features NumPy dispatches to, the OpenBLAS core) and, per workload, the
seeds and the median, quartiles and IQR of each end-to-end metric over them.
The host explains byte drift between records: the last bits of a SIMD kernel
may differ between CPUs. A change measured before it is committed cannot name
its own sha: its record takes its parent's sha and ``--label change``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_perfbench.json"
#: The end-to-end metrics of BENCHMARK.json, in its order.
METRICS = tuple(m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_core() -> str | None:
    """The core OpenBLAS picked at load time, read from the library NumPy
    loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def host() -> dict:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "cpu_model": _cpu_model(),
        "numpy": np.__version__,
        "numpy_simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "openblas_core": _openblas_core(),
    }


def summary(values: list[float]) -> dict:
    q1, med, q3 = (float(np.percentile(values, q)) for q in (25, 50, 75))
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def workloads(out_dir: Path) -> dict:
    """Per workload: its seeds and each end-to-end metric's summary."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(out_dir.glob("result-*-trace0.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], []).append(rec)
    out = {}
    for name, recs in sorted(runs.items()):
        recs.sort(key=lambda r: r["seed"])
        out[name] = {
            "seeds": [r["seed"] for r in recs],
            "metrics": {
                m: {"unit": recs[0]["metrics"][m]["unit"], **summary([r["metrics"][m]["value"] for r in recs])}
                for m in METRICS
            },
        }
    return out


def record(checkout: Path, sha: str | None, label: str | None) -> dict:
    if sha is None:
        sha = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    found = workloads(checkout / ".perfbench_out")
    if not found:
        raise SystemExit(f"no perfbench results under {checkout / '.perfbench_out'}")
    return {"sha": sha, "label": label, "host": host(), "workloads": found}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--sha")
    ap.add_argument("--label")
    args = ap.parse_args(argv)
    records = json.loads(OUT.read_text()) if OUT.exists() else []
    records.append(record(args.checkout, args.sha, args.label))
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{OUT.name}: {len(records)} records", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
