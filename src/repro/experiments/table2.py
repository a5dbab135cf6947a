"""Table 2 — the 38 selected configuration parameters.

Reproduces the parameter table: name, default, Range A (ARM cluster),
Range B (x86 cluster), and the paper's classification into numeric
resource (*), numeric non-resource (bold) and boolean parameters.
"""
from __future__ import annotations

import pandas as pd

from repro.core.configspace import arm_space, x86_space

__all__ = ["PAPER", "run"]

PAPER = {
    "n_params": 38,
    # Prose says 28 numeric / 10 boolean; the printed table has 27 / 11.
    "n_numeric_printed": 27,
    "n_boolean_printed": 11,
    "n_resource": 6,
}


def run() -> pd.DataFrame:
    a, b = arm_space(), x86_space()
    rows = []
    for pa in a.params:
        pb = b[pa.name]

        def rng(p):
            if p.kind == "bool":
                return "true, false"
            fmt = (lambda v: f"{v:g}") if p.kind == "float" else (lambda v: str(int(v)))
            return f"{fmt(p.lo)} - {fmt(p.hi)}"

        rows.append(
            {
                "parameter": pa.name,
                "kind": pa.kind,
                "resource": "*" if pa.resource else "",
                "default": pa.default,
                "range_A_arm": rng(pa),
                "range_B_x86": rng(pb),
            }
        )
    return pd.DataFrame(rows)
