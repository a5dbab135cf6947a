"""Regenerate every paper artefact into ``results/<name>.txt``.

One case per :data:`repro.experiments.ARTEFACTS` name, so
``pytest benchmarks/ --benchmark-only -k fig11_opttime_arm`` regenerates
one file. Each case then checks the artefact's shape where the paper
fixes one.
"""
import pathlib

import pytest

from repro.experiments import ARTEFACTS, LIVE, build, text

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def _fig20_locat_cheapest(df):
    locat = df[df.tuner == "LOCAT"].cumulative_opt_h.max()
    others = df[df.tuner != "LOCAT"].groupby("tuner").cumulative_opt_h.max()
    return (others > locat).all()


SHAPES = {
    "table1": lambda df: len(df) == 5,
    "table2": lambda df: len(df) == 38,
    "table3": lambda df: len(df) == 15,
    "fig06_kernels": lambda df: set(df.kernel) == {"gaussian", "polynomial", "perceptron"},
    "fig07_nqcsa": lambda df: df.n_samples.max() == 50,
    "fig08_summary": lambda df: df.n_queries.iloc[0] == 104,
    "fig10_cps_cpe": lambda df: len(df) == 5,
    "fig11_opttime_arm": lambda df: (df.time_reduction_x > 1).mean() > 0.8,
    "fig12_opttime_x86": lambda df: (df.time_reduction_x > 1).mean() > 0.8,
    "fig16_models": lambda df: df.groupby("model").rel_error.mean().idxmin() == "GBRT",
    "fig20_overhead": _fig20_locat_cheapest,
    LIVE: lambda df: df.n_runs.iloc[0] >= 8,
}


@pytest.mark.parametrize("name", list(ARTEFACTS))
def test_artefact(benchmark, request, name):
    spark = request.getfixturevalue("spark") if name == LIVE else None
    df, extra = benchmark.pedantic(build, args=(name, spark), rounds=1, iterations=1)
    (RESULTS_DIR / f"{name}.txt").write_text(text(df, extra))
    if name in SHAPES:
        assert SHAPES[name](df)
