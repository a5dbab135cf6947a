"""The artefact table is the single path to every ``results/*.txt``.

The cheap simulator artefacts are rendered in process and compared byte
for byte with the committed files; one ``python -m repro.experiments``
subprocess checks that the CLI prints the same text.
"""
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments import ARTEFACTS, render

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

CHEAP = (
    "table1",
    "table2",
    "table3",
    "fig06_kernels",
    "fig07_nqcsa",
    "fig08_summary",
    "fig08_per_query_cv",
    "fig09_niicp",
    "fig10_cps_cpe",
    "fig16_models",
    "fig17_iicp_gbrt",
)


def test_every_results_file_has_an_artefact():
    assert set(ARTEFACTS) == {p.stem for p in RESULTS.glob("*.txt")}


@pytest.mark.parametrize("name", CHEAP)
def test_render_matches_committed(name):
    assert render(name) == (RESULTS / f"{name}.txt").read_text()


def _cli(*names):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *names],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_cli_prints_committed_table1():
    out = _cli("table1")
    assert out.returncode == 0, out.stderr
    assert out.stdout == (RESULTS / "table1.txt").read_text()


def test_cli_rejects_unknown_name():
    assert _cli("no_such_artefact").returncode == 2
