"""Print paper artefacts: python -m repro.experiments NAME [NAME ...]"""
import argparse

from repro.experiments import ARTEFACTS, LIVE, render, spark_online

if __name__ == "__main__":
    p = argparse.ArgumentParser(prog="python -m repro.experiments", description=__doc__)
    p.add_argument("names", nargs="+", choices=ARTEFACTS, metavar="NAME", help=", ".join(ARTEFACTS))
    names = p.parse_args().names
    spark = spark_online.session() if LIVE in names else None
    for name in names:
        print(render(name, spark), end="")
