"""SOTA baseline tuners the paper compares LOCAT against.

The comparisons with Tuneful, DAC, GBO-RL and QTune hinge on each
baseline's *sample economics* — how many full-application cluster runs
its algorithm needs — and on its search structure (which dimensions it
tunes, whether it adapts to data size). Each baseline is a
:class:`repro.core.result.BaseTuner`, like LOCAT itself, and implements
only ``_tune(executor, ds, rng)``. None of the published algorithms but
DAC's is datasize-aware, so ``tune_multi`` re-tunes from scratch per
size; DAC keeps its model on the tuner and only tops up its samples, so
one DAC instance serves one executor's campaigns.
"""
from repro.baselines.dac import DAC
from repro.baselines.gborl import GBORL
from repro.baselines.qtune import QTune
from repro.baselines.tuneful import Tuneful

__all__ = ["Tuneful", "DAC", "GBORL", "QTune"]
