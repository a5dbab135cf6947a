"""Host speed probes, interleaved with the timed work.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed single-threaded kernel, timed repeatedly, took 1.6x longer at one time
than at another a few minutes later, with CPU time rising as much as
wall-clock time and no steal. The means over 20-second windows spread by 27 %
(IQR over median, 4 minutes, 4-vCPU host). A wall-clock time of fixed work
therefore spreads about as much from run to run, whatever the program does.

A :class:`SpeedProbe` times a fixed kernel (interpreter loops and small
NumPy calls, the mix the tuners run) at points spread over the timed work.
On 12 passes of ``locat_online_sim`` in one process, while the host
drifted, the pass wall-clock times spread by 24 %, and their ratios to the
mean probe time in the pass by 6 %. The probe kernel is part of the benchmark, not of the program, so a change
to the program does not move it. A time ``t`` of the program measured while
the probes took ``p`` seconds each is reported at reference speed as
``t * PROBE_REF_S / p``: the time the work would take on a host where one
probe takes :data:`PROBE_REF_S`. The raw wall-clock times are printed too.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["PROBE_REF_S", "SpeedProbe", "probe_kernel"]

#: Nominal time of one probe kernel: the scale of the reference-speed times.
#: The kernel took 0.8 to 2 ms on the 4-vCPU reference machine (Python 3.11,
#: NumPy 1.26.4, OpenBLAS 0.3.23 with one thread).
PROBE_REF_S = 0.0015

_RNG = np.random.default_rng(0)
_B = _RNG.standard_normal((24, 24))
_SPD = _B @ _B.T + 24.0 * np.eye(24)
_V = _RNG.standard_normal(24)


def probe_kernel() -> float:
    """Fixed work: a pure-Python loop and a few small dense linear-algebra calls."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(4000):
        acc += (i * 0.5) % 7.0
        table[i & 31] = acc
    for _ in range(24):
        chol = np.linalg.cholesky(_SPD)
        acc += float(np.linalg.solve(chol, _V).sum())
        acc += float(np.exp(-np.abs(_SPD - acc * 1e-9)).sum())
    return acc


class SpeedProbe:
    """Times probe kernels at points in the timed work.

    :meth:`maybe` times one kernel once ``interval_s`` has passed since the
    last probe; :meth:`probe` times ``repeat`` kernels at once. The time
    spent in probes is kept apart (``spent_s``) so the caller can take it
    out of its own wall-clock figures.
    """

    def __init__(self):
        self.interval_s = 0.1
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def probe(self, repeat: int = 3) -> None:
        t0 = time.perf_counter()
        for _ in range(repeat):
            t = time.perf_counter()
            probe_kernel()
            self.samples.append(time.perf_counter() - t)
        self._last = time.perf_counter()
        self.spent_s += self._last - t0

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= self.interval_s:
            self.probe(1)

    def mark(self) -> int:
        """A point to measure from: the number of samples so far."""
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Factor that takes a time measured since ``mark`` to reference
        speed: the reference time of a probe over the mean since then.

        The mean, not the median: the host switches between fast and slow
        spells, and the work's time adds up over both as the mean does.
        """
        return PROBE_REF_S / statistics.fmean(self.samples[mark:])
