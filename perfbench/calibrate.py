"""Machine-speed calibration for the time metrics.

The benchmark runs on shared hosts whose speed switches by tens of percent
every few seconds (the same request takes 1.0x to 1.6x as long, depending on
what else the host runs).  A fixed kernel that uses no ``qdilemma`` code is
timed between requests, for a constant share of the run's wall time, and
each request's latency is divided by the speed factor around it: the mean of
the kernel timings just before and just after the request, over
``NOMINAL_S``.  Scaled times read as seconds on a machine where the kernel
takes ``NOMINAL_S``; the raw times are printed beside them.  A change to
``qdilemma`` cannot move the kernel, so it moves the scaled times as much as
the raw ones.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Kernel time that defines the reference speed (the kernel's typical time on
#: a 2-vCPU Intel Xeon host with Python 3.11 and numpy 2.4).
NOMINAL_S = 0.0015
#: Kernel timings are taken between requests once this much time has passed...
INTERVAL_S = 0.25
#: ...for this share of the time since the previous timings, and at least MIN_RUNS times.
DUTY = 0.05
MIN_RUNS = 3

_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_STATE = np.diag(np.linspace(0.0, 1.0, 8)).astype(complex) / 3.5


def kernel() -> float:
    """Small complex matrix products, Python calls and text formatting, like the workloads."""
    acc = 0.0
    for i in range(20):
        u = np.kron(np.kron(_GATE, _GATE), _GATE)
        rho = u @ _STATE @ u.conj().T
        acc += float(np.trace(rho).real) + float(np.linalg.eigvalsh(rho)[0])
        json.dumps({"i": i, "acc": acc, "row": [acc * k for k in range(8)]})
        format(acc, ".12g")
    return acc


class Speed:
    """Kernel timings taken between requests, and the scaling they give."""

    def __init__(self):
        #: one entry per timing burst: the median kernel time in it
        self.ticks: list[float] = []
        self.runs = 0
        self._last: float | None = None

    def tick(self, force: bool = False) -> int:
        """Time the kernel if INTERVAL_S has passed since the last burst (or ``force``).

        Returns the index of the latest burst, the one that precedes whatever runs next.
        """
        now = time.perf_counter()
        if self._last is not None and now - self._last < INTERVAL_S and not force:
            return len(self.ticks) - 1
        budget = 0.0 if self._last is None else DUTY * (now - self._last)
        times: list[float] = []
        while len(times) < MIN_RUNS or sum(times) < budget:
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.ticks.append(statistics.median(times))
        self.runs += len(times)
        self._last = time.perf_counter()
        return len(self.ticks) - 1

    def scale(self, seconds: float, index: int) -> float:
        """``seconds`` measured between bursts ``index`` and ``index + 1``, at the reference speed."""
        return seconds * 2.0 * NOMINAL_S / (self.ticks[index] + self.ticks[index + 1])

    def factor(self) -> float:
        """How many times slower than the reference speed the machine ran, on average."""
        return statistics.fmean(self.ticks) / NOMINAL_S
