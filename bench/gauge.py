"""Machine-speed gauges measured alongside a workload, to rescale its wall times.

The CPUs of a shared machine run up to about twice as slow in phases that
last from a fraction of a second to minutes, so raw wall times of whole runs
differ by that factor from run to run. A gauge times a fixed piece of work
that does not use qprob, between documents. A document's wall time is
multiplied by NOMINAL_S over the gauge time interpolated at the document's
midpoint, so it reads as the time at the nominal speed. A change to qprob
does not move a gauge.

Different work slows by different factors in the slow phase, so each kind of
time has the gauge it tracks best: in-process qprob calls the kernel of
small numpy operations and Python calls, and process start-up the start of a
bare interpreter.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

clock = time.perf_counter


class Gauge:
    NOMINAL_S = 1.0
    INTERVAL_S = 0.1

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, gauge seconds)

    def time_once(self) -> float:
        raise NotImplementedError

    def measure(self) -> None:
        start = clock()
        seconds = self.time_once()
        self.samples.append((0.5 * (start + clock()), seconds))

    def maybe_measure(self) -> None:
        """Measure unless the last sample is younger than INTERVAL_S."""
        if not self.samples or clock() - self.samples[-1][0] >= self.INTERVAL_S:
            self.measure()

    def scale(self, spans: list[tuple[float, float]]) -> list[float]:
        """Rescale (start, seconds) pairs to seconds at the nominal speed."""
        if not spans:
            return []
        at, gauge = (np.array(v) for v in zip(*self.samples))
        mid = np.array([start + 0.5 * seconds for start, seconds in spans])
        seconds = np.array([seconds for _, seconds in spans])
        return list(seconds * self.NOMINAL_S / np.interp(mid, at, gauge))


class KernelGauge(Gauge):
    """Median of five runs of a kernel of small numpy operations and Python calls."""

    NOMINAL_S = 2.5e-4
    _ROTATION = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    @classmethod
    def _kernel(cls) -> float:
        acc = 0.0
        for i in range(50):
            v = np.array([0.1 * i, 0.2, 0.3])
            w = cls._ROTATION @ v + v
            acc += float(w @ w) + float(np.linalg.norm(v))
            acc += len((acc, i, "x"))
        return acc

    def time_once(self) -> float:
        times = []
        for _ in range(5):
            start = clock()
            self._kernel()
            times.append(clock() - start)
        return statistics.median(times)


class StartGauge(Gauge):
    """Start and exit of a bare interpreter, `python3 -c pass`, with the children's environment."""

    NOMINAL_S = 0.05

    def __init__(self, env: dict, cwd: str):
        super().__init__()
        self.env = env
        self.cwd = cwd

    def time_once(self) -> float:
        start = clock()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.cwd, check=True)
        return clock() - start
