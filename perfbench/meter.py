"""Host-speed-scaled timing of a job's layer calls.

The benchmark times each call into the program from outside.  On a shared
host the CPU a job gets swings by a third or more over tens of seconds,
for reasons outside the program, so a raw wall time of the same code
differs from run to run by more than any regression worth catching.  Two
fixed loops timed just before and just after each call give the host's
speed during it, and the call's wall is scaled to a reference speed.  Raw
walls are kept alongside.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Tuple

import numpy as np

#: the loops' times at the reference host speed (about their times on an
#: idle 2 GHz Xeon core): the pure-Python loop, then the numpy pass.
PY_REF_S = 0.0025
NP_REF_S = 0.002


def _py_loop() -> float:
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(6_000):
        table[(i * 7919) % 100_003] = i
    total = 0
    for k in range(12_000):
        total += table.get((k * 31) % 100_003, 0)
    return time.perf_counter() - t0


class HostSpeed:
    """Times two fixed loops that stand for the host's current speed.

    One is a pure-Python dict loop (interpreter speed), the other a numpy
    pass over two 8 MB arrays (memory bandwidth); the program's layers mix
    both kinds of work.  The arrays stay allocated for the run, so they
    are part of every job's peak RSS.
    """

    def __init__(self):
        self._a = np.arange(1_000_000, dtype=np.float64)
        self._b = np.empty_like(self._a)

    def _np_loop(self) -> float:
        t0 = time.perf_counter()
        np.multiply(self._a, 1.0000001, out=self._b)
        np.add(self._b, self._a, out=self._b)
        return time.perf_counter() - t0

    def sample(self) -> Tuple[float, float]:
        """Seconds of each loop: the fastest of three back-to-back runs, so
        that an interrupt or a single descheduling does not read as a slow
        host."""
        return (min(_py_loop() for _ in range(3)),
                min(self._np_loop() for _ in range(3)))


def to_ref(before: Tuple[float, float], after: Tuple[float, float]) -> float:
    """The factor from wall to reference seconds for a call between two samples.

    Each loop gives the reference time over its mean time around the call;
    the factor is the mean of the two.
    """
    py = 2 * PY_REF_S / (before[0] + after[0])
    vec = 2 * NP_REF_S / (before[1] + after[1])
    return (py + vec) / 2


class Meter:
    """Times the layer calls of one job, and holds its peak RSS.

    Traced (``rec.enabled``), each call is a ``layer`` span of job ``job``
    and ``counts`` (e.g. ``edges`` partitioned) ride on it as args.
    Untraced, each call's wall is added to ``wall_s``, and to ``ref_s``
    scaled by the host speed measured just before and just after it.
    """

    def __init__(self, rec, job: int, speed: HostSpeed):
        self.rec, self.job, self._speed = rec, job, speed
        self.wall_s = self.ref_s = 0.0
        #: the benchmark process's peak RSS during the job, set after it.
        self.peak_rss_mb = float("nan")
        self._sample = None if rec.enabled else speed.sample()

    @contextlib.contextmanager
    def layer(self, name: str, **counts):
        if self.rec.enabled:
            with self.rec.span(name, cat="layer", args={"job": self.job, **counts}):
                yield
            return
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        sample = self._speed.sample()
        self.wall_s += wall
        self.ref_s += wall * to_ref(self._sample, sample)
        self._sample = sample
