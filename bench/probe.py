"""Interleaved machine-speed probe, so that run-to-run timings compare.

The benchmark host may share its cores with other machines. On a 2-vCPU
Intel Xeon at 2.0 GHz shared with other virtual machines, identical
``select_best`` work took up to 35% longer in one 10-second window than in
another as the host's load changed, while its ratio to this probe's kernel,
run interleaved with it, moved three times less.

So every timed pass runs with the probe armed: a timer interrupts the pass
every ``INTERVAL_S`` and runs one fixed probe unit, never the package under
test: small symmetric eigensolves with residual checks, one 43x43
nonsymmetric eigensolve (the size of the largest ARE pencil) and
interpreter work. The benchmark's clock excludes probe time, and each pass's
times are reported as

    seconds * REF_UNIT_S / (mean probe unit time during the pass)

that is, in seconds at the speed at which one probe unit takes
``REF_UNIT_S``. Result files keep the unscaled times and the probe's
figures too.
"""

from __future__ import annotations

import itertools
import signal
import time

import numpy as np

INTERVAL_S = 0.025
# probe unit time at the reference speed, near the fast end of that machine
REF_UNIT_S = 0.0008

# bound before the tracer patches numpy.linalg.eigh, so probe units never
# show up as spans
_eig = np.linalg.eig
_eigh = np.linalg.eigh
_norm = np.linalg.norm


def _symmetric(rng, n: int) -> np.ndarray:
    a = rng.random((n, n))
    return a + a.T


class SpeedProbe:
    """Runs probe units on a timer while armed and keeps their total time."""

    def __init__(self):
        rng = np.random.default_rng(20240607)
        self._mats = [_symmetric(rng, 9), _symmetric(rng, 20)]
        self._general = rng.standard_normal((43, 43))
        self.seconds = 0.0
        self.units = 0
        self._armed = False
        self._previous_handler = None

    def _unit(self):
        for A in self._mats:
            w, v = _eigh(A)
            _norm(A @ v - v * w, axis=0).max()
        _eig(self._general)
        total = 0
        for subset in itertools.combinations(range(10), 3):
            total += subset[0]

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._unit()
        self.seconds += time.perf_counter() - t0
        self.units += 1
        if self._armed:  # re-armed only after the unit, so ticks never nest
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def sample(self, seconds: float) -> float:
        """Mean time of back-to-back probe units over about ``seconds``, for
        timing work the timer cannot interleave with (other processes)."""
        t0 = time.perf_counter()
        n = 0
        while n < 3 or time.perf_counter() - t0 < seconds:
            self._unit()
            n += 1
        return (time.perf_counter() - t0) / n

    def clock(self) -> float:
        """perf_counter with the probe's own time taken out."""
        while True:
            before = self.seconds
            now = time.perf_counter()
            if self.seconds == before:  # no probe unit ran in between
                return now - before

    def arm(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def disarm(self):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
