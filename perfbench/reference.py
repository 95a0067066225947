"""A fixed reference computation that gauges the machine's current speed.

On a shared host the same fixed work of the package takes from 0.6 to 1.1 s
of CPU time, depending on what other tenants run beside it: CPU time and
wall time agree, so the process is not waiting, it runs slower.  The speed
changes within seconds.  While a :class:`Gauge` is entered, a ``SIGPROF``
handler runs this kernel every ``INTERVAL_S`` of process CPU time, in the
main thread between two Python bytecodes, and records the kernel's CPU time.
The benchmark takes that time out of the operation's and scales the rest
with :func:`scaled`, by the kernel's mean time during the operation.

The kernel imports nothing from ``eig_mlmc``, so no change to the package
moves it, and it touches no state the package reads, so outputs do not
change.  Its mix follows the package's: a Python-level loop, and batched
small dense linear algebra and elementwise numpy on a thousand rows.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The scaled times are CPU seconds at a speed where one kernel call takes
# NOMINAL_S; it sets only their scale.  On the machine of the README baseline
# (2-vCPU Intel Xeon, Python 3.11, numpy 2.4, one OpenBLAS thread) a call
# took 8.4 ms alone, and a median of 10-12 ms inside the single-thread
# workloads' operations.
NOMINAL_S = 0.01

# How much of the kernel's slow-down is taken out of an operation's time.
# Over 750 operations of the four workloads on the README machine, the log
# of an operation's CPU time rose by 0.57-0.75 times the log of the kernel's
# time beside it: the package slows less than the kernel does.  Taking out
# all of it (1.0) let the medians of ten runs move by up to 17% between
# machine phases; 0.7 kept them within 8%, with the same spread in a set.
EXPONENT = 0.7

# Process CPU time between two kernel calls while a Gauge is entered.
INTERVAL_S = 0.2

_ROWS = 1000
_rng = np.random.default_rng(20181119)
_A = _rng.standard_normal((_ROWS, 4, 4))
_V = _rng.standard_normal((_ROWS, 4, 1))
_EYE = 4.0 * np.eye(4)


def kernel() -> float:
    """The reference computation."""
    x = 0
    for i in range(15000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    total = 0.0
    for _ in range(8):
        b = _A @ _A.transpose(0, 2, 1) + _EYE
        chol = np.linalg.cholesky(b)
        y = np.linalg.solve(b, _V)
        total += float(np.log(np.diagonal(chol, axis1=1, axis2=2)).sum())
        total += float(np.exp(-0.5 * np.einsum("rij,rij->r", y, y)).sum())
    return total + x


def seconds() -> float:
    """CPU seconds of one kernel call, counted on the calling thread only,
    so that a thread pool busy meanwhile does not count."""
    c0 = time.thread_time()
    kernel()
    return time.thread_time() - c0


def scaled(cpu_s: float, kernel_s: float) -> float:
    """``cpu_s`` at the nominal speed, given the kernel's mean CPU time
    measured beside it."""
    return cpu_s * (NOMINAL_S / kernel_s) ** EXPONENT


class Gauge:
    """While entered, samples the kernel's CPU time into ``samples``."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(seconds())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
