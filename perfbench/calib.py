"""Host-speed calibration: a fixed reference kernel timed alongside the ops.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more between phases lasting seconds to minutes, and that drift moves
every kind of work about alike.  So the worker times this fixed kernel every
``INTERVAL_S`` while the ops run (from a SIGALRM handler, and subtracts the
handler's time from the op it interrupted), and reports each op's time scaled
by ``REFERENCE_S`` / (the kernel's median time around that op).  A reported
second is a second on a host where the kernel takes ``REFERENCE_S``.

The kernel mixes the kinds of work the workloads do: exact ``Fraction``
arithmetic (``laurent``), tuple permutation products and dict lookups
(``oracle`` tables and closures), small numpy array calls and big-integer
Horner steps (the root finder).  It lives here, outside ``wfact``, so no change to the program
changes it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 3.0e-3  # nominal time of one reference() call
INTERVAL_S = 0.1  # how often the sampler runs the kernel during the ops
NEAREST = 25  # samples used for an op with fewer samples inside it

_PERM = tuple((7 * i + 3) % 24 for i in range(24))
_POLY = np.linspace(-1.0, 1.0, 17)
_COEFFS = [(-1) ** i * (i * 2654435761 % 2**40 + 1) for i in range(48)]


def reference() -> None:
    """A fixed piece of work of about 3 milliseconds on the reference host.

    Four parts of about equal time: small-``Fraction`` arithmetic, tuple
    permutation products with dict counts, small numpy polynomial calls, and
    a big-integer Horner evaluation with a gcd, as in the exact Newton step.
    """
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 60):
            acc = acc * Fraction(i, i + 1) + Fraction(i % 5 - 2, 3 * i + 1)
    seen = {}
    p = _PERM
    for _ in range(240):
        p = tuple(_PERM[v] for v in p)
        seen[p] = seen.get(p, 0) + 1
    z = np.exp(1j * np.arange(8.0))
    for k in range(9):
        np.abs(np.polynomial.polynomial.polyval(z * (k / 9), _POLY)).max()
    num, den, power, acc = 3**120 + 7, 2**190 + 1, 1, 0
    for c in _COEFFS:
        acc = acc * num + c * power
        power *= den
    math.gcd(acc, power)


def reference_times(samples: int = NEAREST) -> list[float]:
    """The times of ``samples`` back-to-back reference() calls."""
    clock = time.perf_counter
    times = []
    for _ in range(samples):
        t0 = clock()
        reference()
        times.append(clock() - t0)
    return times


class Sampler:
    """Times reference() every INTERVAL_S from a SIGALRM handler.

    ``busy`` is the handler's total time, so a caller subtracts the growth of
    ``busy`` over an op from the op's time.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.busy += t1 - t0

    def start(self) -> None:
        reference()  # warm, untimed; then samples on both sides of the ops
        for _ in range((NEAREST + 1) // 2):
            self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range((NEAREST + 1) // 2):
            self._tick(signal.SIGALRM, None)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the kernel's median time in or nearest [t0, t1]."""
        inside = [s for start, s in self.samples if t0 <= start <= t1]
        if len(inside) < NEAREST:
            def distance(sample: tuple[float, float]) -> float:
                return max(t0 - sample[0], sample[0] - t1, 0.0)

            inside = [s for _, s in sorted(self.samples, key=distance)[:NEAREST]]
        return REFERENCE_S / statistics.median(inside)
