"""Host-speed reference: a fixed computation timed all through a run.

The speed of a single CPU-bound process on a shared virtual machine drifts
by up to 1.5x within seconds and over minutes, and CPU time drifts with
wall time.  Such a drift slows every pure-Python computation in the same
proportion, so a fixed computation timed at the same moments as the
operations measures it.  ``Sampler`` runs ``reference()`` from a SIGALRM
handler every ``INTERVAL_S`` of wall time.  Python runs the handler between
two bytecodes of whatever is running, so the samples fall inside long
operations too.  ``scale()`` is then the host's slowness relative to one on
which the reference takes ``NOMINAL_S``, over the same stretch of time as
the operations.

The reference uses only the standard library: exact Fraction arithmetic
(the work of the library's simplex and double description), tuple building,
hashing and sorting.  A change to ``wordcones`` leaves it alone.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1    # wall time between two reference samples
NOMINAL_S = 0.005   # the reference time that scale() maps to 1.0
ROUNDS = 15         # about 5 ms on a 2-vCPU x86-64 host

_rng = random.Random(0)
_MATRIX = tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(8))
                for _ in range(8))
_VECTOR = tuple(Fraction(_rng.randint(0, 50)) for _ in range(8))


def reference() -> int:
    """The fixed computation: exact matrix-vector products, hashed and sorted."""
    total = 0
    for _ in range(ROUNDS):
        image = tuple(sum((a * b for a, b in zip(row, _VECTOR)), Fraction(0))
                      for row in _MATRIX)
        total += len(sorted({i: x for i, x in enumerate(image)}.values()))
    return total


class Sampler:
    """Times ``reference()`` every INTERVAL_S of wall time while started.

    ``ns`` is the total time spent in samples, so a caller subtracts its
    growth over an interval from the interval's own time.
    """

    def __init__(self):
        self.ns = 0
        self.count = 0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter_ns()
        reference()
        self.ns += time.perf_counter_ns() - t0
        self.count += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_s(self) -> float:
        if not self.count:  # a run shorter than one interval
            self._sample()
        return self.ns / self.count / 1e9

    def scale(self) -> float:
        """Mean reference time over NOMINAL_S: 2.0 on a host twice as slow."""
        return self.mean_s() / NOMINAL_S
