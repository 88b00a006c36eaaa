"""How fast the host runs Python right now, sampled while a repeat runs.

On a shared host the same code's wall time drifts by up to 2x within
minutes: the host slows every core in phases that come and go many
times a second and whose share drifts over minutes.  A median over one
run absorbs the fast flicker but not the drift, so two runs minutes
apart disagree by more than any change worth measuring.

:class:`HostSpeed` samples the host's speed in the same thread, at the
same moments, as the code under test: a ``SIGALRM`` handler fires every
:data:`INTERVAL_S` seconds of wall time and times a fixed
:func:`calibration_loop` between two bytecodes of whatever the main
thread is running.  The loop does the kind of work the scheduler does
(dict and list lookups, attribute reads, integer arithmetic) and
allocates no tracked objects, so it never triggers a garbage collection
of the program's heap.  A region's *slowdown* is the mean loop time over
the region, over :data:`NOMINAL_S`; dividing the region's wall time by
it gives the time the region takes on a host running at nominal speed.
The slowest tenth of samples is dropped first: those are the handler
itself being preempted, which a ~100 us sample suffers far more often,
in proportion, than the work it samples.

A region shorter than a host phase, such as one set-up of a few
microseconds, is instead divided by :func:`slowdown_now`, one loop
timed right before it.

Sampling costs about 0.5% of the wall time.  Nothing is sampled unless
a :class:`HostSpeed` is started, so traced runs are never interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Optional

#: Wall seconds between two samples.
INTERVAL_S = 0.02
#: Calibration-loop time, in seconds, that counts as slowdown 1.0: the
#: loop's time on an uncontended 2-vCPU Intel Xeon host under CPython 3.11.
NOMINAL_S = 80e-6
#: Share of the slowest samples dropped before averaging.
TRIM = 0.1

_perf = time.perf_counter


class _Box:
    __slots__ = ("v",)


_BOX = _Box()
_BOX.v = 1
_TABLE = {i: 3 * i for i in range(256)}
_ITEMS = list(range(256))


def calibration_loop(rounds: int = 500) -> int:
    """A fixed amount of interpreter work (~80 us at nominal speed)."""
    x = 0
    for i in range(rounds):
        x = (x + _TABLE[i & 255] + _ITEMS[x & 255] + _BOX.v) & 0xFFFF
    return x


def slowdown(samples) -> Optional[float]:
    """Trimmed mean of calibration-loop times over :data:`NOMINAL_S`;
    ``None`` without samples."""
    if not samples:
        return None
    kept = sorted(samples)[: max(1, len(samples) - int(len(samples) * TRIM))]
    return statistics.fmean(kept) / NOMINAL_S


def slowdown_now() -> float:
    """The host's slowdown from one calibration loop, timed now."""
    started = _perf()
    calibration_loop()
    return (_perf() - started) / NOMINAL_S


class HostSpeed:
    """Samples the host's speed from a ``SIGALRM`` handler while started.

    Use as a context manager around the measured code; ``mark()`` before
    a region and ``since(mark)`` after it give the region's slowdown.
    Must be started from the main thread.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        started = _perf()
        calibration_loop()
        self.samples.append(_perf() - started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> Optional[float]:
        """Slowdown over the samples taken since ``mark``."""
        return slowdown(self.samples[mark:])

    def overall(self) -> Optional[float]:
        """Slowdown over every sample taken so far."""
        return slowdown(self.samples)
