"""The host-speed sampler that puts end-to-end times at nominal speed."""

from __future__ import annotations

import signal
import time

import pytest

from perfbench.hostspeed import (
    INTERVAL_S, NOMINAL_S, TRIM, HostSpeed, slowdown, slowdown_now,
)


def test_slowdown_is_the_trimmed_mean_over_nominal():
    assert slowdown([]) is None
    samples = [NOMINAL_S] * 9 + [NOMINAL_S * 50]  # one preempted sample
    assert TRIM == 0.1
    assert slowdown(samples) == pytest.approx(1.0)
    assert slowdown([2 * NOMINAL_S, 4 * NOMINAL_S]) == pytest.approx(3.0)


def test_slowdown_now_is_positive():
    assert slowdown_now() > 0


def test_sampler_samples_busy_code_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        mark = speed.mark()
        deadline = time.perf_counter() + 10 * INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
        assert speed.since(mark) > 0
        assert speed.overall() > 0
        assert len(speed.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
