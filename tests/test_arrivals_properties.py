"""Property tests for the gateway's arrival processes.

Pins, for every seed and parameter combination hypothesis explores:

* **seed determinism** -- two generators built from the same seed
  produce bit-identical arrival arrays (the foundation the gateway's
  run-level determinism stands on);
* **shape invariants** -- arrivals are sorted, non-negative integer
  step counts of the requested length;
* **mean-rate bounds** -- thinning cannot exceed the peak rate
  (diurnal) and session streams track the configured overall rate
  within loose stochastic bounds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import diurnal_arrivals, session_arrivals

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestDiurnalArrivals:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        n=st.integers(min_value=0, max_value=300),
        base_rate=st.floats(min_value=0.05, max_value=5.0),
        amplitude=st.floats(min_value=0.0, max_value=1.0),
        period=st.integers(min_value=1, max_value=2000),
    )
    def test_seed_determinism_and_shape(
        self, seed, n, base_rate, amplitude, period
    ):
        a = diurnal_arrivals(
            n,
            base_rate,
            np.random.default_rng(seed),
            amplitude=amplitude,
            period=period,
        )
        b = diurnal_arrivals(
            n,
            base_rate,
            np.random.default_rng(seed),
            amplitude=amplitude,
            period=period,
        )
        assert np.array_equal(a, b)
        assert len(a) == n
        assert np.all(a[:-1] <= a[1:])
        assert np.all(a >= 0)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    def test_mean_rate_bounded_by_peak(self, seed):
        """Thinning only removes arrivals: the realized rate cannot
        exceed the peak rate ``base * (1 + amplitude)`` (and should be
        in the ballpark of ``base`` over whole periods)."""
        n, base, amplitude = 600, 1.0, 0.8
        arr = diurnal_arrivals(
            n,
            base,
            np.random.default_rng(seed),
            amplitude=amplitude,
            period=100,
        )
        span = max(int(arr[-1]), 1)
        realized = n / span
        assert realized <= base * (1.0 + amplitude) * 1.5  # slack for luck
        assert realized >= base * 0.4

    def test_modulation_concentrates_arrivals_at_peaks(self):
        """With full amplitude, arrivals pile up in the sinusoid's high
        half -- the property that makes the traffic diurnal at all."""
        period = 200
        arr = diurnal_arrivals(
            4000, 1.0, np.random.default_rng(0), amplitude=1.0, period=period
        )
        phase = (np.asarray(arr) % period) / period
        # rate ~ 1 + sin(2 pi x): high half is x in [0, 0.5)
        high = np.count_nonzero(phase < 0.5)
        assert high / len(arr) > 0.75

    def test_validation(self, rng):
        with pytest.raises(WorkloadError):
            diurnal_arrivals(-1, 1.0, rng)
        with pytest.raises(WorkloadError):
            diurnal_arrivals(10, 0.0, rng)
        with pytest.raises(WorkloadError):
            diurnal_arrivals(10, 1.0, rng, amplitude=1.5)
        with pytest.raises(WorkloadError):
            diurnal_arrivals(10, 1.0, rng, period=0)

    def test_zero_amplitude_is_plain_poisson_rate(self, rng):
        arr = diurnal_arrivals(2000, 2.0, rng, amplitude=0.0)
        realized = len(arr) / max(int(arr[-1]), 1)
        assert realized == pytest.approx(2.0, rel=0.25)


class TestSessionArrivals:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEEDS,
        n=st.integers(min_value=0, max_value=300),
        session_rate=st.floats(min_value=0.01, max_value=1.0),
        alpha=st.floats(min_value=1.1, max_value=4.0),
        within_rate=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_seed_determinism_and_shape(
        self, seed, n, session_rate, alpha, within_rate
    ):
        a = session_arrivals(
            n,
            session_rate,
            np.random.default_rng(seed),
            alpha=alpha,
            within_rate=within_rate,
        )
        b = session_arrivals(
            n,
            session_rate,
            np.random.default_rng(seed),
            alpha=alpha,
            within_rate=within_rate,
        )
        assert np.array_equal(a, b)
        assert len(a) == n
        assert np.all(a[:-1] <= a[1:])
        assert np.all(a >= 0)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS)
    def test_overall_rate_tracks_configuration(self, seed):
        """``session_rate * mean_session_length`` jobs per step, within
        loose bounds (heavy tails make tight bounds flaky by design)."""
        from scipy.special import zeta

        alpha = 2.5  # finite-variance regime for a stable check
        session_rate = 0.2
        mean_len = 1.0 + float(zeta(alpha))
        expected = session_rate * mean_len
        arr = session_arrivals(
            1500,
            session_rate,
            np.random.default_rng(seed),
            alpha=alpha,
            within_rate=2.0,
        )
        realized = len(arr) / max(int(arr[-1]), 1)
        assert 0.3 * expected < realized < 4.0 * expected

    def test_bursty_relative_to_poisson(self):
        """Session trains produce more duplicate-step arrivals than a
        memoryless stream of the same mean rate -- the heavy-tailed
        burstiness the gateway's flash behaviour feeds on."""
        from repro.workloads import poisson_arrivals

        rng = np.random.default_rng(42)
        arr = session_arrivals(
            2000, 0.2, rng, alpha=1.3, within_rate=4.0
        )
        span = max(int(arr[-1]), 1)
        rate = len(arr) / span
        pois = poisson_arrivals(2000, rate, np.random.default_rng(42))
        dup_sessions = len(arr) - len(np.unique(arr))
        dup_poisson = len(pois) - len(np.unique(pois))
        assert dup_sessions > dup_poisson

    def test_max_session_jobs_caps_trains(self, rng):
        arr = session_arrivals(
            500, 0.1, rng, alpha=1.05, within_rate=10.0, max_session_jobs=3
        )
        # a cap of 3 jobs per session forces many distinct session
        # starts; with alpha near 1 an uncapped run would collapse into
        # a few giant trains
        assert len(np.unique(np.asarray(arr) // 1000)) >= 1
        assert len(arr) == 500

    def test_validation(self, rng):
        with pytest.raises(WorkloadError):
            session_arrivals(10, 0.0, rng)
        with pytest.raises(WorkloadError):
            session_arrivals(10, 0.5, rng, alpha=1.0)
        with pytest.raises(WorkloadError):
            session_arrivals(10, 0.5, rng, within_rate=0.0)
        with pytest.raises(WorkloadError):
            session_arrivals(10, 0.5, rng, max_session_jobs=0)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(min_value=1.0, max_value=64.0, exclude_min=True))
    def test_riemann_zeta_matches_scipy_bit_for_bit(self, alpha):
        """The load generator's scipy-free zeta is Cephes' Hurwitz zeta
        at q = 1, the routine behind ``scipy.special.zeta(x, 1)``."""
        from scipy.special import zeta

        from repro.gateway.load import riemann_zeta

        assert riemann_zeta(alpha) == float(zeta(alpha, 1))

    def test_riemann_zeta_equals_one_argument_zeta_at_default_alpha(self):
        """At the default session_alpha the one-argument scipy zeta
        the generator once called agrees exactly, so seeded sessions
        streams keep their arrivals."""
        from scipy.special import zeta

        from repro.gateway.load import LoadConfig, riemann_zeta

        alpha = LoadConfig().session_alpha
        assert riemann_zeta(alpha) == float(zeta(alpha))

    def test_riemann_zeta_rejects_the_pole(self):
        from repro.gateway.load import riemann_zeta

        for x in (1.0, 0.5, float("nan")):
            with pytest.raises(WorkloadError):
                riemann_zeta(x)

    def test_pareto_mean_session_length_math(self):
        """ceil(pareto(alpha) + 1) has mean 1 + zeta(alpha); the load
        generator's rate normalization depends on this identity."""
        from scipy.special import zeta

        rng = np.random.default_rng(7)
        alpha = 2.0
        lengths = np.ceil(rng.pareto(alpha, size=200_000) + 1.0)
        assert np.mean(lengths) == pytest.approx(
            1.0 + float(zeta(alpha)), rel=0.05
        )
