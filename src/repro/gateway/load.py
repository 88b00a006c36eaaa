"""Open-loop load generation: timestamped job streams shaped like users.

A :class:`LoadGenerator` materializes a seeded, reproducible stream of
:class:`~repro.sim.jobs.JobSpec` submissions from one of four arrival
processes -- the closed-loop workload suite's DAG/deadline/profit
machinery under arrival shapes real traffic has:

* ``"poisson"`` -- memoryless baseline (the suite's default shape);
* ``"diurnal"`` -- sinusoidal-rate thinning
  (:func:`~repro.workloads.arrivals.diurnal_arrivals`): day/night
  swings the autoscaler should ride;
* ``"flash-crowd"`` -- Poisson background plus a simultaneous spike
  (:func:`~repro.workloads.arrivals.spike_arrivals`): the overload
  front admission control exists for;
* ``"sessions"`` -- heavy-tailed user sessions
  (:func:`~repro.workloads.arrivals.session_arrivals`): Pareto session
  lengths, per-session job trains, self-similar bursts.

``load`` is offered work relative to machine capacity exactly as in
:class:`~repro.workloads.suite.WorkloadConfig` (1.0 = saturation), so
"serve 0.8x saturation for five minutes" is one config field.  The
stream is *open-loop*: arrival times are fixed by the seed alone and
never react to how the cluster is doing -- the defining property of
traffic from millions of independent users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.sim.jobs import JobSpec
from repro.workloads.arrivals import (
    diurnal_arrivals,
    poisson_arrivals,
    session_arrivals,
    spike_arrivals,
)
from repro.workloads.dag_families import make_family
from repro.workloads.deadlines import slack_deadline, tight_deadline
from repro.workloads.profits import make_profit_sampler

#: Euler-Maclaurin tail coefficients (2k)!/B_2k, from Cephes' ``zeta``
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def riemann_zeta(x: float) -> float:
    """Riemann zeta(x) for x > 1, without scipy.

    A port of Cephes' Hurwitz ``zeta(x, q)`` at ``q = 1``: a direct sum
    of at least nine terms, then the Euler-Maclaurin tail.  It is the
    routine behind ``scipy.special.zeta(x, 1)`` and matches it bit for
    bit (``tests/test_arrivals_properties.py``).
    """
    if not x > 1.0:
        raise WorkloadError(f"zeta needs x > 1, got {x}")
    s, a, b, i = 1.0, 1.0, 0.0, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coefficient in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coefficient
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s

#: Arrival processes :class:`LoadGenerator` understands.
ARRIVAL_PROCESSES = ("poisson", "diurnal", "flash-crowd", "sessions")


@dataclass
class LoadConfig:
    """Declarative description of one open-loop traffic stream.

    The workload fields (``n_jobs`` .. ``profit``) mirror
    :class:`~repro.workloads.suite.WorkloadConfig`; the ``process``
    field selects the arrival shape and the remaining fields are its
    knobs (unused knobs are ignored).
    """

    n_jobs: int = 1000
    m: int = 8
    #: offered load relative to capacity (1.0 = saturation)
    load: float = 1.0
    family: str = "mixed"
    epsilon: float = 1.0
    deadline_policy: str = "slack"
    slack_range: tuple[float, float] = (1.0, 2.0)
    tight_factor: float = 1.0
    profit: str = "uniform"
    seed: int = 0
    family_kwargs: dict = field(default_factory=dict)
    profit_kwargs: dict = field(default_factory=dict)

    #: arrival shape (see :data:`ARRIVAL_PROCESSES`)
    process: str = "poisson"
    #: diurnal: sinusoid period in simulated steps
    period: int = 400
    #: diurnal: rate swing fraction in [0, 1]
    amplitude: float = 0.6
    #: flash-crowd: fraction of jobs arriving in the spike
    spike_fraction: float = 0.2
    #: flash-crowd: spike time (default: 40% through the background)
    spike_at: Optional[int] = None
    #: sessions: Pareto tail exponent (session length; must be > 1)
    session_alpha: float = 1.5
    #: sessions: within-session job rate (default: the overall rate)
    session_within_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise WorkloadError(
                f"unknown arrival process {self.process!r}; "
                f"known: {sorted(ARRIVAL_PROCESSES)}"
            )
        if self.n_jobs < 0:
            raise WorkloadError("n_jobs must be non-negative")
        if self.load <= 0:
            raise WorkloadError("load must be positive")
        if not 0.0 <= self.spike_fraction < 1.0:
            raise WorkloadError("spike_fraction must be in [0, 1)")


class LoadGenerator:
    """Seeded iterator of timestamped :class:`JobSpec` submissions.

    The whole stream is a deterministic function of the config: same
    seed, same traffic, bit for bit -- the property the gateway
    determinism suite pins.  Specs are yielded in the online order
    ``(arrival, job_id)``.
    """

    def __init__(self, config: LoadConfig) -> None:
        self.config = config
        self._specs: Optional[list[JobSpec]] = None

    # ------------------------------------------------------------------
    def specs(self) -> list[JobSpec]:
        """Materialize (and cache) the full stream."""
        if self._specs is None:
            self._specs = self._generate()
        return self._specs

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.specs())

    def __len__(self) -> int:
        return len(self.specs())

    @property
    def horizon(self) -> int:
        """Last arrival time in the stream (0 when empty)."""
        specs = self.specs()
        return max((sp.arrival for sp in specs), default=0)

    # ------------------------------------------------------------------
    def _generate(self) -> list[JobSpec]:
        config = self.config
        rng = np.random.default_rng(config.seed)
        family = make_family(config.family, **config.family_kwargs)
        profit_sampler = make_profit_sampler(
            config.profit, **config.profit_kwargs
        )
        # structures first, so the arrival rate can target the load
        structures = [family(rng) for _ in range(config.n_jobs)]
        mean_work = float(np.mean([s.total_work for s in structures])) or 1.0
        rate = config.load * config.m / mean_work  # jobs per step
        arrivals = self._arrival_times(rate, rng)

        specs: list[JobSpec] = []
        for i, structure in enumerate(structures):
            arrival = int(arrivals[i])
            if config.deadline_policy == "slack":
                rel = slack_deadline(
                    structure,
                    config.m,
                    config.epsilon,
                    rng,
                    slack_low=config.slack_range[0],
                    slack_high=config.slack_range[1],
                )
            elif config.deadline_policy == "tight":
                rel = tight_deadline(
                    structure,
                    config.m,
                    factor=config.tight_factor,
                    rng=rng,
                    jitter=0.25,
                )
            else:
                raise WorkloadError(
                    f"unknown deadline policy {config.deadline_policy!r}"
                )
            specs.append(
                JobSpec(
                    i,
                    structure,
                    arrival=arrival,
                    deadline=arrival + rel,
                    profit=profit_sampler(structure, rng),
                )
            )
        specs.sort(key=lambda sp: (sp.arrival, sp.job_id))
        return specs

    def _arrival_times(
        self, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        config = self.config
        n = config.n_jobs
        if config.process == "poisson":
            return poisson_arrivals(n, rate, rng)
        if config.process == "diurnal":
            return diurnal_arrivals(
                n,
                rate,
                rng,
                amplitude=config.amplitude,
                period=config.period,
            )
        if config.process == "flash-crowd":
            n_spike = int(round(config.spike_fraction * n))
            n_background = n - n_spike
            spike_at = config.spike_at
            if spike_at is None:
                # 40% through the background stream's expected span
                spike_at = int(0.4 * n_background / rate) if rate > 0 else 0
            return spike_arrivals(
                n_background, n_spike, rate, spike_at, rng
            )
        # sessions: overall rate = session_rate * mean session length;
        # lengths are ceil(pareto(alpha) + 1), whose mean is
        # 1 + sum_{k>=1} k^-alpha = 1 + zeta(alpha)
        alpha = config.session_alpha
        mean_session = 1.0 + riemann_zeta(alpha)
        within = (
            config.session_within_rate
            if config.session_within_rate is not None
            else rate
        )
        return session_arrivals(
            n,
            rate / mean_session,
            rng,
            alpha=alpha,
            within_rate=within,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"LoadGenerator(process={c.process!r}, n={c.n_jobs}, "
            f"load={c.load}, seed={c.seed})"
        )
