"""Circuit breakers over shard routing: trip, probe, re-route.

A shard that keeps failing (or keeps answering slowly) should stop
receiving traffic *before* every submission has to discover the
failure for itself.  Each shard gets a :class:`CircuitBreaker` with the
classic three states:

* **CLOSED** -- healthy; requests flow.  ``failure_threshold``
  consecutive failures (or a heartbeat latency above
  ``latency_threshold``) trip the breaker.
* **OPEN** -- tripped; the router routes around the shard.  After
  ``cooldown`` simulated time units the breaker lets one probe through.
* **HALF_OPEN** -- probing; ``half_open_successes`` consecutive
  successes re-close the breaker, any failure re-opens it.

:class:`CircuitBreakerRouter` wraps any inner
:class:`~repro.cluster.router.Router`: shards whose breaker disallows
traffic are filtered out of the stats list (re-indexed positionally so
positional routers keep working) and the inner router picks among the
rest.  Degradation follows the paper's density ordering: when capacity
shrinks, each shard's own shed policy drops its lowest-density queued
jobs first (``reject-lowest-density``), so the *least valuable* work
is shed -- the cluster analogue of scheduler S preferring high
``v_i = p_i / (x_i n_i)`` jobs.

Note the filter keys on *breaker state only*, not on ``shard.alive``:
a crashed-but-recoverable shard keeps its placements (delivery fails,
the supervisor restores it, the replay admits the job on the same
shard), which preserves routing bit-identity with the fault-free run.
Only a breaker forced open by degradation -- or tripped by sustained
failures -- diverts traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.router import Router, ShardStats
from repro.errors import ClusterError, NoHealthyShardError
from repro.sim.jobs import JobSpec


class BreakerState(enum.Enum):
    """The three circuit states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recover thresholds for one shard's breaker."""

    #: consecutive failures that trip a CLOSED breaker
    failure_threshold: int = 3
    #: heartbeat latency (seconds) counted as a failure; ``None`` = off
    latency_threshold: Optional[float] = None
    #: simulated time units an OPEN breaker waits before HALF_OPEN
    cooldown: int = 128
    #: consecutive HALF_OPEN successes that re-close the breaker
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ClusterError("failure_threshold must be >= 1")
        if self.half_open_successes < 1:
            raise ClusterError("half_open_successes must be >= 1")


class CircuitBreaker:
    """Per-shard failure accounting with the three-state protocol."""

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config if config is not None else BreakerConfig()
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.half_open_successes = 0
        #: simulated time the breaker tripped (for the cooldown clock)
        self.opened_at: Optional[int] = None
        #: a forced-open breaker never half-opens (degraded shard)
        self.forced = False
        self.trips = 0

    def allow(self, now: int) -> bool:
        """May traffic reach this shard at simulated time ``now``?

        An OPEN breaker past its cooldown transitions to HALF_OPEN and
        admits the probe.
        """
        if self.forced:
            return False
        if self.state is BreakerState.OPEN:
            if (
                self.opened_at is not None
                and now - self.opened_at >= self.config.cooldown
            ):
                self.state = BreakerState.HALF_OPEN
                self.half_open_successes = 0
                return True
            return False
        return True

    def record_success(self, now: int, latency: float = 0.0) -> None:
        """Account one successful interaction (delivery or heartbeat)."""
        if (
            self.config.latency_threshold is not None
            and latency > self.config.latency_threshold
        ):
            self.record_failure(now)
            return
        if self.state is BreakerState.HALF_OPEN:
            self.half_open_successes += 1
            if self.half_open_successes >= self.config.half_open_successes:
                self.state = BreakerState.CLOSED
                self.consecutive_failures = 0
                self.opened_at = None
        else:
            self.consecutive_failures = 0

    def record_failure(self, now: int) -> None:
        """Account one failure; trips the breaker at the threshold (a
        HALF_OPEN probe failure re-opens immediately)."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.trips += 1

    def force_open(self) -> None:
        """Latch the breaker open permanently (degraded shard)."""
        self.forced = True
        if self.state is not BreakerState.OPEN:
            self.state = BreakerState.OPEN
            self.trips += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker({self.state.value}, "
            f"failures={self.consecutive_failures}, forced={self.forced})"
        )


class CircuitBreakerRouter(Router):
    """Router decorator: route with ``inner``, skipping open circuits.

    The cluster sets :attr:`now` from its clock each decision point so
    cooldowns run on simulated time.  When every breaker is open the
    router raises :class:`~repro.errors.NoHealthyShardError` -- the
    supervised cluster turns that into a cluster-level shed rather than
    an admission.
    """

    def __init__(
        self, inner: Router, config: Optional[BreakerConfig] = None
    ) -> None:
        self.inner = inner
        self.config = config if config is not None else BreakerConfig()
        self.name = f"breaker({inner.name})"
        self.needs_stats = getattr(inner, "needs_stats", True)
        self.breakers: dict[int, CircuitBreaker] = {}
        #: simulated time, set by the cluster before each route
        self.now = 0

    def breaker(self, index: int) -> CircuitBreaker:
        """The breaker guarding shard ``index`` (created lazily)."""
        if index not in self.breakers:
            self.breakers[index] = CircuitBreaker(self.config)
        return self.breakers[index]

    def route(self, spec: JobSpec, stats: list[ShardStats]) -> int:
        healthy = [s for s in stats if self.breaker(s.index).allow(self.now)]
        if not healthy:
            raise NoHealthyShardError(
                f"all {len(stats)} shard breakers are open at t={self.now}"
            )
        if len(healthy) == len(stats):
            return self.inner.route(spec, stats)
        # positional routers (consistent-hash, round-robin) index into
        # the list they are given, so re-index the healthy subset and
        # map the pick back to the real shard index
        reindexed = [
            replace(s, index=pos) for pos, s in enumerate(healthy)
        ]
        pos = self.inner.route(spec, reindexed)
        if not 0 <= pos < len(healthy):
            raise ClusterError(
                f"inner router returned {pos} over {len(healthy)} shards"
            )
        return healthy[pos].index

    def reset(self) -> None:
        self.inner.reset()
        self.breakers.clear()
        self.now = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        open_count = sum(
            1
            for b in self.breakers.values()
            if b.state is not BreakerState.CLOSED
        )
        return f"CircuitBreakerRouter({self.inner!r}, open={open_count})"
