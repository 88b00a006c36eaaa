"""Hysteresis autoscaling policy over the elastic cluster's shard dial.

Each gateway tick the :class:`Autoscaler` evaluates candidate active
shard counts ``{k-1, k, k+1}`` against live shard stats -- the
candidate-schedule evaluation style of Albers--Hellwig applied to a
shard dial -- and *votes* for the cheapest one.  A candidate's cost is
its projected per-shard backlog pressure (overload costs steeply) plus
a small per-active-shard rent (idle capacity costs a little), so under
sustained pressure bigger prefixes win and in quiet valleys smaller
ones do.

Votes are gated by hysteresis before anything is committed: a scale-up
needs ``up_patience`` consecutive up-votes, a scale-down needs
``down_patience`` (scaling down is the cheap-to-delay direction), and
after any commit a ``cooldown`` window suppresses further changes.
That asymmetry is what stops a flash crowd's trailing edge from
flapping the cluster up and down while still ramping capacity fast on
the rising edge.

The policy is a pure function of the stats sequence it is shown plus
its own counters -- no randomness, no wall time -- so autoscaled runs
stay bit-reproducible under a :class:`~repro.gateway.clock.VirtualClock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.router import ShardStats
from repro.errors import GatewayError

#: Cost per unit of per-shard backlog above ``high_water``.
OVERLOAD_WEIGHT = 100.0
#: Cost per active shard -- the pressure to shrink when idle.
SHARD_RENT = 1.0


@dataclass(frozen=True)
class ScaleDecision:
    """One autoscaler evaluation (recorded even when nothing changes)."""

    #: gateway tick of the evaluation
    tick: int
    k_active: int
    #: candidate count the cost model voted for
    vote: int
    #: committed target after hysteresis (== k_active when held)
    target: int
    #: backlog pressure across the active prefix at evaluation time
    pressure: int


class Autoscaler:
    """Candidate-scoring shard-count controller with hysteresis.

    Parameters
    ----------
    k_min, k_max:
        Inclusive bounds on the active shard count.
    high_water:
        Per-shard backlog above which a candidate pays steep overload
        cost (:data:`OVERLOAD_WEIGHT` per job; each active shard costs
        :data:`SHARD_RENT`).  Tune to a few ticks' worth of drain
        capacity.
    up_patience, down_patience:
        Consecutive same-direction votes required before committing.
        The defaults react up within one tick but shrink only after a
        long quiet stretch: scaling up late loses deadlines forever,
        scaling down late only wastes rent.
    cooldown:
        Ticks after a commit during which no further change commits.
    """

    def __init__(
        self,
        k_min: int = 1,
        k_max: int = 4,
        *,
        high_water: float = 2.0,
        up_patience: int = 1,
        down_patience: int = 60,
        cooldown: int = 20,
    ) -> None:
        if not 1 <= k_min <= k_max:
            raise GatewayError("need 1 <= k_min <= k_max")
        if high_water <= 0:
            raise GatewayError("high_water must be positive")
        if up_patience < 1 or down_patience < 1 or cooldown < 0:
            raise GatewayError("patience must be >= 1 and cooldown >= 0")
        self.k_min = k_min
        self.k_max = k_max
        self.high_water = high_water
        self.up_patience = up_patience
        self.down_patience = down_patience
        self.cooldown = cooldown
        self._up_votes = 0
        self._down_votes = 0
        self._cooling = 0
        #: every evaluation, for tests and the KPI feed
        self.decisions: list[ScaleDecision] = []

    # ------------------------------------------------------------------
    def _cost(self, k_candidate: int, pressure: int, dead: int) -> float:
        """Projected cost of running ``k_candidate`` active shards.

        ``dead`` shards (crashed or degraded) still pay rent but drain
        nothing, so the backlog divides over the *effective* capacity
        ``k_candidate - dead``: a degraded shard reads as capacity loss
        and pushes the vote toward scaling up, within ``k_max``.
        Fault-free (``dead == 0``) the cost is unchanged, preserving
        bit-identical autoscale trajectories.
        """
        backlog = pressure / max(1, k_candidate - dead)
        overload = max(0.0, backlog - self.high_water)
        return overload * OVERLOAD_WEIGHT + k_candidate * SHARD_RENT

    @staticmethod
    def _pressure(stats: Sequence[ShardStats]) -> int:
        """Backlog jobs across the prefix: ingest queues plus in-engine
        jobs beyond one per machine (visible even when ``max_in_flight``
        is unbounded and the ingest queues never fill)."""
        return sum(
            s.queue_depth + max(0, s.in_flight - s.m) for s in stats
        )

    def decide(
        self, tick: int, k_active: int, stats: Sequence[ShardStats]
    ) -> int:
        """Return the committed shard-count target for this tick.

        ``stats`` is the active prefix's live stats (see
        :meth:`~repro.cluster.service.ClusterService.active_stats`).
        The return value equals ``k_active`` unless a resize commits.
        """
        pressure = self._pressure(stats)
        dead = sum(1 for s in stats if not s.alive)
        candidates = [
            k
            for k in (k_active - 1, k_active, k_active + 1)
            if self.k_min <= k <= self.k_max
        ]
        # deterministic tie-break: cheapest, then smallest move, then
        # smaller count (prefer shrinking on exact ties)
        vote = min(
            candidates,
            key=lambda k: (self._cost(k, pressure, dead), abs(k - k_active), k),
        )

        if vote > k_active:
            self._up_votes += 1
            self._down_votes = 0
        elif vote < k_active:
            self._down_votes += 1
            self._up_votes = 0
        else:
            self._up_votes = 0
            self._down_votes = 0

        target = k_active
        if self._cooling > 0:
            self._cooling -= 1
        elif vote > k_active and self._up_votes >= self.up_patience:
            target = vote
        elif vote < k_active and self._down_votes >= self.down_patience:
            target = vote
        if target != k_active:
            self._up_votes = 0
            self._down_votes = 0
            self._cooling = self.cooldown
        self.decisions.append(
            ScaleDecision(
                tick=tick,
                k_active=k_active,
                vote=vote,
                target=target,
                pressure=pressure,
            )
        )
        return target

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Autoscaler(k=[{self.k_min},{self.k_max}], "
            f"high_water={self.high_water}, "
            f"patience={self.up_patience}/{self.down_patience})"
        )
