"""Fault injection: kill a shard mid-stream and recover it exactly.

The failure model is *fail-stop with durable inputs*: a shard's live
state (engine, scheduler, ingest queue) vanishes at the fault instant,
but the cluster retains two durable artifacts per shard -- the latest
JSON service checkpoint (PR 1's snapshot machinery) and the submission
log of every job ever routed there.  Recovery restores the checkpoint
into a fresh service (in a fresh worker process, in multiprocessing
mode) and replays the log tail recorded after that checkpoint, each
entry at its original simulated time.  Because the whole stack is
deterministic, the recovered shard finishes *bit-identically* to a
never-killed one: no admitted job is lost and the final profit matches
the fault-free run -- the property the recovery tests pin down.

The cluster keeps the invariant that the latest checkpoint postdates
the latest migration touching a shard (it snapshots all shards after
every migration tick whenever it logs submissions for recovery, that
is when it is supervised or has a fault injector), so replay never
resurrects a job that migrated away.

:class:`FaultInjector` is the driver: it watches the cluster clock and
fires each :class:`FaultPlan` once when its time arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ClusterError


@dataclass(frozen=True)
class FaultPlan:
    """Kill shard ``shard`` at the first decision point at/after ``at``."""

    shard: int
    at: int


@dataclass
class RecoveryEvent:
    """One executed kill-and-recover, for reporting."""

    shard: int
    #: simulated time the fault fired
    time: int
    #: simulated time of the checkpoint the shard was restored from
    checkpoint_time: int
    #: submission-log entries replayed on top of the checkpoint
    replayed: int
    #: wall-clock seconds the restore + replay took
    wall_seconds: float


@dataclass
class FaultInjector:
    """Fires configured shard kills as the cluster clock passes them.

    Attach to a :class:`~repro.cluster.service.ClusterService` via its
    ``fault_injector`` parameter; the cluster calls :meth:`maybe_fire`
    at every submission and clock advance.  Each plan fires exactly
    once; the kill and the recovery happen back to back (fail-stop with
    immediate restart), and the resulting :class:`RecoveryEvent` is
    appended to :attr:`events`.
    """

    plans: list[FaultPlan] = field(default_factory=list)
    events: list[RecoveryEvent] = field(default_factory=list)
    _fired: set[int] = field(default_factory=set)

    def add(self, shard: int, at: int) -> "FaultInjector":
        """Schedule one more kill; returns self for chaining."""
        if shard < 0:
            raise ClusterError(f"fault shard must be >= 0, got {shard}")
        if at < 0:
            raise ClusterError(f"fault time must be >= 0, got {at}")
        self.plans.append(FaultPlan(shard=shard, at=at))
        return self

    @property
    def pending(self) -> int:
        """Plans not yet fired."""
        return len(self.plans) - len(self._fired)

    def maybe_fire(self, cluster, t: int) -> None:
        """Kill-and-recover every not-yet-fired plan with ``at <= t``.

        ``cluster`` duck-types :meth:`kill_shard` and
        :meth:`recover_shard` (see
        :class:`~repro.cluster.service.ClusterService`).
        """
        for i, plan in enumerate(self.plans):
            if i in self._fired or t < plan.at:
                continue
            self._fired.add(i)
            cluster.kill_shard(plan.shard)
            self.events.append(cluster.recover_shard(plan.shard, t))
