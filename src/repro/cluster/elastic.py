"""Elastic sharding: grow and shrink the active shard count live.

:class:`ElasticCluster` serves the same routed-admission interface as
:class:`~repro.cluster.service.ClusterService`, but the shard count is
a *dial*, not a constructor constant.  The cluster is built over
``k_max`` fixed-size shard units (``m`` must split evenly, so a shard's
machine count -- and with it S's per-pool allotments and densities --
never changes as the cluster resizes); at any moment the first
``k_active`` units form the *active prefix* that the router places new
jobs on.  Scaling reuses the PR 3 machinery rather than inventing a
parallel path:

* **scale-up** brings the next unit up through the shard *restore* path
  (an empty checkpoint -- exactly how fault recovery restarts a shard)
  and immediately *splits* the deepest active ingest queue into it with
  the migration primitives (``take_queued`` + deliver), so the new
  capacity absorbs backlog on its first tick;
* **scale-down** *drains* the highest active unit: it stops receiving
  submissions, its queued-but-unstarted jobs are re-routed across the
  remaining *healthy* prefix (a dead or degraded shard never receives a
  drained job), and its in-flight jobs finish where they are -- the
  shard keeps advancing as a lame duck until the run ends (or it is
  reactivated by a later scale-up, inheriting its lame-duck state).

Keeping the active set a *prefix* keeps every shipped router correct
unchanged: routers see stats for exactly the active units, and
positional and index-valued routing agree.  All decisions are pure
functions of shard stats at decision points, so a seeded run through an
autoscaled cluster is bit-reproducible -- the property the gateway
determinism tests pin down.

The scaling machinery lives in :class:`ElasticScalingMixin` so it
composes with either service base: :class:`ElasticCluster` mixes it
over the plain :class:`~repro.cluster.service.ClusterService` (no fault
injection -- submission-log replay against a moving shard set needs the
supervised recovery stack), while :class:`~repro.resilience.elastic.
SupervisedElasticCluster` mixes the *same* methods over the resilient
base, where scale-time moves are WAL-logged and re-checkpointed so
supervised recovery mid-resize strands nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.cluster.config import ShardConfig
from repro.cluster.router import Router, ShardStats
from repro.cluster.service import ClusterResult, ClusterService
from repro.cluster.shard import gather_stats
from repro.errors import ClusterError, ShardFailedError
from repro.service.telemetry import MetricsRegistry, merge_registries
from repro.sim.jobs import JobSpec


@dataclass(frozen=True)
class ScaleEvent:
    """One applied resize step (a single +1 or -1 of the active count)."""

    #: simulated time the step was applied
    time: int
    #: ``"up"`` or ``"down"``
    direction: str
    k_before: int
    k_after: int
    #: shard unit that was activated or drained
    shard: int
    #: queued jobs moved by the split (up) or the drain (down)
    moved: int


class ElasticScalingMixin:
    """Live-resizable active shard prefix, over any cluster base.

    A mixin of *methods only*: the host class calls
    :meth:`_init_elastic` after its own ``__init__`` (explicit call, no
    cooperative-kwargs MRO contortions).  Every scale-time job move
    goes through :meth:`_move_spec`, which WAL-logs the move under an
    idempotency key whenever the base logs submissions -- on the plain
    base that is off and the behaviour (and fingerprint) is unchanged;
    on the resilient base it keeps the recovery invariant that the log
    plus latest checkpoint always reconstructs exact shard contents.
    """

    def _init_elastic(self, m: int, k_max: int, k_initial: int) -> None:
        """Install the elastic state (call after the base ``__init__``)."""
        #: machines per shard unit (constant across resizes)
        self.unit_m = m // k_max
        self.k_active = k_initial
        #: applied resize steps, in order
        self.scale_events: list[ScaleEvent] = []
        #: unit indices ever activated (dormant units are excluded from
        #: supervision and from the finish drain)
        self._activated: set[int] = set(range(k_initial))
        self.cluster_metrics.gauge("active_shards").set(self.k_active)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring up the active prefix only (idempotent); units beyond
        ``k_active`` stay dormant until a scale-up activates them."""
        if self._started:
            return
        self.router.reset()
        for shard in self.shards[: self.k_active]:
            shard.start()
        self._started = True
        if self._log_submissions:
            # recovery must never have to guess (resilient base only)
            self.checkpoint_all()

    def _drainable(self, shard) -> bool:
        """Live shards drain; on a supervised base every *activated*
        unit drains (a dead-but-activated lame duck is recovered by the
        drain itself), while dormant units contribute nothing."""
        if getattr(self, "supervisor", None) is not None:
            return shard.index in self._activated
        return shard.alive

    def _annotate_result(self, result: ClusterResult) -> None:
        super()._annotate_result(result)
        result.extra["scale_events"] = list(self.scale_events)

    def supervised_shard_ids(self) -> set[int]:
        """Shards the supervisor should heartbeat: every unit ever
        activated (lame ducks included -- they still hold jobs), never
        the dormant tail (a never-started unit fails pings by design)."""
        return set(self._activated)

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def scale_to(self, k: int, t: Optional[int] = None) -> list[ScaleEvent]:
        """Resize the active prefix to ``k`` units, one step at a time.

        Returns the applied :class:`ScaleEvent` steps (empty when ``k``
        equals the current active count).
        """
        if not 1 <= k <= self.k:
            raise ClusterError(f"k must be in [1, {self.k}]")
        self.start()
        t = self._now if t is None else max(int(t), self._now)
        applied: list[ScaleEvent] = []
        while self.k_active < k:
            applied.append(self._scale_up_one(t))
        while self.k_active > k:
            applied.append(self._scale_down_one(t))
        if applied:
            self._stats_cache = None
            if self.coordinator is not None:
                # the active prefix changed under the band ledger
                self.coordinator.invalidate()
            self.cluster_metrics.gauge("active_shards").set(self.k_active)
        return applied

    def _move_spec(self, dst: int, spec: JobSpec, t: int) -> None:
        """Deliver one scale-time job move, logged when the base logs.

        Mirrors the migration path: the log append precedes the
        delivery, and the key is the log position, so a supervised
        recovery replays the move exactly once.
        """
        key = None
        if self._log_submissions:
            entry_index = self.logs[dst].record(t, spec)
            key = self._submit_key(dst, entry_index)
        self._deliver(dst, spec, t, key=key)

    def _post_scale_moves(self, moved: int) -> None:
        """Re-checkpoint after scale-time moves on a logging base: the
        latest checkpoint must postdate the move, or a donor's log
        replay would resurrect jobs that just migrated away."""
        if moved:
            self.cluster_metrics.counter("migrations_total").inc(moved)
            if self._log_submissions:
                self.checkpoint_all()

    def _scale_up_one(self, t: int) -> ScaleEvent:
        """Activate the next unit and split the deepest queue into it."""
        index = self.k_active
        shard = self.shards[index]
        if not shard.alive:
            # the recovery bring-up path with an empty checkpoint
            shard.restore(None)
            shard.advance_to(t)
        self._activated.add(index)
        stats = self._prefix_stats(self.k_active)
        donor = max(stats, key=lambda s: (s.queue_depth, -s.index))
        moved = 0
        if donor.alive and donor.queue_depth >= 2:
            for spec in self.shards[donor.index].take_queued(
                donor.queue_depth // 2
            ):
                self._move_spec(index, spec, t)
                moved += 1
        self.k_active = index + 1
        self.cluster_metrics.counter("scale_up_total").inc()
        self._post_scale_moves(moved)
        event = ScaleEvent(
            time=t,
            direction="up",
            k_before=index,
            k_after=self.k_active,
            shard=index,
            moved=moved,
        )
        self.scale_events.append(event)
        self._emit_scale(event)
        return event

    def _scale_down_one(self, t: int) -> ScaleEvent:
        """Drain the highest active unit back into the shrunken prefix.

        The drain re-checks shard health first: the victim's queued
        jobs are routed over the *healthy* remainder only (reindexed
        positionally, as the circuit-breaker router does, so positional
        routers stay correct), and if no healthy shard remains -- or
        the victim itself is down -- the drain is skipped and the jobs
        finish on the lame duck (or through its supervised recovery).
        """
        if self.k_active <= 1:
            raise ClusterError("cannot scale below one active shard")
        index = self.k_active - 1
        self.k_active = index
        stats = self._prefix_stats(index + 1)
        victim_stat = stats[index]
        healthy = [s for s in stats[:index] if s.alive]
        moved = 0
        if healthy and victim_stat.alive and victim_stat.queue_depth:
            routed = [replace(s, index=pos) for pos, s in enumerate(healthy)]
            queued = self._take_queued_safe(
                index, victim_stat.queue_depth, t
            )
            for spec in queued:
                pick = self.router.route(spec, routed)
                if not 0 <= pick < len(routed):
                    raise ClusterError(
                        f"router returned shard {pick} "
                        f"(healthy={len(routed)})"
                    )
                self._move_spec(healthy[pick].index, spec, t)
                routed[pick].queue_depth += 1
                moved += 1
        self.cluster_metrics.counter("scale_down_total").inc()
        self._post_scale_moves(moved)
        event = ScaleEvent(
            time=t,
            direction="down",
            k_before=index + 1,
            k_after=index,
            shard=index,
            moved=moved,
        )
        self.scale_events.append(event)
        self._emit_scale(event)
        return event

    def _take_queued_safe(self, index: int, n: int, t: int) -> list[JobSpec]:
        """Pop the victim's queue, surviving a crash mid-drain: on a
        supervised base the failure is routed through the supervisor
        (the restored shard keeps its queue as a lame duck); bases
        without one propagate."""
        try:
            return self.shards[index].take_queued(n)
        except ShardFailedError as exc:
            handler = getattr(self, "_supervise_failure", None)
            if handler is None:
                raise
            handler(index, t, exc)
            return []

    def _emit_scale(self, event: ScaleEvent) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                event.time,
                "migrate",
                None,
                {
                    "scale": event.direction,
                    "shard": event.shard,
                    "k": event.k_after,
                    "moved": event.moved,
                },
            )

    # ------------------------------------------------------------------
    # Stats and live telemetry
    # ------------------------------------------------------------------
    def _prefix_stats(self, k: int) -> list[ShardStats]:
        """Stats for the first ``k`` units in one fan-out fence, fault-
        tolerant: a dead, degraded, or mid-failure shard reports as a
        dead placeholder rather than raising into a routing decision."""
        degraded = getattr(
            getattr(self, "supervisor", None), "degraded", ()
        )
        return gather_stats(self.shards[:k], skip=degraded)

    def active_stats(self) -> list[ShardStats]:
        """Live stats for the active prefix (the autoscaler's input)."""
        self.start()
        return self._prefix_stats(self.k_active)

    def _router_stats(self) -> list[ShardStats]:
        """Routers only ever see the active prefix."""
        needs_stats = getattr(self.router, "needs_stats", True)
        if self.mode == "inprocess" or not needs_stats:
            if self.mode == "inprocess":
                return self._prefix_stats(self.k_active)
            return [
                ShardStats(index=s.index, m=s.config.m, alive=s.alive)
                for s in self.shards[: self.k_active]
            ]
        if (
            self._stats_cache is None
            or self._submits_since_stats >= self.stats_refresh
        ):
            self._stats_cache = self._prefix_stats(self.k_active)
            self._submits_since_stats = 0
        return self._stats_cache

    def live_metrics(self) -> MetricsRegistry:
        """Mid-run cluster telemetry roll-up (in-process shards only).

        Merges every live in-process shard's registry -- counters,
        gauges *and* histograms, so p99 admission latency comes from the
        same :class:`~repro.service.telemetry.MetricsRegistry` path the
        final result uses -- with the cluster-level counters.  Process-
        mode shards keep their registries worker-side and are skipped;
        their totals appear in the final :class:`ClusterResult` instead.
        """
        registries = [
            shard.service.metrics
            for shard in self.shards
            if shard.alive and getattr(shard, "service", None) is not None
        ]
        return merge_registries(registries + [self.cluster_metrics])


class ElasticCluster(ElasticScalingMixin, ClusterService):
    """Sharded serving with a live-resizable active shard prefix.

    Parameters
    ----------
    m:
        Total machines.  Must be divisible by ``k_max`` so every shard
        unit has the same machine count (resizing must not change any
        unit's pool size -- S's allotments depend on it).
    k_max:
        Number of shard units built (the scale-up ceiling).
    k_initial:
        Active units at start (default ``k_max``).
    config, router, mode, stats_refresh, tracer:
        As for :class:`~repro.cluster.service.ClusterService`.
    """

    def __init__(
        self,
        m: int,
        k_max: int,
        *,
        k_initial: Optional[int] = None,
        config: Optional[ShardConfig] = None,
        router: Union[Router, str] = "least-loaded",
        mode: str = "inprocess",
        stats_refresh: int = 32,
        tracer=None,
    ) -> None:
        k_initial = validate_elastic(m, k_max, k_initial)
        super().__init__(
            m,
            k_max,
            config=config,
            router=router,
            mode=mode,
            stats_refresh=stats_refresh,
            tracer=tracer,
        )
        self._init_elastic(m, k_max, k_initial)


def validate_elastic(m: int, k_max: int, k_initial: Optional[int]) -> int:
    """Check the elastic shape constraints; returns the resolved
    ``k_initial`` (shared by both elastic hosts)."""
    if k_max < 1:
        raise ClusterError("k_max must be >= 1")
    if m % k_max != 0:
        raise ClusterError(
            f"m={m} must divide evenly into k_max={k_max} shard units "
            "(elastic shards are fixed-size)"
        )
    k_initial = k_max if k_initial is None else int(k_initial)
    if not 1 <= k_initial <= k_max:
        raise ClusterError("k_initial must be in [1, k_max]")
    return k_initial
