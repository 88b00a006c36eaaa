"""The fixed-timestep gateway loop: wall time in, simulated time out.

:class:`Gateway` is the real-time front of the reproduction.  It maps
wall-clock time onto the simulation's integer clock with a fixed
timestep -- each tick is ``tick_seconds`` of wall time and exactly
``steps_per_tick`` simulated steps -- and on every tick it:

1. **paces**: asks the clock to sleep until the tick boundary (a
   :class:`~repro.gateway.clock.VirtualClock` jumps instantly, so the
   identical loop runs in tests at CPU speed);
2. **ingests**: pulls every load-generator arrival due before the new
   simulated boundary into the bounded
   :class:`~repro.gateway.ingest.IngestBuffer`, recording overflow as
   gateway sheds;
3. **dispatches**: drains a batch into the elastic cluster, submitting
   each job at its own intended arrival time (so a gateway run without
   overflow is *equivalent* to the offline ``run_stream`` replay of the
   same trace -- a tested property, not an aspiration);
4. **advances** every shard's scheduler to the boundary;
5. **autoscales**: lets the policy inspect live shard stats and resize
   the active prefix;
6. **publishes** a KPI snapshot to the feed.

Everything downstream of the clock is deterministic, so two seeded
virtual-clock runs produce bit-identical traffic, placements, sheds,
KPIs and profit -- which is how a *real-time* system gets a regression
suite with exact expectations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.elastic import ElasticCluster, ScaleEvent
from repro.cluster.service import ClusterResult
from repro.core.theory import Constants
from repro.errors import GatewayError, ShardFailedError, ShardTimeoutError
from repro.gateway.autoscale import Autoscaler
from repro.gateway.clock import Clock, WallClock
from repro.gateway.ingest import DroppedSubmission, IngestBuffer, RetryQueue
from repro.gateway.kpi import KpiAggregator, KpiFeed
from repro.gateway.load import LoadGenerator
from repro.service.queue import sns_density
from repro.sim.jobs import JobSpec


@dataclass
class GatewayResult:
    """Everything a finished gateway run reports."""

    cluster: ClusterResult
    #: ticks the loop executed
    ticks: int
    #: simulated time at shutdown
    sim_end: int
    #: wall seconds the run took (virtual seconds under a VirtualClock)
    wall_seconds: float
    #: jobs the load generator produced
    generated: int
    #: jobs actually submitted to the cluster
    delivered: int
    #: front-door refusals (ingest-buffer overflow)
    dropped: list[DroppedSubmission]
    #: ``(tick, job_id, shard)`` per delivered job, in delivery order
    submissions: list[tuple[int, int, int]]
    #: autoscaler resize steps actually applied
    scale_events: list[ScaleEvent]
    #: published KPI snapshots, oldest first
    kpis: list[dict[str, Any]] = field(default_factory=list)
    #: ticks that overran their wall deadline (wall clock only)
    late_ticks: int = 0
    #: submissions redelivered through the retry queue (0 without one)
    retried: int = 0

    @property
    def total_profit(self) -> float:
        """Profit earned across all shards."""
        return self.cluster.total_profit

    @property
    def gateway_shed(self) -> int:
        """Jobs refused at the front door (never reached the cluster)."""
        return len(self.dropped)

    def fingerprint(self) -> str:
        """SHA-256 digest of everything observable about the run.

        Covers the submission order and placement, front-door drops,
        scheduler sheds, per-job completion records (times and exact
        profit bit patterns via ``repr``) and the scale trajectory.
        Two runs are *the same run* iff their fingerprints match -- the
        determinism suite's single-line assertion.
        """
        records = self.cluster.records
        payload = {
            "submissions": self.submissions,
            "dropped": [
                (d.job_id, d.arrival, d.tick, repr(d.profit))
                for d in self.dropped
            ],
            "shed": [
                (s.job_id, s.time, s.reason) for s in self.cluster.shed
            ],
            "records": [
                (
                    records[job_id].job_id,
                    records[job_id].arrival,
                    records[job_id].completion_time,
                    repr(records[job_id].profit),
                )
                for job_id in sorted(records)
            ],
            "scale": [
                (e.time, e.direction, e.k_after, e.moved)
                for e in self.scale_events
            ],
            "profit": repr(self.total_profit),
            "sim_end": self.sim_end,
            "ticks": self.ticks,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def summary(self) -> dict[str, Any]:
        """Flat summary dict (the CLI's and bench's reporting surface)."""
        latency = self.cluster.metrics.histogram_summary("admission_latency")
        return {
            "ticks": self.ticks,
            "sim_end": self.sim_end,
            "wall_seconds": round(self.wall_seconds, 6),
            "generated": self.generated,
            "delivered": self.delivered,
            "gateway_shed": self.gateway_shed,
            "shed": self.cluster.num_shed,
            "completed": sum(
                1 for r in self.cluster.records.values() if r.completed
            ),
            "total_profit": self.total_profit,
            "admission_latency_p50": latency.get("p50"),
            "admission_latency_p99": latency.get("p99"),
            "scale_events": len(self.scale_events),
            "late_ticks": self.late_ticks,
            "retried": self.retried,
            "fingerprint": self.fingerprint(),
        }


class DegradationLadder:
    """Graceful-degradation policy under sustained ingest overload.

    The ladder watches the ingest buffer's fill fraction each tick and
    climbs one rung at a time when it stays above ``enter_fraction``
    for ``patience`` consecutive ticks -- shedding progressively more
    to keep the loop serving -- and steps back down after ``relief``
    consecutive ticks at or below ``exit_fraction``:

    ======  ====================  ======================================
    level   name                  effect
    ======  ====================  ======================================
    0       ``normal``            full service
    1       ``no-tracing``        live tracing paused (observability is
                                  the cheapest thing to shed)
    2       ``shed-low-density``  buffer overflow evicts the lowest-
                                  density job instead of refusing the
                                  newest (the paper's shed order at the
                                  front door)
    3       ``reject``            arrivals refused outright
    ======  ====================  ======================================

    Every transition is traced (the trace is re-enabled just long
    enough when paused) and counted, so post-mortems can reconstruct
    exactly when and why the gateway shed what it shed.  The policy is
    a pure function of the fill-fraction sequence -- seeded runs remain
    bit-reproducible.
    """

    LEVELS = ("normal", "no-tracing", "shed-low-density", "reject")

    def __init__(
        self,
        *,
        enter_fraction: float = 0.75,
        exit_fraction: float = 0.25,
        patience: int = 3,
        relief: int = 10,
    ) -> None:
        if not 0.0 <= exit_fraction < enter_fraction <= 1.0:
            raise GatewayError("need 0 <= exit_fraction < enter_fraction <= 1")
        if patience < 1 or relief < 1:
            raise GatewayError("patience and relief must be >= 1")
        self.enter_fraction = float(enter_fraction)
        self.exit_fraction = float(exit_fraction)
        self.patience = int(patience)
        self.relief = int(relief)
        self.level = 0
        #: (tick, from_level, to_level) per applied transition
        self.transitions: list[tuple[int, int, int]] = []
        self._hot = 0
        self._cool = 0

    @property
    def name(self) -> str:
        """Current rung's name (KPI surface)."""
        return self.LEVELS[self.level]

    def observe(self, fraction: float, tick: int) -> Optional[tuple[int, int]]:
        """Feed one tick's buffer fill fraction; returns the
        ``(from_level, to_level)`` transition it triggered, if any."""
        if fraction >= self.enter_fraction:
            self._hot += 1
            self._cool = 0
        elif fraction <= self.exit_fraction:
            self._cool += 1
            self._hot = 0
        else:
            self._hot = 0
            self._cool = 0
        if self._hot >= self.patience and self.level < len(self.LEVELS) - 1:
            old, self.level = self.level, self.level + 1
            self._hot = 0
            self.transitions.append((tick, old, self.level))
            return (old, self.level)
        if self._cool >= self.relief and self.level > 0:
            old, self.level = self.level, self.level - 1
            self._cool = 0
            self.transitions.append((tick, old, self.level))
            return (old, self.level)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DegradationLadder(level={self.name!r}, "
            f"transitions={len(self.transitions)})"
        )


class Gateway:
    """Paced open-loop traffic front for an :class:`ElasticCluster`.

    Parameters
    ----------
    cluster:
        The elastic cluster to serve into (not yet started is fine).
    load:
        The seeded open-loop traffic source.
    clock:
        Time source (default :class:`WallClock`).  Pass a
        :class:`~repro.gateway.clock.VirtualClock` for deterministic
        full-speed runs.
    tick_seconds:
        Wall seconds per tick.
    steps_per_tick:
        Simulated steps that elapse each tick (the wall/sim exchange
        rate).
    buffer_capacity:
        Ingest bound; overflow becomes gateway sheds.
    max_dispatch_per_tick:
        Cap on jobs handed to the cluster per tick (None = drain all
        buffered work every tick).
    autoscaler:
        Optional :class:`~repro.gateway.autoscale.Autoscaler`; when
        None the shard count stays at the cluster's ``k_active``.
    feed:
        Optional :class:`KpiFeed` to publish snapshots on (the SSE
        server consumes this).
    kpi_window, kpi_every:
        Rolling-rate window (snapshots) and publish cadence (ticks).
    retry:
        Optional :class:`~repro.gateway.ingest.RetryQueue`: submissions
        the cluster cannot take (every shard down, or a delivery raises
        mid-failover) are parked and redelivered with deadline-aware
        exponential backoff instead of shed.  ``None`` (default) keeps
        the PR 7 behaviour bit-identical.
    degradation:
        Optional :class:`DegradationLadder` driving graceful
        degradation off the buffer fill fraction.  ``None`` (default)
        disables the ladder.
    """

    def __init__(
        self,
        cluster: ElasticCluster,
        load: LoadGenerator,
        *,
        clock: Optional[Clock] = None,
        tick_seconds: float = 0.05,
        steps_per_tick: int = 20,
        buffer_capacity: int = 4096,
        max_dispatch_per_tick: Optional[int] = None,
        autoscaler: Optional[Autoscaler] = None,
        feed: Optional[KpiFeed] = None,
        kpi_window: int = 20,
        kpi_every: int = 1,
        retry: Optional[RetryQueue] = None,
        degradation: Optional[DegradationLadder] = None,
    ) -> None:
        if tick_seconds <= 0:
            raise GatewayError("tick_seconds must be positive")
        if steps_per_tick < 1:
            raise GatewayError("steps_per_tick must be >= 1")
        if max_dispatch_per_tick is not None and max_dispatch_per_tick < 1:
            raise GatewayError("max_dispatch_per_tick must be >= 1")
        if kpi_every < 1:
            raise GatewayError("kpi_every must be >= 1")
        self.cluster = cluster
        self.load = load
        self.clock: Clock = clock if clock is not None else WallClock()
        self.tick_seconds = float(tick_seconds)
        self.steps_per_tick = int(steps_per_tick)
        self.buffer = IngestBuffer(buffer_capacity)
        self.max_dispatch_per_tick = max_dispatch_per_tick
        self.autoscaler = autoscaler
        self.feed = feed
        self.kpi = KpiAggregator(window=kpi_window)
        self.kpi_every = int(kpi_every)
        self.retry = retry
        self.degradation = degradation
        #: tracer.enabled before the ladder first paused it
        self._trace_baseline: Optional[bool] = None
        self._dropped: list[DroppedSubmission] = []

    # ------------------------------------------------------------------
    def run(self, max_ticks: Optional[int] = None) -> GatewayResult:
        """Serve the whole stream (or ``max_ticks`` ticks) and drain.

        The loop ends when the generator is exhausted and the ingest
        buffer is empty (or at ``max_ticks``); the cluster then drains
        its queued and in-flight work through ``finish()`` exactly as
        the offline paths do.  The feed, if any, receives one final
        snapshot and is closed.
        """
        cluster = self.cluster
        cluster.start()
        specs = iter(self.load)
        pending = next(specs, None)

        dropped: list[DroppedSubmission] = []
        self._dropped = dropped  # _submit appends retry-expiry drops
        submissions: list[tuple[int, int, int]] = []
        kpis: list[dict[str, Any]] = []
        generated = 0
        delivered = 0
        late_ticks = 0
        tick = 0
        start_wall = self.clock.now()

        stalled = getattr(cluster, "consume_tick_stall", None)

        while True:
            if max_ticks is not None and tick >= max_ticks:
                break
            if (
                pending is None
                and len(self.buffer) == 0
                and (self.retry is None or len(self.retry) == 0)
                and tick > 0
            ):
                break
            tick += 1
            deadline = start_wall + tick * self.tick_seconds
            self.clock.sleep_until(deadline)
            if self.clock.now() - deadline > self.tick_seconds:
                late_ticks += 1
            boundary = tick * self.steps_per_tick

            # ingest every arrival due strictly before the new boundary
            while pending is not None and pending.arrival < boundary:
                generated += 1
                drop = self._offer(pending, tick)
                if drop is not None:
                    dropped.append(drop)
                pending = next(specs, None)

            # parked retries whose backoff elapsed re-enter the buffer
            # ahead of this tick's dispatch; expiries become drops
            if self.retry is not None:
                ready, expired = self.retry.due(tick, boundary)
                dropped.extend(expired)
                for spec in ready:
                    drop = self._offer(spec, tick)
                    if drop is not None:
                        dropped.append(drop)

            if self.degradation is not None:
                change = self.degradation.observe(
                    len(self.buffer) / self.buffer.capacity, tick
                )
                if change is not None:
                    self._apply_degradation(change, tick, boundary)

            # an injected tick stall freezes dispatch and scheduling for
            # this tick while arrivals keep buffering -- the loop itself
            # is the component under test here
            if stalled is not None and stalled():
                continue

            # dispatch a batch; each job keeps its intended arrival time
            # (the cluster clamps to its own clock, so order holds)
            for spec in self.buffer.drain(self.max_dispatch_per_tick):
                shard = self._submit(spec, tick, boundary)
                if shard is None:
                    continue  # parked for retry (or dropped)
                submissions.append((tick, spec.job_id, shard))
                delivered += 1

            cluster.advance_to(boundary)

            if self.autoscaler is not None:
                target = self.autoscaler.decide(
                    tick, cluster.k_active, cluster.active_stats()
                )
                if target != cluster.k_active:
                    cluster.scale_to(target, t=boundary)

            if tick % self.kpi_every == 0:
                snapshot = self._snapshot(
                    tick, boundary, start_wall, generated, len(dropped)
                )
                kpis.append(snapshot)
                if self.feed is not None:
                    self.feed.publish(snapshot)

        sim_end = tick * self.steps_per_tick
        result = cluster.finish()
        gateway_result = GatewayResult(
            cluster=result,
            ticks=tick,
            sim_end=sim_end,
            wall_seconds=self.clock.now() - start_wall,
            generated=generated,
            delivered=delivered,
            dropped=dropped,
            submissions=submissions,
            scale_events=list(cluster.scale_events),
            kpis=kpis,
            late_ticks=late_ticks,
            retried=self.retry.retried_total if self.retry is not None else 0,
        )
        if self.feed is not None:
            final = dict(kpis[-1]) if kpis else {}
            final["final"] = True
            final["total_profit"] = gateway_result.total_profit
            self.feed.publish(final)
            self.feed.close()
        return gateway_result

    # ------------------------------------------------------------------
    def _submit(
        self, spec: JobSpec, tick: int, boundary: int
    ) -> Optional[int]:
        """Deliver one drained job; park it for retry on cluster failure.

        Returns the shard index on success, ``None`` when the job went
        to the retry queue (or straight to a drop record) instead.
        Without a retry queue this is exactly ``cluster.submit`` -- the
        PR 7 delivery path, failures and all.
        """
        if self.retry is None:
            return self.cluster.submit(spec, t=spec.arrival)
        if not self._cluster_available():
            # park *before* submit: the resilient cluster's own
            # no-healthy-shard path sheds with prejudice, and a shed
            # plus a retry would double-account the job
            drop = self.retry.push(spec, tick, boundary)
            if drop is not None:
                self._dropped.append(drop)
            return None
        try:
            return self.cluster.submit(spec, t=spec.arrival)
        except (ShardFailedError, ShardTimeoutError):
            drop = self.retry.push(spec, tick, boundary)
            if drop is not None:
                self._dropped.append(drop)
            return None

    def _cluster_available(self) -> bool:
        """Whether any active shard can take a delivery right now."""
        return any(s.alive for s in self.cluster.active_stats())

    def _offer(self, spec: JobSpec, tick: int) -> Optional[DroppedSubmission]:
        """Buffer one due arrival under the current degradation rung.

        Returns the drop record when the front door refused someone --
        the newcomer (overflow / reject) or a displaced buffered job
        (shed-low-density) -- and ``None`` when everything fit.
        """
        level = self.degradation.level if self.degradation is not None else 0
        if level >= 3:
            self.buffer.rejected += 1
            return DroppedSubmission(
                job_id=spec.job_id,
                arrival=spec.arrival,
                tick=tick,
                profit=spec.profit,
                reason="degradation-reject",
            )
        if level >= 2:
            evicted = self.buffer.offer_displacing(spec, self._density)
            if evicted is None:
                return None
            return DroppedSubmission(
                job_id=evicted.job_id,
                arrival=evicted.arrival,
                tick=tick,
                profit=evicted.profit,
                reason="degradation-shed",
            )
        if self.buffer.offer(spec):
            return None
        return DroppedSubmission(
            job_id=spec.job_id,
            arrival=spec.arrival,
            tick=tick,
            profit=spec.profit,
        )

    def _density(self, spec: JobSpec) -> float:
        """The paper's shed key v_i, under the shards' machine count."""
        template = self.cluster.shards[0].config
        return sns_density(
            spec, template.m, Constants.from_epsilon(1.0), template.speed
        )

    def _apply_degradation(
        self, change: tuple[int, int], tick: int, boundary: int
    ) -> None:
        """Enact one ladder transition: count it, trace it, and pause or
        resume live tracing as the rung demands."""
        old, new = change
        metrics = getattr(self.cluster, "metrics", None)
        if metrics is not None:
            metrics.inc("degradation_transitions_total")
        tracer = getattr(self.cluster, "tracer", None)
        if tracer is not None and hasattr(tracer, "enabled"):
            if self._trace_baseline is None:
                self._trace_baseline = bool(tracer.enabled)
            # re-enable just long enough that the transition itself is
            # always on the record, even while tracing is shed
            try:
                tracer.enabled = True
            except AttributeError:  # NullRecorder: stays off
                tracer = None
            if tracer is not None:
                tracer.event(
                    boundary,
                    "degradation",
                    None,
                    {
                        "from": DegradationLadder.LEVELS[old],
                        "to": DegradationLadder.LEVELS[new],
                        "tick": tick,
                    },
                )
                tracer.enabled = self._trace_baseline and new < 1

    # ------------------------------------------------------------------
    def _snapshot(
        self,
        tick: int,
        boundary: int,
        start_wall: float,
        generated: int,
        gateway_shed: int,
    ) -> dict[str, Any]:
        cluster = self.cluster
        stats = cluster.active_stats()
        supervisor = getattr(cluster, "supervisor", None)
        degraded = len(supervisor.degraded) if supervisor is not None else 0
        level = (
            self.degradation.name if self.degradation is not None else "normal"
        )
        return self.kpi.snapshot(
            tick=tick,
            sim_t=boundary,
            wall_s=self.clock.now() - start_wall,
            metrics=cluster.live_metrics(),
            active_shards=cluster.k_active,
            queue_depth=sum(s.queue_depth for s in stats),
            in_flight=sum(s.in_flight for s in stats),
            generated=generated,
            gateway_shed=gateway_shed,
            buffer_depth=len(self.buffer),
            degraded_shards=degraded,
            degradation=level,
        )
