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

from repro.cluster.service import ClusterResult, ClusterService, ScaleEvent
from repro.errors import GatewayError
from repro.gateway.autoscale import Autoscaler
from repro.gateway.clock import Clock, WallClock
from repro.gateway.ingest import DroppedSubmission, IngestBuffer
from repro.gateway.kpi import KpiAggregator, KpiFeed
from repro.gateway.load import LoadGenerator


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
            "fingerprint": self.fingerprint(),
        }


class Gateway:
    """Paced open-loop traffic front for a
    :class:`~repro.cluster.service.ClusterService`.

    Parameters
    ----------
    cluster:
        The cluster to serve into (not yet started is fine); it must be
        elastic for an ``autoscaler`` to resize it.
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
    kpi_every:
        KPI publish cadence (ticks).
    """

    def __init__(
        self,
        cluster: ClusterService,
        load: LoadGenerator,
        *,
        clock: Optional[Clock] = None,
        tick_seconds: float = 0.05,
        steps_per_tick: int = 20,
        buffer_capacity: int = 4096,
        max_dispatch_per_tick: Optional[int] = None,
        autoscaler: Optional[Autoscaler] = None,
        feed: Optional[KpiFeed] = None,
        kpi_every: int = 1,
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
        self.kpi = KpiAggregator()
        self.kpi_every = int(kpi_every)

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
        submissions: list[tuple[int, int, int]] = []
        kpis: list[dict[str, Any]] = []
        generated = 0
        delivered = 0
        late_ticks = 0
        tick = 0
        start_wall = self.clock.now()

        while True:
            if max_ticks is not None and tick >= max_ticks:
                break
            if pending is None and len(self.buffer) == 0 and tick > 0:
                break
            tick += 1
            deadline = start_wall + tick * self.tick_seconds
            self.clock.sleep_until(deadline)
            if self.clock.now() - deadline > self.tick_seconds:
                late_ticks += 1
            boundary = tick * self.steps_per_tick

            # ingest every arrival due strictly before the new boundary;
            # a full buffer refuses the newcomer
            while pending is not None and pending.arrival < boundary:
                generated += 1
                if not self.buffer.offer(pending):
                    dropped.append(
                        DroppedSubmission(
                            job_id=pending.job_id,
                            arrival=pending.arrival,
                            tick=tick,
                            profit=pending.profit,
                        )
                    )
                pending = next(specs, None)

            # an injected tick stall freezes dispatch and scheduling for
            # this tick while arrivals keep buffering -- the loop itself
            # is the component under test here
            if cluster.consume_tick_stall():
                continue

            # dispatch a batch; each job keeps its intended arrival time
            # (the cluster clamps to its own clock, so order holds)
            for spec in self.buffer.drain(self.max_dispatch_per_tick):
                shard = cluster.submit(spec, t=spec.arrival)
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
        )
        if self.feed is not None:
            final = dict(kpis[-1]) if kpis else {}
            final["final"] = True
            final["total_profit"] = gateway_result.total_profit
            self.feed.publish(final)
            self.feed.close()
        return gateway_result

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
        # the stats fence also refreshes every live process shard's
        # mirror registry, lame ducks included, so the roll-up below
        # reads this tick's totals
        stats = cluster.active_stats()
        return self.kpi.snapshot(
            tick=tick,
            sim_t=boundary,
            wall_s=self.clock.now() - start_wall,
            registries=cluster.live_registries(),
            active_shards=cluster.k_active,
            queue_depth=sum(s.queue_depth for s in stats),
            in_flight=sum(s.in_flight for s in stats),
            generated=generated,
            gateway_shed=gateway_shed,
            buffer_depth=len(self.buffer),
            degraded_shards=len(cluster.degraded),
        )
