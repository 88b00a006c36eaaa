"""The online scheduling service: ingest queue + incremental engine +
telemetry, behind a submit/advance/finish interface.

:class:`SchedulingService` turns the batch simulator into a long-running
system with the serving-layer behaviours the paper's *online* setting
implies but the batch driver cannot express:

* **open-ended arrivals** -- jobs are submitted while simulated time
  advances, via the engine's streaming session
  (:meth:`repro.sim.engine.Simulator.submit` /
  :meth:`~repro.sim.engine.Simulator.advance_to`);
* **admission backpressure** -- a bounded :class:`~repro.service.queue.
  IngestQueue` with a shed policy sits in front of the scheduler, and an
  optional in-flight cap throttles release into the engine, so overload
  sheds the least valuable work instead of growing without bound;
* **telemetry** -- queue depth, shed rate, utilization, profit rate and
  jobs in flight are sampled into a
  :class:`~repro.service.telemetry.MetricsRegistry` at decision points;
  a registry that keeps no samples has its gauges synced when read;
* **restart safety** -- the whole service state checkpoints to JSON and
  restores bit-identically (:mod:`repro.service.snapshot`).

In pass-through configuration (unbounded in-flight, queue never full)
a service-driven run is bit-identical to ``Simulator.run`` on the same
arrival sequence -- the property the equivalence tests pin down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence

from repro.core.theory import Constants
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.jobs import JobSpec
from repro.sim.picker import NodePicker
from repro.sim.scheduler import Scheduler
from repro.service.queue import IngestQueue, QueuedJob, ShedPolicy, sns_density
from repro.service.telemetry import MetricsRegistry

#: Gauges every sample refreshes, in the order they are first created;
#: synced on read when the registry records no samples.
SYNCED_GAUGES: tuple[str, ...] = (
    "queue_depth",
    "in_flight",
    "completed_total",
    "expired_total",
    "profit_total",
    "profit_rate",
    "utilization",
)

#: Service totals the cluster's KPI roll-up reads, in the order
#: :meth:`~repro.gateway.kpi.KpiAggregator.snapshot` reads them; a
#: process shard's telemetry ``stats`` reply carries exactly these.
KPI_TOTALS: tuple[str, ...] = (
    "profit_total",
    "submitted_total",
    "shed_total",
    "completed_total",
)
#: The histogram the KPI roll-up reads its admission latencies from.
KPI_HISTOGRAM = "admission_latency"


class Admission(enum.Enum):
    """Outcome of one :meth:`SchedulingService.submit` call."""

    #: released straight into the engine
    ADMITTED = "admitted"
    #: buffered in the ingest queue (backpressure engaged)
    QUEUED = "queued"
    #: dropped by the shed policy (this submission never runs)
    SHED = "shed"


@dataclass(frozen=True)
class ShedRecord:
    """One job dropped by the service (never entered the engine)."""

    job_id: int
    #: simulated time of the drop
    time: int
    #: "shed" (policy decision), "expired-in-queue", or "starved"
    reason: str
    #: S's density of the dropped job
    density: float
    #: profit the job would have been worth on time
    profit: float


@dataclass
class ServiceResult:
    """Everything a finished service run reports."""

    #: the engine's result over the jobs that were actually released
    result: SimulationResult
    #: jobs the service dropped before release
    shed: list[ShedRecord]
    #: the telemetry registry (samples + final values)
    metrics: MetricsRegistry
    extra: dict = field(default_factory=dict)

    @property
    def total_profit(self) -> float:
        """Profit earned by released jobs."""
        return self.result.total_profit

    @property
    def num_shed(self) -> int:
        """Number of jobs dropped before release."""
        return len(self.shed)

    @property
    def profit_shed(self) -> float:
        """Total on-time profit of the dropped jobs (an upper bound on
        what shedding cost)."""
        return sum(rec.profit for rec in self.shed)


class SchedulingService:
    """Long-running online scheduling service over the simulation engine.

    Parameters
    ----------
    m, scheduler, speed, picker, horizon, preemption_overhead:
        Forwarded to :class:`~repro.sim.engine.Simulator`.
    capacity:
        Ingest-queue bound (jobs buffered before release).
    shed_policy:
        Victim selection when the queue is full; default reject-newest.
    max_in_flight:
        Cap on jobs concurrently inside the engine (released, not yet
        finished).  ``None`` (default) releases immediately -- the
        pass-through mode that is bit-identical to batch runs.
    constants:
        :class:`~repro.core.theory.Constants` used to compute shed
        densities; defaults to the scheduler's own constants when it has
        them, else ``Constants.from_epsilon(1.0)``.
    metrics:
        Telemetry registry; a fresh in-memory one (which keeps every
        sample) by default.  May be swapped for another registry
        mid-run; the outgoing one keeps the values it last synced.
    sample_every:
        Minimum simulated-time gap between telemetry samples (``None``
        samples at every decision point).
    recorder:
        Optional :class:`~repro.service.replay.SubmissionLog`; every
        submission is recorded for deterministic re-driving.
    tracer:
        Optional structured trace recorder (see
        :mod:`repro.observability.recorder`).  Forwarded to the engine
        and additionally fed the service-level lifecycle events:
        ``submit`` (with its admission outcome), ``release`` and the
        terminal ``shed``.  Tracing never changes the run.
    profiler:
        Optional :class:`~repro.observability.profiler.Profiler`
        forwarded to the engine's hot-path sections.
    """

    def __init__(
        self,
        m: int,
        scheduler: Scheduler,
        *,
        capacity: int = 1024,
        shed_policy: Optional[ShedPolicy] = None,
        max_in_flight: Optional[int] = None,
        speed: float = 1.0,
        picker: Optional[NodePicker] = None,
        horizon: Optional[int] = None,
        preemption_overhead: float = 0.0,
        constants: Optional[Constants] = None,
        metrics: Optional[MetricsRegistry] = None,
        sample_every: Optional[int] = None,
        recorder: Optional[Any] = None,
        tracer: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if sample_every is not None and sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sim = Simulator(
            m=m,
            scheduler=scheduler,
            picker=picker,
            speed=speed,
            horizon=horizon,
            preemption_overhead=preemption_overhead,
            recorder=tracer,
            profiler=profiler,
        )
        self.tracer = tracer
        self.queue = IngestQueue(capacity, shed_policy)
        self.max_in_flight = max_in_flight
        if constants is None:
            constants = getattr(scheduler, "constants", None)
        if constants is None:
            constants = Constants.from_epsilon(1.0)
        self.constants = constants
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self.sample_every = sample_every
        self.recorder = recorder
        #: jobs dropped before release, in drop order
        self.shed_log: list[ShedRecord] = []
        self._last_sample_t: Optional[int] = None
        # (registry, its _GaugeSync), bound on the first sync:
        # registries and checkpoints taken before it hold no gauges
        self._synced: Optional[tuple[MetricsRegistry, _GaugeSync]] = None
        # (registry, its "queue_depth" histogram), bound on the first
        # sample the same way
        self._depth: Optional[tuple[MetricsRegistry, Any]] = None

    @property
    def metrics(self) -> MetricsRegistry:
        """The telemetry registry (see the ``metrics`` parameter)."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry) -> None:
        # the outgoing registry keeps what an eager sync left in it
        self._metrics.settle()
        self._metrics = registry

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the underlying engine session (idempotent)."""
        if not self.sim.started:
            self.sim.start()

    def attach_tracer(
        self, tracer: Optional[Any], profiler: Optional[Any] = None
    ) -> None:
        """Attach (or detach, with ``None``) a trace recorder mid-life.

        Used by cluster shards to re-attach their shard-tagged trace
        view after a restore; takes effect from the next engine advance.
        """
        self.tracer = tracer
        self.sim.recorder = tracer
        if profiler is not None:
            self.sim.profiler = profiler

    @property
    def now(self) -> int:
        """Current simulated time."""
        return self.sim.now

    @property
    def in_flight(self) -> int:
        """Jobs inside the engine: released-and-active plus released-
        but-not-yet-arrived."""
        return self.sim.active_count + self.sim.pending_count

    def submit(self, spec: JobSpec, t: Optional[int] = None) -> Admission:
        """Submit a job at time ``t`` (default: now) and report its fate.

        Advances the clock to ``t`` first when ahead of it.  The job is
        offered to the ingest queue; a full queue invokes the shed
        policy.  Whatever fits and clears the in-flight cap is released
        into the engine immediately.
        """
        self.start()
        if t is not None and t > self.sim.now:
            self.advance_to(t)
        now = self.sim.now
        if self.recorder is not None:
            self.recorder.record(now, spec)
        self._metrics.counter("submitted_total").inc()
        entry = QueuedJob(
            spec=spec,
            enqueued_at=now,
            density=sns_density(spec, self.sim.m, self.constants, self.sim.speed),
        )
        victim = self.queue.offer(entry)
        if victim is not None:
            self._note_shed(victim, now, "shed")
        self._release()
        self._maybe_sample()
        if victim is entry:
            outcome = Admission.SHED
        elif self.queue.depth:
            # a kept entry went in last and _release pops from the
            # front, so anything still queued includes it
            outcome = Admission.QUEUED
        else:
            outcome = Admission.ADMITTED
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                now, "submit", spec.job_id, {"outcome": outcome.value}
            )
        return outcome

    def advance_to(self, t: int) -> int:
        """Advance simulated time, releasing queued jobs as slots free."""
        self.start()
        self.sim.advance_to(t)
        self._release()
        self._maybe_sample()
        return self.sim.now

    def finish(self) -> ServiceResult:
        """Drain queue and engine; return the final :class:`ServiceResult`.

        With an in-flight cap, draining steps simulated time forward so
        completions free slots for still-queued jobs.  If the clock can
        no longer advance (horizon reached) the remaining queued jobs
        are shed as ``"starved"``.
        """
        self.start()
        metrics = self._metrics
        metrics.settle()
        while self.queue.depth:
            self._release()
            if not self.queue.depth:
                break
            before = self.sim.now
            self.sim.advance_to(before + 1)
            if self.sim.now == before:  # horizon: time is frozen
                while self.queue.depth:
                    entry = self.queue.pop()
                    self._note_shed(entry, self.sim.now, "starved")
                break
        result = self.sim.finish()
        self._gauge_sync().sync(
            result.end_time, 0, result.total_profit, result.counters
        )
        metrics.gauge("queue_depth").set(0)
        if metrics.records_samples:
            metrics.sample(result.end_time)
        self._last_sample_t = result.end_time
        return ServiceResult(
            result=result, shed=list(self.shed_log), metrics=metrics
        )

    # ------------------------------------------------------------------
    # Cluster coordination (work-stealing + band ledger)
    # ------------------------------------------------------------------
    def extract_running(self, job_id: int) -> Optional[dict]:
        """Pull a live job out of the engine for migration elsewhere.

        The cluster steal path: the job is preempted, forgotten by this
        service's scheduler, and returned as a JSON-compatible payload
        for :meth:`inject_running` on the receiving service.  Returns
        ``None`` when the job is not live inside this engine.
        """
        self.start()
        self._metrics.settle()
        payload = self.sim.extract_active(job_id)
        if payload is not None:
            self._metrics.counter("stolen_out_total").inc()
        return payload

    def inject_running(self, payload: dict, t: Optional[int] = None) -> None:
        """Install a job another service's :meth:`extract_running` produced.

        Bypasses the ingest queue: a stolen job was already admitted
        cluster-wide, so it goes straight into the engine (the engine
        re-stamps deadline-job arrivals to *now*, judging the job by
        remaining slack).
        """
        self.start()
        if t is not None and t > self.sim.now:
            self.advance_to(t)
        self._metrics.settle()
        self.sim.inject_active(payload)
        # no telemetry sample here: injection is a coordinator action,
        # not a stream event
        self._metrics.counter("stolen_in_total").inc()

    def forget_pending(self, job_id: int) -> Optional[JobSpec]:
        """Withdraw a submitted-but-unreleased job from the engine.

        Recovery-reconciliation surface: a replayed submission that was
        released into the engine at the current instant is neither in
        the ingest queue nor extractable until the clock moves, and
        this is the only way to remove it.  Returns the withdrawn spec
        or ``None``; no shed or completion record is written.
        """
        self.start()
        self._metrics.settle()
        return self.sim.forget_pending(job_id)

    def take_queued(self, n: int) -> list[JobSpec]:
        """Pop up to ``n`` of the newest queued jobs and return their
        specs, newest first (the cluster's scale moves).  Nothing is
        shed or recorded: the caller delivers them elsewhere."""
        self._metrics.settle()
        return [entry.spec for entry in self.queue.take_newest(n)]

    def coordination_view(self, limit: Optional[int] = None) -> Optional[dict]:
        """Band/queue state for the cluster coordinator's ledger.

        Returns ``None`` when the scheduler does not expose band state
        (baselines).  Otherwise a JSON-compatible dict: started-job band
        entries, parked jobs, and starved started jobs (the allotment
        scan's unserved tail), each with enough static job data
        (``W``/``L``/deadline/profit) to re-evaluate admission on any
        other shard.

        ``limit`` caps the parked/starved entry lists to the ``limit``
        highest-density jobs each (ties to the lower job id).  The steal
        planner consumes victims highest-density-first and plans at most
        a batch per tick, so a cap at the batch size loses nothing while
        keeping the per-refresh encode cost flat in overload -- where
        the parked set is exactly what grows without bound.  The cap is
        a prefix slice: the scheduler's ``parked_states`` and
        ``starved_states`` already return their states in
        ``(-density, job_id)`` order.
        """
        self.start()
        sched = self.sim.scheduler
        if not (
            hasattr(sched, "started_states")
            and hasattr(sched, "parked_states")
            and hasattr(sched, "starved_states")
        ):
            return None

        def encode(state: Any) -> dict:
            view = state.view
            return {
                "job_id": state.job_id,
                "density": state.density,
                "allotment": state.allotment,
                "x": state.x,
                "work": view.work,
                "span": view.span,
                "deadline": state.deadline,
                "profit": view.profit,
            }

        def top(states: list[Any]) -> list[dict]:
            return [encode(s) for s in states[:limit]]

        return {
            "m": self.sim.m,
            "now": self.sim.now,
            "queue_depth": self.queue.depth,
            "started": [
                [s.job_id, s.density, s.allotment]
                for s in sched.started_states()
            ],
            "parked": top(sched.parked_states()),
            "starved": top(sched.starved_states()),
        }

    def run_stream(self, specs: Iterable[JobSpec]) -> ServiceResult:
        """Drive a whole arrival sequence through the service.

        Sorts by ``(arrival, job_id)`` (the online order), advances to
        each arrival, submits, then drains.  In pass-through
        configuration the returned
        :class:`~repro.sim.engine.SimulationResult` is bit-identical to
        ``Simulator.run`` on the same specs.
        """
        self.start()
        ordered: Sequence[JobSpec] = sorted(
            specs, key=lambda sp: (sp.arrival, sp.job_id)
        )
        for spec in ordered:
            self.submit(spec, t=spec.arrival)
        return self.finish()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _release(self) -> None:
        """Move queued jobs into the engine while capacity allows."""
        while self.queue.depth:
            if (
                self.max_in_flight is not None
                and self.in_flight >= self.max_in_flight
            ):
                break
            entry = self.queue.pop()
            now = self.sim.now
            spec = entry.spec
            # admission latency: intended arrival -> release into the
            # engine, covering both queue waiting and (under a paced
            # gateway) delivery quantization; 0 in pass-through mode
            self._metrics.histogram(KPI_HISTOGRAM).observe(
                max(0, now - spec.arrival)
            )
            if spec.arrival < now:
                # The job waited in the queue past its arrival: it
                # re-enters the world now, with whatever slack is left.
                if spec.deadline is not None and spec.deadline <= now:
                    self._note_shed(entry, now, "expired-in-queue")
                    continue
                spec = replace(spec, arrival=now)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.event(
                    now,
                    "release",
                    spec.job_id,
                    {"waited": now - entry.enqueued_at},
                )
            self.sim.submit(spec)
            self._metrics.counter("released_total").inc()

    def _note_shed(self, entry: QueuedJob, t: int, reason: str) -> None:
        self.shed_log.append(
            ShedRecord(
                job_id=entry.job_id,
                time=t,
                reason=reason,
                density=entry.density,
                profit=entry.spec.profit,
            )
        )
        self._metrics.counter("shed_total").inc()
        if reason == "expired-in-queue":
            self._metrics.counter("queue_expired_total").inc()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                t,
                "shed",
                entry.job_id,
                {
                    "reason": reason,
                    "density": entry.density,
                    "profit": entry.spec.profit,
                },
            )

    def _maybe_sample(self) -> None:
        metrics = self._metrics
        depth = self._depth
        if depth is None or depth[0] is not metrics:
            depth = self._depth = (metrics, metrics.histogram("queue_depth"))
        depth[1].observe(self.queue.depth)
        now = self.sim.now
        every = self.sample_every
        if (
            every is not None
            and self._last_sample_t is not None
            and now - self._last_sample_t < every
        ):
            return
        self._last_sample_t = now
        if metrics.records_samples:
            self._gauge_sync()()
            metrics.sample(now)
        elif every is None:
            # Every submit and advance ends here with a sample due, so
            # this mark always stands for the current state; the other
            # paths that change it (finish, steals, scale moves, a
            # registry swap) settle first.
            metrics.mark_stale(self._gauge_sync())
        else:
            self._gauge_sync()()

    def _gauge_sync(self) -> "_GaugeSync":
        metrics = self._metrics
        synced = self._synced
        if synced is None or synced[0] is not metrics:
            synced = self._synced = (
                metrics, _GaugeSync(metrics, self.sim, self.queue)
            )
        return synced[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"t={self.sim.now}" if self.sim.started else "idle"
        return (
            f"SchedulingService(m={self.sim.m}, {state}, "
            f"queue={self.queue.depth}/{self.queue.capacity}, "
            f"shed={len(self.shed_log)})"
        )


class _GaugeSync:
    """Writes one registry's :data:`SYNCED_GAUGES` from a service.

    Calling it syncs from the engine's live readings; it is what the
    service hands :meth:`~repro.service.telemetry.MetricsRegistry.
    mark_stale`.  It holds the gauges, the engine and the queue, but
    neither the service nor the registry, so a marked registry forms no
    reference cycle.
    """

    __slots__ = ("gauges", "sim", "queue")

    def __init__(
        self, registry: MetricsRegistry, sim: Simulator, queue: IngestQueue
    ) -> None:
        # bind in SYNCED_GAUGES order: gauge creation order is the
        # order state_to_dict (and so a checkpoint) lists them in
        self.gauges = tuple(registry.gauge(n) for n in SYNCED_GAUGES)
        self.sim = sim
        self.queue = queue

    def __call__(self) -> None:
        sim = self.sim
        self.sync(sim.now, *sim.readings())

    def sync(
        self, now: int, in_flight: int, profit: float, counters: Any
    ) -> None:
        """Set the gauges from one set of readings."""
        queue, flight, completed, expired, total, rate, util = self.gauges
        queue.set(self.queue.depth)
        flight.set(in_flight)
        completed.set(counters.completions)
        expired.set(counters.expiries)
        total.set(profit)
        rate.set(profit / now if now > 0 else 0.0)
        allocated = counters.allocated_steps
        util.set(counters.busy_steps / allocated if allocated > 0 else 0.0)
