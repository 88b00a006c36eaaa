"""The cluster service: routed admission over sharded machine pools.

:class:`ClusterService` partitions ``m`` machines into ``k`` shards,
each running its own :class:`~repro.service.service.SchedulingService`
(in this process, or in a worker process -- see
:mod:`repro.cluster.shard`), and places every submitted job on exactly
one shard via a pluggable :class:`~repro.cluster.router.Router`.  The
paper's scheduler S makes this sound: a job's allotment and density are
functions of the job and the pool size alone, so shards need no shared
scheduler state and each shard's competitive analysis applies to its
own pool.

One class serves every configuration.  Two constructor arguments pick
the policies layered on the same routing:

=================  ===================================================
``k_initial``      ``None``: a fixed ``k`` shards, :meth:`scale_to`
                   raises.  An int: ``k`` equal shard units of which
                   the first ``k_initial`` are active; :meth:`scale_to`
                   resizes that active prefix live.
``supervisor``     ``None``: unsupervised, a shard failure propagates.
                   A :class:`~repro.resilience.supervisor.
                   SupervisorConfig` (or supervisor): submissions are
                   always logged, checkpoints always taken, steals
                   are journaled, and failed deliveries, advances,
                   drains and fences are recovered (or the shard
                   degraded) instead of raised.  Every placement
                   routes around the degraded shards; a job no
                   healthy shard can take is shed at the cluster.
=================  ===================================================

On top of placement every configuration offers:

* **migration** -- a :class:`~repro.cluster.migration.MigrationPolicy`
  periodically moves queued-but-unstarted jobs from overloaded to idle
  shards (off by default);
* **fault recovery** -- with a supervisor, shards are periodically
  checkpointed and every submission is logged, so a crashed shard is
  restored from its latest checkpoint plus a keyed log-tail replay with
  zero admitted jobs lost.  ``wal_dir`` and ``checkpoint_dir`` make the
  log and the checkpoints durable;
* **telemetry roll-up** -- per-shard registries merge into one cluster
  view (:func:`repro.service.telemetry.merge_registries`), alongside
  cluster-level counters (routed/migrated/recovered).

The invariant recovery hangs on: **the log append happens before the
delivery**, so a delivery that fails mid-flight loses nothing.

Scaling keeps the active set a *prefix* of equal-size units, so a
shard's machine count -- and with it S's allotments and densities --
never changes as the cluster resizes, and every router stays correct
unchanged.  Scale-up restores the next unit empty and splits the
deepest active queue into it; scale-down re-routes the highest unit's
queued jobs over the healthy remainder and lets its running jobs
finish there as a lame duck.

With the consistent-hash router and migration off, a fixed k-shard
in-process cluster run over a fixed trace is *bit-identical* (per-job
records and profit) to k independent service runs over the router's
partition of that trace -- the determinism property the cluster tests
pin down.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Iterable, Optional, Sequence, Union

from repro.cluster.config import ShardConfig, partition_machines
from repro.cluster.migration import MigrationPolicy
from repro.cluster.router import Router, ShardStats, make_router
from repro.cluster.shard import (
    InProcessShard,
    ProcessShard,
    ShardCheckpoint,
    ShardHandle,
    fan_out,
    gather_stats,
    make_shard,
)
from repro.core.theory import Constants
from repro.errors import ClusterError, ShardFailedError
from repro.resilience.checkpoints import CheckpointStore
from repro.resilience.rpc import RpcPolicy
from repro.resilience.supervisor import ShardSupervisor, SupervisorConfig
from repro.resilience.transactions import (
    StealJournal,
    reconcile_shard,
    resolve_pending,
)
from repro.resilience.wal import WriteAheadLog
from repro.service.queue import sns_density
from repro.service.replay import SubmissionLog
from repro.service.service import ServiceResult, ShedRecord
from repro.service.telemetry import MetricsRegistry, merge_registries
from repro.sim.engine import RunCounters, SimulationResult
from repro.sim.jobs import CompletionRecord, JobSpec


@dataclass
class RecoveryEvent:
    """One executed shard recovery, for reporting."""

    shard: int
    #: simulated time the recovery ran
    time: int
    #: simulated time of the checkpoint the shard was restored from
    checkpoint_time: int
    #: submission-log entries replayed on top of the checkpoint
    replayed: int
    #: wall-clock seconds the restore + replay took
    wall_seconds: float


@dataclass
class ClusterResult:
    """Everything a finished cluster run reports."""

    #: per-shard service results, in shard order
    shard_results: list[ServiceResult]
    #: cluster-level counters (routed/migrated/recovered totals)
    cluster_metrics: MetricsRegistry
    #: executed shard recoveries, in order
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def records(self) -> dict[int, CompletionRecord]:
        """Per-job completion records merged across shards."""
        merged: dict[int, CompletionRecord] = {}
        for result in self.shard_results:
            merged.update(result.result.records)
        return merged

    @property
    def total_profit(self) -> float:
        """Profit earned across all shards."""
        return sum(r.total_profit for r in self.shard_results)

    @property
    def shed(self) -> list[ShedRecord]:
        """Every job dropped before release, shard-major order."""
        return [rec for r in self.shard_results for rec in r.shed]

    @property
    def num_shed(self) -> int:
        """Number of jobs dropped before release, cluster-wide."""
        return sum(r.num_shed for r in self.shard_results)

    @property
    def num_jobs(self) -> int:
        """Number of jobs that produced a completion record."""
        return sum(len(r.result.records) for r in self.shard_results)

    @property
    def end_time(self) -> int:
        """Latest shard end time."""
        return max((r.result.end_time for r in self.shard_results), default=0)

    @property
    def metrics(self) -> MetricsRegistry:
        """Cluster telemetry: shard registries rolled up, plus the
        cluster-level counters."""
        return merge_registries(
            [r.metrics for r in self.shard_results] + [self.cluster_metrics]
        )


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


class ClusterService:
    """Sharded online scheduling over ``k`` machine-pool shards.

    Parameters
    ----------
    m:
        Total machines, split across shards by
        :func:`~repro.cluster.config.partition_machines`.
    k:
        Number of shards (the scale-up ceiling of an elastic cluster).
    k_initial:
        ``None`` (default) for a fixed shard count.  An int makes the
        cluster elastic with that many active units at start; ``m``
        must then split evenly into ``k`` units.
    config:
        Shard template (scheduler recipe, queue bound, shed policy,
        ...); its ``m`` field is overridden per shard.  Defaults to an
        SNS shard with the service defaults.
    router:
        :class:`~repro.cluster.router.Router` instance or registry name
        (default ``"consistent-hash"``, the deterministic choice).
    mode:
        ``"inprocess"`` (deterministic, zero-overhead) or ``"process"``
        (one worker process per shard, commands over pipes).
    migration:
        Optional :class:`~repro.cluster.migration.MigrationPolicy`;
        requires ``migrate_every``.
    migrate_every:
        Simulated-time interval between rebalance ticks.
    fault_injector:
        Optional :class:`~repro.resilience.chaos.ChaosInjector` fired at
        every decision point; needs a supervisor.
    checkpoint_every:
        Simulated-time interval between cluster-wide checkpoints
        (default 64 on a supervised cluster).
    stats_refresh:
        In ``"process"`` mode, submissions between synchronous stats
        refreshes for stats-hungry routers (lower = fresher = slower).
    supervisor:
        ``None`` (default) for an unsupervised cluster, or a
        :class:`~repro.resilience.supervisor.SupervisorConfig` /
        :class:`~repro.resilience.supervisor.ShardSupervisor` that
        heartbeats the shards and restarts crashed or hung ones under
        a restart budget; a shard that exhausts it with
        ``on_exhausted="degrade"`` receives no further placements.
    rpc:
        :class:`~repro.resilience.rpc.RpcPolicy` applied to every
        process-mode shard (``None`` keeps blocking RPC).
    wal_dir, checkpoint_dir:
        Directories for durable per-shard write-ahead logs (plus the
        steal journal) and the digest-verified checkpoint store (which
        keeps two generations per shard); need a supervisor.  ``None``
        keeps both in memory.
    wal_fsync_every:
        WAL records per fsync.
    tracer:
        Optional cluster-level
        :class:`~repro.observability.recorder.TraceRecorder`.  The
        cluster records routing, migration, checkpoint and recovery
        events on it and hands every shard a shard-tagged view
        (in-process shards then record their full service/engine
        lifecycle; process-mode shards stay parent-side-only).  Shard
        recovery truncates the crashed shard's post-checkpoint events
        before the keyed log-tail replay regenerates them, so traces
        stay exactly-once under faults.
    """

    def __init__(
        self,
        m: int,
        k: int,
        *,
        k_initial: Optional[int] = None,
        config: Optional[ShardConfig] = None,
        router: Union[Router, str] = "consistent-hash",
        mode: str = "inprocess",
        migration: Optional[MigrationPolicy] = None,
        migrate_every: int = 0,
        fault_injector: Optional[Any] = None,
        checkpoint_every: Optional[int] = None,
        stats_refresh: int = 32,
        supervisor: Union[ShardSupervisor, SupervisorConfig, None] = None,
        rpc: Optional[RpcPolicy] = None,
        wal_dir: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        wal_fsync_every: int = 8,
        tracer: Optional[Any] = None,
    ) -> None:
        if migration is not None and migrate_every < 1:
            raise ClusterError("migration requires migrate_every >= 1")
        if stats_refresh < 1:
            raise ClusterError("stats_refresh must be >= 1")
        sizes = partition_machines(m, k)
        if k_initial is not None:
            if m % k != 0:
                raise ClusterError(
                    f"m={m} must divide evenly into k={k} shard units "
                    "(elastic shards are fixed-size)"
                )
            if not 1 <= k_initial <= k:
                raise ClusterError("k_initial must be in [1, k]")
        if supervisor is None and (wal_dir or checkpoint_dir or fault_injector):
            raise ClusterError(
                "wal_dir, checkpoint_dir and fault_injector need a supervisor"
            )
        template = config if config is not None else ShardConfig(m=1)
        self.m = int(m)
        self.k = int(k)
        self.mode = mode
        self.router = router if isinstance(router, Router) else make_router(router)
        self.shards: list[ShardHandle] = [
            make_shard(i, template.with_machines(size), mode)
            for i, size in enumerate(sizes)
        ]
        for shard in self.shards:
            if isinstance(shard, ProcessShard):
                shard.rpc = rpc
        self.migration = migration
        self.migrate_every = int(migrate_every)
        self.fault_injector = fault_injector
        if isinstance(supervisor, SupervisorConfig):
            supervisor = ShardSupervisor(supervisor)
        self.supervisor: Optional[ShardSupervisor] = supervisor
        #: whether submissions are logged for recovery
        self._log_submissions = supervisor is not None
        if checkpoint_every is None and self._log_submissions:
            checkpoint_every = 64
        self.checkpoint_every = checkpoint_every
        self.stats_refresh = int(stats_refresh)
        #: per-shard submission logs (the recovery source of truth)
        self.logs: list[Any]
        if wal_dir:
            os.makedirs(wal_dir, exist_ok=True)
            self.logs = [
                WriteAheadLog(
                    os.path.join(wal_dir, f"shard-{i:03d}.wal"),
                    fsync_every=wal_fsync_every,
                )
                for i in range(self.k)
            ]
        else:
            self.logs = [SubmissionLog() for _ in sizes]
        #: per-shard latest in-memory checkpoint: (log index, record);
        #: the record stays encoded until a recovery restores from it
        self.checkpoints: dict[int, tuple[int, ShardCheckpoint]] = {}
        self.store: Optional[CheckpointStore] = (
            CheckpointStore(checkpoint_dir)
            if checkpoint_dir
            else None
        )
        #: transactional steal journal (supervised only; durable beside
        #: the WALs when ``wal_dir`` is given)
        self.steal_journal: Optional[StealJournal] = None
        if supervisor is not None:
            self.steal_journal = StealJournal(
                os.path.join(wal_dir, "steals.txn") if wal_dir else None,
                fsync_every=wal_fsync_every,
            )
        #: per-checkpoint trace-event counts and journal positions, keyed
        #: by (shard, log_index, checkpoint engine time) -- the engine
        #: time tells apart generations that share a log position
        self._trace_marks: dict[tuple[int, int, int], int] = {}
        self._txn_marks: dict[tuple[int, int, int], int] = {}
        self.tracer = tracer
        if tracer is not None and tracer.enabled:
            for shard in self.shards:
                shard.attach_tracer(tracer.for_shard(shard.index))
        self.cluster_metrics = MetricsRegistry()
        self.recoveries: list[RecoveryEvent] = []
        #: jobs shed at the *cluster* level (no healthy shard to admit)
        self.cluster_shed: list[ShedRecord] = []
        #: optional :class:`~repro.cluster.coordinator.Coordinator`;
        #: set by constructing one over this cluster (never directly)
        self.coordinator: Optional[Any] = None
        #: whether the active shard count can change (see scale_to)
        self.elastic = k_initial is not None
        self.k_active = self.k if k_initial is None else int(k_initial)
        #: applied resize steps, in order
        self.scale_events: list[ScaleEvent] = []
        #: unit indices ever activated (dormant units are excluded from
        #: supervision and from the finish drain)
        self._activated: set[int] = set(range(self.k_active))
        if self.elastic:
            self.cluster_metrics.gauge("active_shards").set(self.k_active)
        self._now = 0
        self._started = False
        self._last_checkpoint_t: Optional[int] = None
        self._last_migrate_t = 0
        self._stats_cache: Optional[list[ShardStats]] = None
        self._submits_since_stats = 0
        #: armed chaos state (see the injection surface below)
        self._steal_interrupt: Optional[int] = None
        self._tick_stall = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the active shards up (idempotent).  When submissions
        are logged, an initial cluster checkpoint is taken immediately
        so recovery never has to replay from an empty service."""
        if self._started:
            return
        self.router.reset()
        for shard in self.shards[: self.k_active]:
            shard.start()
        self._started = True
        if self._log_submissions:
            self.checkpoint_all()

    @property
    def now(self) -> int:
        """Cluster clock: the latest submission/advance time seen."""
        return self._now

    @property
    def degraded(self) -> set[int]:
        """Shards the supervisor took out of service for good."""
        return self.supervisor.degraded if self.supervisor is not None else set()

    def submit(self, spec: JobSpec, t: Optional[int] = None) -> int:
        """Route one job to a shard at time ``t`` (default: now).

        Runs the decision-point hooks (checkpoint, fault firing,
        migration, heartbeats) first, then routes and forwards the
        submission.  Returns the chosen shard index, or ``-1`` when a
        supervised cluster has no healthy shard and sheds the job
        itself (recorded in :attr:`cluster_shed`).
        """
        self.start()
        t = self._now if t is None else max(int(t), self._now)
        self._now = t
        coordinator = self.coordinator
        self._hooks(t)
        if coordinator is not None:
            coordinator.before_route(t)
        index = self._route_healthy(spec, self._router_stats())
        if index is None:
            self._shed_at_cluster(spec, t)
            return -1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(t, "route", spec.job_id, {"shard": index})
        self._deliver(index, spec, t)
        if coordinator is not None:
            coordinator.note_route(index, spec, t)
        self.cluster_metrics.counter("routed_total").inc()
        self.cluster_metrics.counter(f"routed_shard_{index}").inc()
        self._submits_since_stats += 1
        if self._stats_cache is not None:
            # optimistic local estimate between refreshes, so a
            # load-aware router doesn't route a whole refresh window's
            # burst to the same frozen minimum
            self._stats_cache[index].queue_depth += 1
        return index

    def advance_to(self, t: int) -> int:
        """Advance every live shard's clock to ``t`` and run hooks."""
        self.start()
        t = max(int(t), self._now)
        self._now = t
        self._hooks(t)
        degraded = self.degraded
        for shard in self.shards:
            if not shard.alive or shard.index in degraded:
                continue
            try:
                shard.advance_to(t)
            except ShardFailedError as exc:
                self.supervise_failure(shard.index, t, exc)
        self._stats_cache = None
        return self._now

    def _submit_key(self, index: int, entry_index: int) -> str:
        """Idempotency key for log entry ``entry_index`` on one shard.

        Derived from the log position alone, so a recovery replay sends
        the *same* key the original delivery did -- the shard dedupes
        and each job is admitted exactly once however many times it is
        sent.
        """
        return f"s{index}e{entry_index}"

    def _deliver(self, index: int, spec: JobSpec, t: int) -> None:
        """Log (when logging) and hand one submission to its shard.

        The log append precedes the delivery, so a delivery failure
        loses nothing: supervised recovery replays the logged entry
        under the same key -- re-sending it here would race the replay.
        """
        key = None
        if self._log_submissions:
            key = self._submit_key(index, self.logs[index].record(t, spec))
        try:
            self.shards[index].submit(spec, t, key=key)
        except ShardFailedError as exc:
            self.supervise_failure(index, t, exc)

    def finish(self) -> ClusterResult:
        """Drain every activated shard in one fence and return the
        merged cluster result.

        A degraded shard is not called and yields an empty result.  A
        shard that fails its drain is recovered and drained again (see
        :meth:`_fence`); a second failure is raised.
        """
        self.start()
        shards = [s for s in self.shards if s.index in self._activated]
        results = []
        for shard, result in zip(shards, self._fence(shards, "finish")):
            if isinstance(result, ShardFailedError):
                raise result
            results.append(
                self._empty_result(shard) if result is None else result
            )
        self._started = False
        for log in self.logs:
            if isinstance(log, WriteAheadLog):
                log.close()
        result = ClusterResult(
            shard_results=results,
            cluster_metrics=self.cluster_metrics,
            recoveries=list(self.recoveries),
        )
        if self.supervisor is not None:
            self.steal_journal.close()
            self._sweep_unresolved(result)
            result.extra["cluster_shed"] = list(self.cluster_shed)
            result.extra["supervision_events"] = list(self.supervisor.events)
            result.extra["degraded_shards"] = sorted(self.supervisor.degraded)
            result.extra["steal_txns"] = self.steal_journal.counts()
        if self.elastic:
            result.extra["scale_events"] = list(self.scale_events)
        return result

    def _empty_result(self, shard: ShardHandle) -> ServiceResult:
        """Stand-in result for a shard degraded out of the run: its
        admitted-but-unfinished work is lost, which the throughput
        retention benchmark measures as the cost of degradation."""
        return ServiceResult(
            result=SimulationResult(
                m=shard.config.m,
                speed=shard.config.speed,
                records={},
                counters=RunCounters(),
                end_time=self._now,
            ),
            shed=[],
            metrics=MetricsRegistry(),
        )

    def profit_so_far(self) -> float:
        """Realized profit across live shards, mid-run.

        The candidate-trial commit decision
        (:class:`~repro.cluster.coordinator.CandidateTrial`) reads this
        to compare shadow schedules on actual outcomes.  In-process
        only: a process-mode read would add one fence per shard for a
        number that shadow execution never needs there.
        """
        if self.mode != "inprocess":
            raise ClusterError(
                "profit_so_far requires an in-process cluster"
            )
        total = 0.0
        for shard in self.shards:
            if shard.alive and shard.service.sim is not None:
                total += shard.service.sim.profit_so_far()
        return total

    def run_stream(self, specs: Iterable[JobSpec]) -> ClusterResult:
        """Drive a whole arrival sequence through the cluster.

        Jobs are submitted in online order ``(arrival, job_id)``; each
        shard's clock advances only with its own submissions, exactly as
        if the router's partition were served by independent services.
        """
        self.start()
        ordered: Sequence[JobSpec] = sorted(
            specs, key=lambda sp: (sp.arrival, sp.job_id)
        )
        for spec in ordered:
            self.submit(spec, t=spec.arrival)
        return self.finish()

    # ------------------------------------------------------------------
    # Shed density and cluster-level sheds
    # ------------------------------------------------------------------
    @cached_property
    def constants(self) -> Constants:
        """The shards' scheduler constants, from the shard template's
        scheduler (epsilon = 1 when it has none, as for
        :class:`~repro.service.service.SchedulingService`)."""
        scheduler = self.shards[0].config.build_scheduler()
        constants = getattr(scheduler, "constants", None)
        return constants if constants is not None else Constants.from_epsilon(1.0)

    def density(self, spec: JobSpec) -> float:
        """Scheduler S's density v_i of ``spec`` on a shard's pool, under
        the shards' own constants -- the key every shed ranks by."""
        config = self.shards[0].config
        return sns_density(spec, config.m, self.constants, config.speed)

    def _shed_at_cluster(self, spec: JobSpec, t: int) -> None:
        """Refuse one job no healthy shard can take.

        Shedding follows the paper's ordering implicitly: per-shard
        queues configured with ``reject-lowest-density`` drop the least
        dense jobs first as surviving shards absorb the diverted load.
        """
        self.cluster_shed.append(
            ShedRecord(
                job_id=spec.job_id,
                time=t,
                reason="no-healthy-shard",
                density=self.density(spec),
                profit=spec.profit,
            )
        )
        self.cluster_metrics.counter("cluster_shed_total").inc()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(t, "submit", spec.job_id, {"outcome": "cluster-shed"})
            tracer.event(
                t,
                "cluster-shed",
                spec.job_id,
                {"reason": "no-healthy-shard", "profit": spec.profit},
            )

    def _sweep_unresolved(self, result: ClusterResult) -> None:
        """Close the job-conservation books at finish.

        Every logged submission must end in exactly one of completed /
        expired / shed (the invariant the chaos auditor checks).  Two
        fault paths legitimately leave a job with no terminal record:
        its shard was *degraded* out of the run (admitted work lost --
        the measured cost of degradation), or it expired *in transit*
        during a steal the journal settled as ``expired``.  Both get a
        synthesized cluster-level shed record here.  A missing job with
        neither explanation is left missing -- masking it would hide a
        real conservation bug from the auditor.
        """
        terminal: set[int] = set()
        for res in result.shard_results:
            terminal.update(res.result.records.keys())
            terminal.update(rec.job_id for rec in res.shed)
        terminal.update(rec.job_id for rec in self.cluster_shed)
        logged: dict[int, JobSpec] = {}
        for log in self.logs:
            for _, spec in log:
                logged.setdefault(spec.job_id, spec)
        degraded = bool(self.degraded)
        for job_id in sorted(set(logged) - terminal):
            txn = self.steal_journal.latest_for_job(job_id)
            if txn is not None and txn.state == "expired":
                reason = "steal-expired"
            elif degraded:
                reason = "degraded-loss"
            else:
                continue
            spec = logged[job_id]
            self.cluster_shed.append(
                ShedRecord(
                    job_id=job_id,
                    time=self._now,
                    reason=reason,
                    density=self.density(spec),
                    profit=spec.profit,
                )
            )
            # not cluster_shed_total: that counts front-door refusals
            # at submit time; these are post-hoc book-closings
            self.cluster_metrics.counter("swept_unresolved_total").inc()

    # ------------------------------------------------------------------
    # Checkpoints and recovery
    # ------------------------------------------------------------------
    def checkpoint_all(self) -> None:
        """Snapshot every live shard in one fan-out fence, anchored to
        its submission-log position (async submissions are fenced by
        the snapshot call).

        Every snapshot that came back is saved first, so each one is
        stored with the journal position it reflects; then each shard
        that failed its snapshot is supervised, in shard order.
        """
        degraded = self.degraded
        live = [
            shard
            for shard in self.shards
            if shard.alive and shard.index not in degraded
        ]
        failures = []
        for shard, checkpoint in zip(live, fan_out(live, "snapshot")):
            if isinstance(checkpoint, ShardFailedError):
                failures.append((shard.index, checkpoint))
            else:
                self._save_checkpoint(
                    shard.index, len(self.logs[shard.index]), checkpoint
                )
        for index, exc in failures:
            self.supervise_failure(index, self._now, exc)
        self._last_checkpoint_t = self._now
        self.cluster_metrics.counter("checkpoints_total").inc()

    def _save_checkpoint(
        self, index: int, log_index: int, checkpoint: ShardCheckpoint
    ) -> None:
        """Store one shard checkpoint and remember, under the
        checkpoint's key, the journal position and trace-event count it
        reflects -- :meth:`recover_shard` truncates the shard's trace to
        that count before replaying, keeping spans exactly-once.

        In memory the encoded record is kept as is; the digest-verified
        store, when one is configured, gets the decoded snapshot."""
        checkpoint_time = checkpoint.t
        mark = (index, log_index, checkpoint_time)
        if self.steal_journal is not None:
            self._txn_marks[mark] = self.steal_journal.seq
        if self.store is not None:
            self.store.save(index, log_index, checkpoint.decode())
        else:
            self.checkpoints[index] = (log_index, checkpoint)
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        self._trace_marks[mark] = tracer.shard_event_count(index)
        tracer.event(
            self._now,
            "checkpoint",
            None,
            {"shard": index, "log_index": log_index, "t": checkpoint_time},
        )

    def _load_checkpoint(
        self, index: int
    ) -> tuple[int, Optional[ShardCheckpoint]]:
        """Latest usable checkpoint for one shard; ``(0, None)`` means
        restart empty and replay the whole log."""
        if self.store is not None:
            log_index, snapshot = self.store.load(index)
            if snapshot is None:
                return 0, None
            return log_index, ShardCheckpoint.encode(snapshot)
        return self.checkpoints.get(index, (0, None))

    def kill_shard(self, index: int) -> None:
        """Crash one shard: live engine/queue/scheduler state is lost."""
        self.shards[index].kill()
        if self.coordinator is not None:
            self.coordinator.invalidate()
        self.cluster_metrics.counter("faults_total").inc()

    def recover_shard(self, index: int, t: int) -> RecoveryEvent:
        """Restore a killed shard from its latest checkpoint and replay
        the submission-log tail; returns the recovery report.

        The restored shard holds exactly the state it had, so the
        router's stats cache stays valid across the restart."""
        started = time.perf_counter()
        log_index, checkpoint = self._load_checkpoint(index)
        checkpoint_time = 0 if checkpoint is None else checkpoint.t
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # drop the crashed shard's post-checkpoint events; the keyed
            # replay below deterministically regenerates them exactly once
            keep = (
                0
                if checkpoint is None
                else self._trace_marks.get(
                    (index, log_index, checkpoint_time), 0
                )
            )
            tracer.truncate_shard(index, keep)
        shard = self.shards[index]
        shard.restore(checkpoint)
        tail = self.logs[index].entries[log_index:]
        for offset, (entry_t, spec) in enumerate(tail, start=log_index):
            shard.submit(spec, entry_t, key=self._submit_key(index, offset))
        if self.coordinator is not None:
            self.coordinator.invalidate()
        self.cluster_metrics.counter("recoveries_total").inc()
        if tracer is not None and tracer.enabled:
            tracer.event(
                t,
                "recovery",
                None,
                {
                    "shard": index,
                    "checkpoint_time": checkpoint_time,
                    "replayed": len(tail),
                },
            )
        event = RecoveryEvent(
            shard=index,
            time=t,
            checkpoint_time=checkpoint_time,
            replayed=len(tail),
            wall_seconds=time.perf_counter() - started,
        )
        self.recoveries.append(event)
        if self.steal_journal is not None:
            self._reconcile_steals(index, t, log_index, checkpoint_time)
        return event

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def supervise_failure(
        self, index: int, t: int, exc: ShardFailedError
    ) -> None:
        """Hand one caught shard failure to the supervisor (restart, or
        degrade); without a supervisor it is re-raised."""
        if self.supervisor is None:
            raise exc
        self.supervisor.handle_failure(self, index, t, reason=exc.reason)

    def supervised_shard_ids(self) -> set[int]:
        """Shards the supervisor heartbeats: every unit ever activated
        (lame ducks included -- they still hold jobs), never the
        dormant tail (a never-started unit fails pings by design)."""
        return set(self._activated)

    def note_supervision(self, event) -> None:
        """Record one supervisor action in telemetry and the trace.

        Called by :meth:`ShardSupervisor.handle_failure` after each
        restart/degrade: bumps the per-shard restart counter, feeds the
        ``restart_seconds`` histogram, and emits a ``supervision`` trace
        event (cluster-level, so recovery truncation never drops it).
        """
        if event.action == "restart":
            self.cluster_metrics.counter(
                f"restarts_shard_{event.shard}"
            ).inc()
            self.cluster_metrics.histogram("restart_seconds").observe(
                event.restart_seconds
            )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                event.time,
                "supervision",
                None,
                {
                    "shard": event.shard,
                    "reason": event.reason,
                    "action": event.action,
                    "restarts": event.restarts,
                },
            )

    def mark_degraded(self, index: int) -> None:
        """Book a shard the supervisor took permanently out of service
        (budget exhausted); routing skips it from now on."""
        self._stats_cache = None
        self.cluster_metrics.counter("degraded_total").inc()

    # ------------------------------------------------------------------
    # Transactional steals (see repro.resilience.transactions)
    # ------------------------------------------------------------------
    def resolve_steal_txns(self, t: int) -> list[dict]:
        """Settle every pending steal transaction to exactly-one
        placement.  Called by the coordinator at the end of each steal
        tick and after an off-tick recovery; a no-op without a journal
        or while a steal tick is still executing (the tick owns its
        in-flight transactions)."""
        journal = self.steal_journal
        if journal is None or journal.in_tick or not journal.pending():
            return []
        outcomes = resolve_pending(journal, self, t)
        if outcomes:
            self.cluster_metrics.counter("steal_txns_resolved_total").inc(
                len(outcomes)
            )
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                for outcome in outcomes:
                    tracer.event(t, "steal-resolve", outcome["job"], outcome)
        return outcomes

    def _reconcile_steals(
        self, index: int, t: int, log_index: int, checkpoint_time: int
    ) -> None:
        """Reconcile a just-restored shard against the steal journal:
        discard resurrected copies of jobs that settled elsewhere,
        re-inject settled arrivals the rolled-back state lost, then
        settle any transactions the crash left in flight."""
        journal = self.steal_journal
        mark = self._txn_marks.get((index, log_index, checkpoint_time), 0)
        repairs = reconcile_shard(journal, self, index, t, since_seq=mark)
        if repairs:
            self.cluster_metrics.counter("steal_reconciles_total").inc(
                len(repairs)
            )
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                for action in repairs:
                    tracer.event(
                        t,
                        "steal-reconcile",
                        action["job"],
                        {"shard": index, "action": action["action"]},
                    )
        self.resolve_steal_txns(t)
        journal.sync()

    # ------------------------------------------------------------------
    # Scaling (elastic clusters)
    # ------------------------------------------------------------------
    def scale_to(self, k: int, t: Optional[int] = None) -> list[ScaleEvent]:
        """Resize the active prefix to ``k`` units, one step at a time.

        Returns the applied :class:`ScaleEvent` steps (empty when ``k``
        equals the current active count).  Raises
        :class:`~repro.errors.ClusterError` on a fixed-``k`` cluster.
        """
        if not self.elastic:
            raise ClusterError(
                "scale_to needs an elastic cluster (pass k_initial)"
            )
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
                self._deliver(index, spec, t)
                moved += 1
        self.k_active = index + 1
        self.cluster_metrics.counter("scale_up_total").inc()
        return self._scaled(t, "up", index, moved)

    def _scale_down_one(self, t: int) -> ScaleEvent:
        """Drain the highest active unit back into the shrunken prefix.

        The drain re-checks shard health first: the victim's queued
        jobs are routed over the live, non-degraded remainder only (see
        :meth:`_route_healthy`), and if no such shard remains -- or the
        victim itself is down -- the drain is skipped and the jobs
        finish on the lame duck (or through its supervised recovery).
        """
        if self.k_active <= 1:
            raise ClusterError("cannot scale below one active shard")
        index = self.k_active - 1
        self.k_active = index
        stats = self._prefix_stats(index + 1)
        victim_stat = stats[index]
        live = [s for s in stats[:index] if s.alive]
        moved = 0
        if live and victim_stat.alive and victim_stat.queue_depth:
            try:
                queued = self.shards[index].take_queued(victim_stat.queue_depth)
            except ShardFailedError as exc:
                # the restored shard keeps its queue as a lame duck
                self.supervise_failure(index, t, exc)
                queued = []
            for spec in queued:
                pick = self._route_healthy(spec, live)
                self._deliver(pick, spec, t)
                stats[pick].queue_depth += 1
                moved += 1
        self.cluster_metrics.counter("scale_down_total").inc()
        return self._scaled(t, "down", index, moved)

    def _scaled(self, t: int, direction: str, shard: int, moved: int) -> ScaleEvent:
        """Book one applied resize step.

        Scale-time moves are logged like any submission; when logging,
        the cluster re-checkpoints so the latest checkpoint postdates
        the move -- otherwise a donor's log replay would resurrect jobs
        that just migrated away.
        """
        if moved:
            self.cluster_metrics.counter("migrations_total").inc(moved)
            if self._log_submissions:
                self.checkpoint_all()
        k_before = shard if direction == "up" else shard + 1
        event = ScaleEvent(
            time=t,
            direction=direction,
            k_before=k_before,
            k_after=self.k_active,
            shard=shard,
            moved=moved,
        )
        self.scale_events.append(event)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                t,
                "migrate",
                None,
                {
                    "scale": direction,
                    "shard": shard,
                    "k": event.k_after,
                    "moved": moved,
                },
            )
        return event

    # ------------------------------------------------------------------
    # Placement, stats and live telemetry
    # ------------------------------------------------------------------
    def _route_healthy(
        self, spec: JobSpec, stats: Sequence[ShardStats]
    ) -> Optional[int]:
        """The shard ``spec`` goes to: the router's pick among the
        shards of ``stats`` that are not degraded, or ``None`` when
        every one is.

        A list with gaps is re-indexed positionally before the router
        sees it, because positional routers (consistent-hash,
        round-robin) index into the list they are given; the pick is
        mapped back to the true shard index."""
        degraded = self.degraded
        healthy = [s for s in stats if s.index not in degraded]
        if not healthy:
            return None
        routed = healthy
        if any(s.index != pos for pos, s in enumerate(healthy)):
            routed = [replace(s, index=pos) for pos, s in enumerate(healthy)]
        pos = self.router.route(spec, routed)
        if not 0 <= pos < len(healthy):
            raise ClusterError(
                f"router returned shard {pos} over {len(healthy)} shards"
            )
        return healthy[pos].index

    def _fence(self, shards: Sequence[ShardHandle], op: str) -> list:
        """Call the synchronous ``op`` on ``shards`` in one fan-out,
        then hand each failure, in shard order, to
        :meth:`supervise_failure` and call the recovered shard again.

        Returns one entry per shard: the reply, ``None`` for a degraded
        shard (never called), or the retry's
        :class:`~repro.errors.ShardFailedError`.  Without a supervisor
        the first failure is raised.  A healthy cluster pays one
        fan-out.
        """
        degraded = self.degraded
        replies = fan_out([s for s in shards if s.index not in degraded], op)
        if degraded:
            called = iter(replies)
            replies = [
                None if s.index in degraded else next(called) for s in shards
            ]
        for i, reply in enumerate(replies):
            if isinstance(reply, ShardFailedError):
                shard = shards[i]
                self.supervise_failure(shard.index, self._now, reply)
                replies[i] = (
                    None
                    if shard.index in degraded
                    else fan_out([shard], op)[0]
                )
        return replies

    def _prefix_stats(self, k: Optional[int] = None) -> list[ShardStats]:
        """Stats for the first ``k`` units (default: the active prefix)
        in one fan-out fence.

        Supervised, the fence recovers a dead or failing shard and reads
        it again before any decision sees the stats, so a restart leaves
        routing as the fault-free run had it.  A degraded shard, a shard
        still failing, or any dead or failing shard of an unsupervised
        cluster reports as a dead placeholder."""
        k = self.k_active if k is None else k
        shards = self.shards[:k]
        if self.supervisor is None:
            return gather_stats(shards)
        return [
            reply
            if isinstance(reply, ShardStats)
            else ShardStats(index=shard.index, m=shard.config.m, alive=False)
            for shard, reply in zip(shards, self._fence(shards, "stats"))
        ]

    def active_stats(self) -> list[ShardStats]:
        """Live stats for the active prefix (the autoscaler's input)."""
        self.start()
        return self._prefix_stats()

    def _router_stats(self) -> list[ShardStats]:
        """Stats for the router, over the active prefix only: exact
        in-process; cached (refreshed at deterministic submission
        indices) in process mode."""
        if self.mode == "inprocess":
            return self._prefix_stats()
        if not self.router.needs_stats:
            return [
                ShardStats(index=s.index, m=s.config.m, alive=s.alive)
                for s in self.shards[: self.k_active]
            ]
        if (
            self._stats_cache is None
            or self._submits_since_stats >= self.stats_refresh
        ):
            self._stats_cache = self._prefix_stats()
            self._submits_since_stats = 0
        return self._stats_cache

    def live_registries(self) -> list[MetricsRegistry]:
        """The registries the mid-run roll-up reads, in merge order:
        every live in-process shard's, then :attr:`cluster_metrics`.

        Returned in place, not copied -- the gateway's KPI tick reads
        them directly instead of merging them every tick.  Process-mode
        shards keep their registries worker-side and are absent; their
        totals appear in the final :class:`ClusterResult` instead.
        """
        registries = [
            shard.service.metrics
            for shard in self.shards
            if shard.alive and isinstance(shard, InProcessShard)
        ]
        registries.append(self.cluster_metrics)
        return registries

    def live_metrics(self) -> MetricsRegistry:
        """Mid-run cluster telemetry roll-up (in-process shards only).

        Merges :meth:`live_registries` -- counters, gauges *and*
        histograms, so p99 admission latency comes from the same
        :class:`~repro.service.telemetry.MetricsRegistry` path the
        final result uses -- into one fresh registry.
        """
        return merge_registries(self.live_registries())

    # ------------------------------------------------------------------
    # Decision-point hooks
    # ------------------------------------------------------------------
    def _hooks(self, t: int) -> None:
        """Decision-point hooks, in recovery-safe order: checkpoint,
        fire chaos faults, migrate (migration re-checkpoints),
        heartbeat."""
        if (
            self.checkpoint_every is not None
            and self._last_checkpoint_t is not None
            and t - self._last_checkpoint_t >= self.checkpoint_every
        ):
            self.checkpoint_all()
        if self.fault_injector:
            self.fault_injector.maybe_fire(self, t)
        if (
            self.migration is not None
            and t - self._last_migrate_t >= self.migrate_every
        ):
            self._rebalance(t)
            self._last_migrate_t = t
        if self.supervisor is not None:
            self.supervisor.tick(self, t)

    def _rebalance(self, t: int) -> None:
        """Apply one migration tick at cluster time ``t``."""
        moved = 0
        tracer = self.tracer
        emit = tracer is not None and tracer.enabled
        for move in self.migration.plan(self._prefix_stats()):
            for spec in self.shards[move.src].take_queued(move.n):
                if emit:
                    tracer.event(
                        t,
                        "migrate",
                        spec.job_id,
                        {"src": move.src, "dst": move.dst},
                    )
                self._deliver(move.dst, spec, t)
                moved += 1
        if moved:
            self.cluster_metrics.counter("migrations_total").inc(moved)
            self._stats_cache = None
            # keep the recovery invariant: the latest checkpoint must
            # postdate the migration, or a log replay would resurrect
            # jobs that migrated away
            if self._log_submissions:
                self.checkpoint_all()

    # ------------------------------------------------------------------
    # Chaos injection surface (see repro.resilience.chaos)
    # ------------------------------------------------------------------
    def inject_crash(self, index: int) -> None:
        """Kill one shard outright; detection is the next delivery,
        fence, or heartbeat."""
        self.kill_shard(index)

    def inject_hang(self, index: int, seconds: float = 30.0) -> None:
        """Make one shard unresponsive without killing it."""
        shard = self.shards[index]
        if isinstance(shard, ProcessShard):
            shard.hang(seconds)
        elif isinstance(shard, InProcessShard):
            shard.chaos_hung = True
        self.cluster_metrics.counter("faults_total").inc()

    def inject_slow(self, index: int, seconds: float = 0.05) -> None:
        """Stall one process shard's worker for ``seconds`` without
        changing its state; an in-process shard has no RPC to slow, so
        this is a no-op there."""
        shard = self.shards[index]
        if isinstance(shard, ProcessShard):
            shard.hang(seconds)

    def inject_pipe_drop(self, index: int) -> None:
        """Sever one shard's command channel mid-run."""
        self.shards[index].drop_pipe()
        self.cluster_metrics.counter("faults_total").inc()

    def inject_corrupt_checkpoint(self, index: int) -> None:
        """Corrupt the shard's newest checkpoint, then crash it, so the
        recovery path must fall back (previous generation, or an empty
        restore plus full-log replay)."""
        if self.store is not None:
            self.store.corrupt_latest(index)
        else:
            self.checkpoints.pop(index, None)
        self.kill_shard(index)

    def inject_steal_interrupt(self, index: int) -> None:
        """Arm a crash of shard ``index`` *between* the two phases of
        the next steal tick -- after the extractions, before any
        injection -- the exact window where jobs exist only in transit
        and the transaction journal is the sole source of truth."""
        self._steal_interrupt = int(index)
        self.cluster_metrics.counter("faults_total").inc()

    def consume_steal_interrupt(self) -> Optional[int]:
        """One-shot read of the armed steal interrupt (coordinator
        hook, called between extract and inject phases)."""
        target, self._steal_interrupt = self._steal_interrupt, None
        return target

    def inject_scale_during_crash(self, index: int) -> None:
        """Crash shard ``index`` and immediately drive a scale step
        while it is down, racing supervised recovery against the
        resize.  On a fixed-``k`` cluster this is a plain crash."""
        self.kill_shard(index)
        if self.elastic:
            k = self.k_active
            target = k - 1 if k > 1 else k + 1
            self.scale_to(max(1, min(self.k, target)))

    def inject_ledger_partition(self, submissions: int = 8) -> None:
        """Partition the coordinator from shard state: the band ledger
        goes stale and refreshes/steals are suppressed for the next
        ``submissions`` routing decisions (degraded anchor-only
        routing)."""
        if self.coordinator is not None:
            self.coordinator.partition(submissions)
        self.cluster_metrics.counter("faults_total").inc()

    def inject_tick_stall(self, ticks: int = 1) -> None:
        """Stall the driving loop: the gateway skips dispatch+advance
        for the next ``ticks`` ticks while arrivals keep buffering
        (harmless no-op without a gateway consuming the counter)."""
        self._tick_stall += int(ticks)
        self.cluster_metrics.counter("faults_total").inc()

    def consume_tick_stall(self) -> bool:
        """One-shot per-tick read of the stall counter (gateway hook)."""
        if self._tick_stall > 0:
            self._tick_stall -= 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"t={self._now}" if self._started else "idle"
        return (
            f"ClusterService(m={self.m}, k={self.k}, "
            f"k_active={self.k_active}, mode={self.mode}, "
            f"router={self.router.name}, {state}, "
            f"degraded={sorted(self.degraded)})"
        )
