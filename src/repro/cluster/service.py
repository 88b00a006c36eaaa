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

On top of placement the cluster provides:

* **migration** -- a :class:`~repro.cluster.migration.MigrationPolicy`
  periodically moves queued-but-unstarted jobs from overloaded to idle
  shards (off by default; determinism vs. independent per-shard runs is
  only pinned with migration off);
* **fault recovery** -- with a
  :class:`~repro.cluster.faults.FaultInjector` attached, shards are
  periodically checkpointed and every submission is logged, so a killed
  shard is restored from its latest checkpoint plus a log-tail replay
  with zero admitted jobs lost (:mod:`repro.cluster.faults`);
* **telemetry roll-up** -- per-shard registries merge into one cluster
  view (:func:`repro.service.telemetry.merge_registries`), alongside
  cluster-level counters (routed/migrated/recovered).

With the consistent-hash router and migration off, a k-shard in-process
cluster run over a fixed trace is *bit-identical* (per-job records and
profit) to k independent service runs over the router's partition of
that trace -- the determinism property the cluster tests pin down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Union

from repro.cluster.config import ShardConfig, partition_machines
from repro.cluster.faults import FaultInjector, RecoveryEvent
from repro.cluster.migration import MigrationPolicy
from repro.cluster.router import Router, ShardStats, make_router
from repro.cluster.shard import ShardHandle, fan_out, gather_stats, make_shard
from repro.errors import ClusterError, ShardFailedError
from repro.service.replay import SubmissionLog
from repro.service.service import ServiceResult, ShedRecord
from repro.service.telemetry import MetricsRegistry, merge_registries
from repro.sim.jobs import CompletionRecord, JobSpec


@dataclass
class ClusterResult:
    """Everything a finished cluster run reports."""

    #: per-shard service results, in shard order
    shard_results: list[ServiceResult]
    #: cluster-level counters (routed/migrated/recovered totals)
    cluster_metrics: MetricsRegistry
    #: executed kill-and-recover events, in firing order
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


class ClusterService:
    """Sharded online scheduling over ``k`` machine-pool shards.

    Parameters
    ----------
    m:
        Total machines, split across shards by
        :func:`~repro.cluster.config.partition_machines`.
    k:
        Number of shards.
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
        Optional :class:`~repro.cluster.faults.FaultInjector`; enables
        checkpointing + submission logging for recovery.
    checkpoint_every:
        Simulated-time interval between cluster-wide checkpoints
        (default 64 when fault injection is on).
    stats_refresh:
        In ``"process"`` mode, submissions between synchronous stats
        refreshes for stats-hungry routers (lower = fresher = slower).
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
        config: Optional[ShardConfig] = None,
        router: Union[Router, str] = "consistent-hash",
        mode: str = "inprocess",
        migration: Optional[MigrationPolicy] = None,
        migrate_every: int = 0,
        fault_injector: Optional[FaultInjector] = None,
        checkpoint_every: Optional[int] = None,
        stats_refresh: int = 32,
        tracer: Optional[Any] = None,
    ) -> None:
        if migration is not None and migrate_every < 1:
            raise ClusterError("migration requires migrate_every >= 1")
        if stats_refresh < 1:
            raise ClusterError("stats_refresh must be >= 1")
        sizes = partition_machines(m, k)
        template = config if config is not None else ShardConfig(m=1)
        self.m = int(m)
        self.k = int(k)
        self.mode = mode
        self.router = router if isinstance(router, Router) else make_router(router)
        self.shards: list[ShardHandle] = [
            make_shard(i, template.with_machines(size), mode)
            for i, size in enumerate(sizes)
        ]
        self.migration = migration
        self.migrate_every = int(migrate_every)
        self.fault_injector = fault_injector
        if checkpoint_every is None and fault_injector is not None:
            checkpoint_every = 64
        self.checkpoint_every = checkpoint_every
        self.stats_refresh = int(stats_refresh)
        #: per-shard submission logs (the recovery source of truth);
        #: the resilient subclass swaps these for durable WALs
        self.logs: list[SubmissionLog] = [SubmissionLog() for _ in sizes]
        #: whether submissions are logged for recovery (the resilient
        #: subclass forces this on even without a fault injector)
        self._log_submissions = fault_injector is not None
        #: per-shard latest checkpoint: (log index, snapshot dict)
        self.checkpoints: dict[int, tuple[int, dict[str, Any]]] = {}
        self.tracer = tracer
        #: shard-event counts at checkpoint time, keyed by
        #: (shard, log_index, checkpoint engine time) -- see
        #: :meth:`_note_trace_mark`
        self._trace_marks: dict[tuple[int, int, int], int] = {}
        if tracer is not None and tracer.enabled:
            for shard in self.shards:
                shard.attach_tracer(tracer.for_shard(shard.index))
        self.cluster_metrics = MetricsRegistry()
        self.recoveries: list[RecoveryEvent] = []
        #: optional :class:`~repro.cluster.coordinator.Coordinator`;
        #: set by constructing one over this cluster (never directly)
        self.coordinator: Optional[Any] = None
        self._now = 0
        self._started = False
        self._last_checkpoint_t: Optional[int] = None
        self._last_migrate_t = 0
        self._stats_cache: Optional[list[ShardStats]] = None
        self._submits_since_stats = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring every shard up (idempotent).  With fault injection on,
        an initial cluster checkpoint is taken immediately so recovery
        never has to replay from an empty service."""
        if self._started:
            return
        self.router.reset()
        for shard in self.shards:
            shard.start()
        self._started = True
        if self.fault_injector is not None:
            self.checkpoint_all()

    @property
    def now(self) -> int:
        """Cluster clock: the latest submission/advance time seen."""
        return self._now

    def submit(self, spec: JobSpec, t: Optional[int] = None) -> int:
        """Route one job to a shard at time ``t`` (default: now).

        Runs the decision-point hooks (checkpoint, fault firing,
        migration) first, then routes and forwards the submission.
        Returns the chosen shard index.
        """
        self.start()
        t = self._now if t is None else max(int(t), self._now)
        self._now = t
        self._hooks(t)
        coordinator = self.coordinator
        if coordinator is not None:
            coordinator.before_route(t)
        index = self.router.route(spec, self._router_stats())
        if not 0 <= index < self.k:
            raise ClusterError(
                f"router returned shard {index} (k={self.k})"
            )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.event(t, "route", spec.job_id, {"shard": index})
        key = None
        if self._log_submissions:
            entry_index = self.logs[index].record(t, spec)
            key = self._submit_key(index, entry_index)
        self._deliver(index, spec, t, key=key)
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
        for shard in self.shards:
            if shard.alive:
                shard.advance_to(t)
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

    def _deliver(self, index: int, spec: JobSpec, t: int, key=None) -> None:
        """Hand one (already logged) submission to its shard.

        Runs *after* the log append, so a delivery failure loses
        nothing: recovery replays the logged entry under the same key.
        The resilient subclass overrides this to catch shard failures
        and trigger supervised recovery.
        """
        self.shards[index].submit(spec, t, key=key)

    def finish(self) -> ClusterResult:
        """Drain every shard and return the merged cluster result.

        The drain decomposes into overridable hooks so the elastic and
        resilient variants (and their composition) change *policy* --
        which shards drain, how a drain failure is handled, what extra
        accounting rides on the result -- without re-implementing the
        drain itself.
        """
        self.start()
        results = self._drain(
            [shard for shard in self.shards if self._drainable(shard)]
        )
        self._started = False
        self._close_logs()
        result = ClusterResult(
            shard_results=results,
            cluster_metrics=self.cluster_metrics,
            recoveries=list(self.recoveries),
        )
        self._annotate_result(result)
        return result

    def _drainable(self, shard) -> bool:
        """Whether ``shard`` contributes a result at finish."""
        return True

    def _drain(self, shards: list[ShardHandle]) -> list[ServiceResult]:
        """Drain ``shards`` in one :func:`~repro.cluster.shard.fan_out`
        fence; the first failure, in shard order, is raised after the
        gather (overridden for supervised drains)."""
        results = fan_out(shards, "finish")
        for result in results:
            if isinstance(result, ShardFailedError):
                raise result
        return results

    def _close_logs(self) -> None:
        """Release submission-log resources (durable WALs override)."""

    def _annotate_result(self, result: ClusterResult) -> None:
        """Attach variant-specific extras to the merged result."""

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
    # Fault handling (called by the FaultInjector)
    # ------------------------------------------------------------------
    def checkpoint_all(self) -> None:
        """Snapshot every live shard in one fan-out fence, anchored to
        its submission-log position (async submissions are fenced by
        the snapshot call)."""
        live = [shard for shard in self.shards if shard.alive]
        for shard, snapshot in zip(live, fan_out(live, "snapshot")):
            if isinstance(snapshot, ShardFailedError):
                raise snapshot
            self._save_checkpoint(
                shard.index, len(self.logs[shard.index]), snapshot
            )
        self._last_checkpoint_t = self._now
        self.cluster_metrics.counter("checkpoints_total").inc()

    def _save_checkpoint(
        self, index: int, log_index: int, snapshot: dict[str, Any]
    ) -> None:
        """Store one shard checkpoint (in memory here; the resilient
        subclass persists it through a digest-verified store)."""
        self.checkpoints[index] = (log_index, snapshot)
        self._note_trace_mark(index, log_index, snapshot)

    def _note_trace_mark(
        self, index: int, log_index: int, snapshot: dict[str, Any]
    ) -> None:
        """Remember how many shard-tagged trace events exist right now.

        Keyed by ``(shard, log_index, checkpoint engine time)`` -- the
        engine time disambiguates checkpoint generations that share a
        log position (no submissions in between), so a corrupt-latest
        fallback to the previous generation finds *that* generation's
        own mark.  :meth:`recover_shard` truncates the shard's trace to
        the mark before replaying, keeping spans exactly-once.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        checkpoint_time = int(snapshot["engine"]["t"])
        self._trace_marks[(index, log_index, checkpoint_time)] = (
            tracer.shard_event_count(index)
        )
        tracer.event(
            self._now,
            "checkpoint",
            None,
            {"shard": index, "log_index": log_index, "t": checkpoint_time},
        )

    def _load_checkpoint(self, index: int) -> tuple[int, Optional[dict[str, Any]]]:
        """Latest usable checkpoint for one shard; ``(0, None)`` means
        restart empty and replay the whole log."""
        return self.checkpoints.get(index, (0, None))

    def kill_shard(self, index: int) -> None:
        """Crash one shard: live engine/queue/scheduler state is lost."""
        self.shards[index].kill()
        self._stats_cache = None
        if self.coordinator is not None:
            self.coordinator.invalidate()
        self.cluster_metrics.counter("faults_total").inc()

    def recover_shard(self, index: int, t: int) -> RecoveryEvent:
        """Restore a killed shard from its latest checkpoint and replay
        the submission-log tail; returns the recovery report."""
        started = time.perf_counter()
        log_index, snapshot = self._load_checkpoint(index)
        checkpoint_time = 0 if snapshot is None else int(snapshot["engine"]["t"])
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # drop the crashed shard's post-checkpoint events; the keyed
            # replay below deterministically regenerates them exactly once
            keep = (
                0
                if snapshot is None
                else self._trace_marks.get(
                    (index, log_index, checkpoint_time), 0
                )
            )
            tracer.truncate_shard(index, keep)
        shard = self.shards[index]
        shard.restore(snapshot)
        tail = self.logs[index].entries[log_index:]
        for offset, (entry_t, spec) in enumerate(tail, start=log_index):
            shard.submit(spec, entry_t, key=self._submit_key(index, offset))
        self._stats_cache = None
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
        self._post_recover(index, t, log_index, checkpoint_time)
        return event

    def _post_recover(
        self, index: int, t: int, log_index: int, checkpoint_time: int
    ) -> None:
        """Hook after a shard restore+replay (the resilient cluster
        reconciles the recovered shard against the steal journal)."""

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _hooks(self, t: int) -> None:
        """Decision-point hooks, in recovery-safe order: checkpoint,
        fire faults, then migrate (migration re-checkpoints)."""
        if (
            self.checkpoint_every is not None
            and self._last_checkpoint_t is not None
            and t - self._last_checkpoint_t >= self.checkpoint_every
        ):
            self.checkpoint_all()
        if self.fault_injector is not None:
            self.fault_injector.maybe_fire(self, t)
        if (
            self.migration is not None
            and t - self._last_migrate_t >= self.migrate_every
        ):
            self._rebalance(t)
            self._last_migrate_t = t

    def _rebalance(self, t: int) -> None:
        """Apply one migration tick at cluster time ``t``."""
        stats = self._live_stats()
        moved = 0
        tracer = self.tracer
        emit = tracer is not None and tracer.enabled
        for move in self.migration.plan(stats):
            for spec in self.shards[move.src].take_queued(move.n):
                if emit:
                    tracer.event(
                        t,
                        "migrate",
                        spec.job_id,
                        {"src": move.src, "dst": move.dst},
                    )
                key = None
                if self._log_submissions:
                    entry_index = self.logs[move.dst].record(t, spec)
                    key = self._submit_key(move.dst, entry_index)
                self._deliver(move.dst, spec, t, key=key)
                moved += 1
        if moved:
            self.cluster_metrics.counter("migrations_total").inc(moved)
            self._stats_cache = None
            # keep the recovery invariant: the latest checkpoint must
            # postdate the migration, or a log replay would resurrect
            # jobs that migrated away
            if self.fault_injector is not None:
                self.checkpoint_all()

    def _router_stats(self) -> list[ShardStats]:
        """Stats for the router: exact in-process; cached (refreshed at
        deterministic submission indices) in process mode."""
        needs_stats = getattr(self.router, "needs_stats", True)
        if self.mode == "inprocess" or not needs_stats:
            if self.mode == "inprocess":
                return self._live_stats()
            return self._static_stats()
        if (
            self._stats_cache is None
            or self._submits_since_stats >= self.stats_refresh
        ):
            self._stats_cache = self._live_stats()
            self._submits_since_stats = 0
        return self._stats_cache

    def _live_stats(self) -> list[ShardStats]:
        return gather_stats(self.shards, strict=True)

    def _static_stats(self) -> list[ShardStats]:
        return [
            ShardStats(index=shard.index, m=shard.config.m, alive=shard.alive)
            for shard in self.shards
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"t={self._now}" if self._started else "idle"
        return (
            f"ClusterService(m={self.m}, k={self.k}, mode={self.mode}, "
            f"router={self.router.name}, {state})"
        )
