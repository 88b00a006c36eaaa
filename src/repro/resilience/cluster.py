"""The resilient cluster: supervised shards behind circuit breakers.

:class:`ResilientClusterService` is :class:`~repro.cluster.service.
ClusterService` with the full resilience stack wired through it:

* every shard RPC is bounded by an :class:`~repro.resilience.rpc.
  RpcPolicy` (deadlines, bounded retries, at-most-once execution);
* submissions are always logged -- durably, when ``wal_dir`` is given,
  through :class:`~repro.resilience.wal.WriteAheadLog` -- and carry
  idempotency keys derived from their log position;
* a :class:`~repro.resilience.supervisor.ShardSupervisor` heartbeats
  the shards and restarts crashed or hung ones from the latest
  checkpoint plus a keyed log-tail replay, under an exponential-backoff
  restart budget;
* checkpoints persist through a digest-verified
  :class:`~repro.resilience.checkpoints.CheckpointStore` when
  ``checkpoint_dir`` is given, with automatic fallback to the previous
  generation on corruption;
* routing goes through a :class:`~repro.resilience.breaker.
  CircuitBreakerRouter` -- a shard that keeps failing is routed around,
  and a shard whose restart budget is spent is *degraded*: forced open,
  served around, and reported as an empty shard result rather than an
  exception (``on_exhausted="degrade"``).

The invariant everything hangs on: **the log append happens before the
delivery**.  A delivery that fails mid-flight therefore loses nothing
-- supervised recovery restores the shard and replays the logged tail
under the same idempotency keys, admitting every logged job exactly
once.  The chaos suite (:mod:`repro.resilience.chaos`) pins that a
faulted run's completed records and profit are bit-identical to the
fault-free run.

The class also hosts the chaos injection surface (``inject_*``) so the
harness can trigger each fault class through one interface in both
cluster modes.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Union

from repro.cluster.config import ShardConfig
from repro.cluster.faults import FaultInjector
from repro.cluster.migration import MigrationPolicy
from repro.cluster.router import Router, ShardStats
from repro.cluster.service import ClusterResult, ClusterService
from repro.cluster.shard import (
    InProcessShard,
    ProcessShard,
    ShardHandle,
    fan_out,
    gather_stats,
)
from repro.core.theory import Constants
from repro.errors import NoHealthyShardError, ShardFailedError
from repro.resilience.breaker import BreakerConfig, CircuitBreakerRouter
from repro.resilience.checkpoints import CheckpointStore
from repro.resilience.rpc import DEFAULT_RPC_POLICY, RpcPolicy
from repro.resilience.supervisor import ShardSupervisor, SupervisorConfig
from repro.resilience.transactions import (
    StealJournal,
    reconcile_shard,
    resolve_pending,
)
from repro.resilience.wal import WriteAheadLog
from repro.service.queue import sns_density
from repro.service.service import ServiceResult, ShedRecord
from repro.service.telemetry import MetricsRegistry
from repro.sim.engine import RunCounters, SimulationResult
from repro.sim.jobs import JobSpec


class ResilientClusterService(ClusterService):
    """Sharded serving that survives crashes, hangs, and corruption.

    Parameters (on top of :class:`~repro.cluster.service.
    ClusterService`)
    ----------
    supervisor:
        A :class:`~repro.resilience.supervisor.ShardSupervisor`, a
        :class:`~repro.resilience.supervisor.SupervisorConfig`, or
        ``None`` for the default supervisor.
    breaker:
        Per-shard :class:`~repro.resilience.breaker.BreakerConfig`
        (default thresholds are deliberately high enough that isolated
        supervised faults never trip a breaker -- tripping is for
        *sustained* failure).
    rpc:
        :class:`~repro.resilience.rpc.RpcPolicy` applied to every
        process-mode shard (``None`` restores blocking RPC).
    wal_dir:
        Directory for per-shard durable WALs; ``None`` keeps the
        in-memory submission logs.
    checkpoint_dir:
        Directory for the digest-verified checkpoint store; ``None``
        keeps checkpoints in memory.
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
        supervisor: Union[ShardSupervisor, SupervisorConfig, None] = None,
        breaker: Optional[BreakerConfig] = None,
        rpc: Optional[RpcPolicy] = DEFAULT_RPC_POLICY,
        wal_dir: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_keep: int = 2,
        wal_fsync_every: int = 8,
        tracer: Optional[Any] = None,
    ) -> None:
        super().__init__(
            m,
            k,
            config=config,
            router=router,
            mode=mode,
            migration=migration,
            migrate_every=migrate_every,
            fault_injector=fault_injector,
            checkpoint_every=checkpoint_every,
            stats_refresh=stats_refresh,
            tracer=tracer,
        )
        # recovery machinery is always on, injector or not
        self._log_submissions = True
        if self.checkpoint_every is None:
            self.checkpoint_every = 64
        if isinstance(supervisor, ShardSupervisor):
            self.supervisor = supervisor
        else:
            self.supervisor = ShardSupervisor(supervisor)
        self.breaker_router = CircuitBreakerRouter(self.router, breaker)
        self.router = self.breaker_router
        self.rpc = rpc
        for shard in self.shards:
            if isinstance(shard, ProcessShard):
                shard.rpc = rpc
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
            self.logs = [
                WriteAheadLog(
                    os.path.join(wal_dir, f"shard-{i:03d}.wal"),
                    fsync_every=wal_fsync_every,
                )
                for i in range(self.k)
            ]
        self.store: Optional[CheckpointStore] = (
            CheckpointStore(checkpoint_dir, keep=checkpoint_keep)
            if checkpoint_dir is not None
            else None
        )
        #: transactional steal journal (durable beside the WALs when
        #: ``wal_dir`` is given, in-memory otherwise); always on and
        #: decision-free, so fault-free runs stay bit-identical
        self.steal_journal = StealJournal(
            os.path.join(wal_dir, "steals.txn") if wal_dir is not None else None,
            fsync_every=wal_fsync_every,
        )
        #: journal sequence at checkpoint time, keyed like the trace
        #: marks by (shard, log_index, checkpoint engine time): lets a
        #: recovery skip repairing moves the restored state already
        #: reflects (see :func:`~repro.resilience.transactions.
        #: reconcile_shard`)
        self._txn_marks: dict[tuple[int, int, int], int] = {}
        #: armed chaos state (see the injection surface below)
        self._steal_interrupt: Optional[int] = None
        self._tick_stall = 0
        #: jobs shed at the *cluster* level (no healthy shard to admit)
        self.cluster_shed: list[ShedRecord] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the shards up and always take the initial checkpoint
        (recovery must never have to guess)."""
        if self._started:
            return
        super().start()
        if self.fault_injector is None:
            self.checkpoint_all()

    def submit(self, spec: JobSpec, t: Optional[int] = None) -> int:
        """Route one job; shed it cluster-side when no shard is healthy.

        Returns the chosen shard index, or ``-1`` for a cluster-level
        shed (recorded in :attr:`cluster_shed`).  Shedding follows the
        paper's ordering implicitly: per-shard queues configured with
        ``reject-lowest-density`` drop the least dense jobs first as
        surviving shards absorb the diverted load.
        """
        try:
            return super().submit(spec, t)
        except NoHealthyShardError:
            at = self._now if t is None else max(int(t), self._now)
            template = self.shards[0].config
            self.cluster_shed.append(
                ShedRecord(
                    job_id=spec.job_id,
                    time=at,
                    reason="no-healthy-shard",
                    density=sns_density(
                        spec,
                        template.m,
                        Constants.from_epsilon(1.0),
                        template.speed,
                    ),
                    profit=spec.profit,
                )
            )
            self.cluster_metrics.counter("cluster_shed_total").inc()
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.event(
                    at, "submit", spec.job_id, {"outcome": "cluster-shed"}
                )
                tracer.event(
                    at,
                    "cluster-shed",
                    spec.job_id,
                    {"reason": "no-healthy-shard", "profit": spec.profit},
                )
            return -1

    def advance_to(self, t: int) -> int:
        """Advance live shards, supervising any failure en route."""
        self.start()
        t = max(int(t), self._now)
        self._now = t
        self._hooks(t)
        for shard in self.shards:
            if not shard.alive or shard.index in self.supervisor.degraded:
                continue
            try:
                shard.advance_to(t)
            except ShardFailedError as exc:
                self._supervise_failure(shard.index, t, exc)
        self._stats_cache = None
        return self._now

    def _drain(self, shards: list[ShardHandle]) -> list[ServiceResult]:
        """Drain the shards in one fence; a degraded shard is not
        called and yields an empty result.

        A shard that fails its drain gets, after the gather, one
        supervised recovery and a second drain attempt; if the budget
        is already spent, the degrade policy decides (empty result or
        raise).
        """
        degraded = self.supervisor.degraded
        fenced = [shard for shard in shards if shard.index not in degraded]
        replies = dict(
            zip([shard.index for shard in fenced], fan_out(fenced, "finish"))
        )
        results = []
        for shard in shards:
            result = replies.get(shard.index)
            if isinstance(result, ShardFailedError):
                self._supervise_failure(shard.index, self._now, result)
                result = (
                    None if shard.index in degraded else shard.finish()
                )
            results.append(
                self._empty_result(shard) if result is None else result
            )
        return results

    def _close_logs(self) -> None:
        for log in self.logs:
            close = getattr(log, "close", None)
            if close is not None:
                close()
        self.steal_journal.close()

    def _annotate_result(self, result: ClusterResult) -> None:
        super()._annotate_result(result)
        self._sweep_unresolved(result)
        result.extra["cluster_shed"] = list(self.cluster_shed)
        result.extra["supervision_events"] = list(self.supervisor.events)
        result.extra["degraded_shards"] = sorted(self.supervisor.degraded)
        result.extra["steal_txns"] = self.steal_journal.counts()

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
        missing = sorted(set(logged) - terminal)
        if not missing:
            return
        degraded = bool(self.supervisor.degraded)
        template = self.shards[0].config
        for job_id in missing:
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
                    density=sns_density(
                        spec,
                        template.m,
                        Constants.from_epsilon(1.0),
                        template.speed,
                    ),
                    profit=spec.profit,
                )
            )
            # not cluster_shed_total: that counts front-door refusals
            # at submit time; these are post-hoc book-closings
            self.cluster_metrics.counter("swept_unresolved_total").inc()

    def _empty_result(self, shard) -> ServiceResult:
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

    # ------------------------------------------------------------------
    # Supervised failure paths
    # ------------------------------------------------------------------
    def _supervise_failure(self, index: int, t: int, exc: ShardFailedError):
        """Route one caught shard failure through breaker + supervisor."""
        self.breaker_router.breaker(index).record_failure(t)
        self._stats_cache = None
        return self.supervisor.handle_failure(self, index, t, reason=exc.reason)

    def _deliver(self, index: int, spec: JobSpec, t: int, key=None) -> None:
        """Deliver one logged submission, recovering the shard on
        failure.

        No explicit re-delivery happens here: the entry is already in
        the log *before* delivery, so the supervised recovery's keyed
        tail replay admits it (exactly once) on the same shard --
        re-sending it ourselves would race the replay.
        """
        try:
            super()._deliver(index, spec, t, key=key)
            self.breaker_router.breaker(index).record_success(t)
        except ShardFailedError as exc:
            self._supervise_failure(index, t, exc)

    def checkpoint_all(self) -> None:
        """Checkpoint live shards in one fan-out fence.

        Every snapshot that came back is saved first, so each one is
        stored with the journal position it reflects; then each shard
        that failed its snapshot is recovered, in shard order (and
        checkpointed on the next round).
        """
        degraded = self.supervisor.degraded
        live = [
            shard
            for shard in self.shards
            if shard.alive and shard.index not in degraded
        ]
        failures = []
        for shard, snapshot in zip(live, fan_out(live, "snapshot")):
            if isinstance(snapshot, ShardFailedError):
                failures.append((shard.index, snapshot))
            else:
                self._save_checkpoint(
                    shard.index, len(self.logs[shard.index]), snapshot
                )
        for index, exc in failures:
            self._supervise_failure(index, self._now, exc)
        self._last_checkpoint_t = self._now
        self.cluster_metrics.counter("checkpoints_total").inc()

    def _save_checkpoint(
        self, index: int, log_index: int, snapshot: dict[str, Any]
    ) -> None:
        # remember the journal position this snapshot reflects, so a
        # restore knows which settled steals are already baked in
        self._txn_marks[
            (index, log_index, int(snapshot["engine"]["t"]))
        ] = self.steal_journal.seq
        if self.store is not None:
            self.store.save(index, log_index, snapshot)
            self._note_trace_mark(index, log_index, snapshot)
        else:
            super()._save_checkpoint(index, log_index, snapshot)

    def _load_checkpoint(self, index: int) -> tuple[int, Optional[dict[str, Any]]]:
        if self.store is not None:
            return self.store.load(index)
        return super()._load_checkpoint(index)

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
        """Take a shard permanently out of service (budget exhausted):
        force its breaker open so routing never sees it again."""
        self.breaker_router.breaker(index).force_open()
        self._stats_cache = None
        self.cluster_metrics.counter("degraded_total").inc()

    # ------------------------------------------------------------------
    # Transactional steals (see repro.resilience.transactions)
    # ------------------------------------------------------------------
    def resolve_steal_txns(self, t: int) -> list[dict]:
        """Settle every pending steal transaction to exactly-one
        placement.  Called by the coordinator at the end of each steal
        tick and by :meth:`_post_recover` after an off-tick recovery;
        a no-op while a steal tick is still executing (the tick owns
        its in-flight transactions)."""
        journal = self.steal_journal
        if journal.in_tick or not journal.pending():
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

    def _post_recover(
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

    def _hooks(self, t: int) -> None:
        self.breaker_router.now = t
        super()._hooks(t)
        self.supervisor.tick(self, t)

    def _live_stats(self) -> list[ShardStats]:
        """Per-shard stats that tolerate a failing shard (reported as
        dead; the supervisor deals with it on its own cadence)."""
        return gather_stats(self.shards, skip=self.supervisor.degraded)

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
        """Add latency to one shard without changing its state."""
        shard = self.shards[index]
        if isinstance(shard, ProcessShard):
            shard.hang(seconds)
        elif isinstance(shard, InProcessShard):
            shard.chaos_latency = seconds

    def inject_pipe_drop(self, index: int) -> None:
        """Sever one shard's command channel mid-run."""
        self.shards[index].drop_pipe()
        self._stats_cache = None
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
        resize.  On a non-elastic cluster this degenerates to a plain
        crash."""
        self.kill_shard(index)
        if hasattr(self, "scale_to"):
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
        return (
            f"ResilientClusterService(m={self.m}, k={self.k}, "
            f"mode={self.mode}, degraded={sorted(self.supervisor.degraded)})"
        )
