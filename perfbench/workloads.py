"""The four benchmark workloads: inputs, system under test, checks.

Each workload generates its inputs from the seed alone (the program's
configuration never depends on it), builds the system under test in
:meth:`Workload.setup`, optionally installs span wrappers on the live
objects in :meth:`Workload.instrument`, drives it in
:meth:`Workload.run`, and exposes what the harness measures and checks
through the :class:`Outcome` it returns.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.cluster import ElasticCluster, ShardConfig, coordinate
from repro.core import SNSScheduler
from repro.gateway import Gateway, LoadConfig, LoadGenerator, VirtualClock
from repro.observability import TraceRecorder, recompute_profit, validate_trace
from repro.resilience import ResilientClusterService, audit_run
from repro.sim import Simulator
from repro.sim.jobs import JobSpec
from repro.workloads import WorkloadConfig, generate_workload

from perfbench.spans import SpanTracer, TimedRecorder, proxy_scheduler, wrap_methods

#: Coordinator settings of the repository's coordination bench
#: (``COORDINATION_SETTINGS`` in ``benchmarks/run_bench.py``).
COORDINATION_SETTINGS = {
    "refresh_every": 64,
    "steal_batch": 64,
    "steal_margin": 3.0,
    "max_displaced": 3,
    "max_moves_per_job": 2,
}

#: Shard RPCs that block the caller until the worker replies.
SYNC_RPCS = (
    "stats",
    "snapshot",
    "coordination_view",
    "extract_many",
    "inject_many",
    "extract_running",
    "inject_running",
    "forget_pending",
    "take_queued",
    "ping",
    "finish",
)
#: Shard RPCs buffered fire-and-forget.
ASYNC_RPCS = ("submit", "advance_to")

#: Gateway tick phases, in loop order.
GW_PHASES = ("gw.pace", "gw.ingest", "gw.dispatch", "gw.advance", "gw.publish")


@dataclass
class Outcome:
    """What one repeat produced, for the metrics and the checks."""

    #: every job offered, in submission order
    offered: list[JobSpec]
    #: terminal records of every job that reached an engine
    records: dict
    #: profit the system reports
    total_profit: float
    #: jobs refused before reaching an engine (front door or queue shed)
    refused: int
    #: deterministic digest of everything observable about the run
    fingerprint: str
    #: engine counters, one per engine
    counters: list = field(default_factory=list)
    #: machine-steps available, summed over engines (m x end time)
    capacity_steps: float = 0.0
    #: output-check failures found while running
    problems: list[str] = field(default_factory=list)
    #: end-to-end latency samples in seconds, by name
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: deterministic extra metrics (admission latency, queue depth, ...)
    extra: dict[str, float] = field(default_factory=dict)
    #: the system's own result object (input to the audit)
    result: Any = None


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record_rows(records: dict) -> list:
    return [
        (
            rec.job_id,
            rec.arrival,
            rec.deadline,
            rec.completion_time,
            repr(rec.profit),
            repr(rec.processor_steps),
            rec.expired,
            rec.abandoned,
        )
        for _, rec in sorted(records.items())
    ]


def profit_problems(
    offered: list[JobSpec], records: dict, reported: float
) -> list[str]:
    """Recompute each job's profit from its spec and its record.

    A job earns its full profit iff it finished by its deadline.  The
    recomputed total must match the reported one (to float rounding:
    the system may add in another order).
    """
    specs = {spec.job_id: spec for spec in offered}
    problems = []
    total = 0.0
    for job_id, rec in records.items():
        spec = specs.get(job_id)
        if spec is None:
            problems.append(f"record for job {job_id} that was never offered")
            continue
        expected = spec.profit if rec.on_time else 0.0
        if rec.profit != expected:
            problems.append(
                f"job {job_id} earned {rec.profit!r}, expected {expected!r}"
            )
        total += expected
    if not math.isclose(total, reported, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"recomputed profit {total!r} != reported {reported!r}")
    return problems


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


class Workload:
    """Base class: one named input set and the system that serves it."""

    name = ""

    def __init__(self, workdir: str) -> None:
        #: directory (inside the checkout) for files the run writes
        self.workdir = workdir

    def generate(self, seed: int) -> list[JobSpec]:
        """The offered jobs for ``seed`` (deterministic)."""
        raise NotImplementedError

    def prepare(self, specs: list[JobSpec]) -> None:
        """One-off untimed work on the inputs (reference runs)."""

    def setup(self, specs: list[JobSpec]) -> Any:
        """Build the system under test, ready for its first job."""
        raise NotImplementedError

    def instrument(self, system: Any, tracer: SpanTracer) -> None:
        """Install span wrappers on the live system (traced repeats)."""
        raise NotImplementedError

    def run(self, system: Any, specs: list[JobSpec], tracer: Optional[SpanTracer]) -> Outcome:
        """Serve every offered job and report."""
        raise NotImplementedError

    def check(self, system: Any, outcome: Outcome) -> list[str]:
        """Workload-specific output checks (after the timed run)."""
        return []

    def teardown(self, system: Any) -> None:
        """Release what :meth:`setup` acquired."""


# ----------------------------------------------------------------------
# Batch engine
# ----------------------------------------------------------------------
class BatchOverload(Workload):
    """Offline ``Simulator.run`` of S on the mixed family at load 2."""

    name = "batch-overload"
    n_jobs = 8000
    m = 64

    def generate(self, seed: int) -> list[JobSpec]:
        return generate_workload(
            WorkloadConfig(
                n_jobs=self.n_jobs,
                m=self.m,
                load=2.0,
                family="mixed",
                epsilon=1.0,
                seed=seed,
            )
        )

    def setup(self, specs):
        return Simulator(m=self.m, scheduler=SNSScheduler(epsilon=1.0))

    def instrument(self, system, tracer):
        system.scheduler = proxy_scheduler(system.scheduler, tracer)

    def run(self, system, specs, tracer):
        if tracer is None:
            result = system.run(specs)
        else:
            result = tracer.wrap("sim.run", system.run)(specs)
        expired_unserved = sum(
            1
            for rec in result.records.values()
            if rec.expired and rec.processor_steps == 0
        )
        return Outcome(
            offered=specs,
            records=result.records,
            total_profit=result.total_profit,
            refused=expired_unserved,
            fingerprint=self.fingerprint(result),
            counters=[result.counters],
            capacity_steps=float(self.m * result.end_time),
            problems=profit_problems(specs, result.records, result.total_profit),
        )

    @staticmethod
    def fingerprint(result) -> str:
        counters = asdict(result.counters)
        counters.pop("extra", None)
        return _digest(
            {
                "records": _record_rows(result.records),
                "counters": {k: repr(v) for k, v in counters.items()},
                "end_time": result.end_time,
                "profit": repr(result.total_profit),
            }
        )


class BatchTraced(BatchOverload):
    """The batch run with a live trace recorder, checked at the end."""

    name = "batch-traced"

    def prepare(self, specs):
        # the untraced reference the traced records must equal bit for bit
        reference = Simulator(m=self.m, scheduler=SNSScheduler(epsilon=1.0))
        self.reference = self.fingerprint(reference.run(specs))

    def setup(self, specs):
        return Simulator(
            m=self.m, scheduler=SNSScheduler(epsilon=1.0), recorder=TraceRecorder()
        )

    def instrument(self, system, tracer):
        super().instrument(system, tracer)
        system.recorder = TimedRecorder(tracer)

    def run(self, system, specs, tracer):
        outcome = super().run(system, specs, tracer)
        outcome.extra["obs.events"] = float(len(system.recorder))
        return outcome

    def check(self, system, outcome):
        problems = []
        if outcome.fingerprint != self.reference:
            problems.append("traced records differ from the untraced run")
        started = time.perf_counter()
        events = system.recorder.events
        violations = validate_trace(events)
        recomputed = recompute_profit(events)
        outcome.extra["obs.validate_s"] = time.perf_counter() - started
        problems.extend(f"trace: {v}" for v in violations[:5])
        if recomputed != outcome.total_profit:
            problems.append(
                f"trace profit {recomputed!r} != {outcome.total_profit!r}"
            )
        return problems


# ----------------------------------------------------------------------
# Real-time gateway
# ----------------------------------------------------------------------
class TickClock:
    """A :class:`VirtualClock` that stamps the wall time of each tick.

    The gateway calls ``sleep_until`` once at the top of every tick, so
    consecutive stamps bound one tick's wall time; :meth:`mark_end`
    closes the last tick.
    """

    def __init__(self) -> None:
        self.inner = VirtualClock()
        self.stamps: list[float] = []

    def now(self) -> float:
        return self.inner.now()

    def sleep_until(self, deadline: float) -> None:
        self.stamps.append(time.perf_counter())
        self.inner.sleep_until(deadline)

    def mark_end(self) -> None:
        self.stamps.append(time.perf_counter())

    def tick_seconds(self) -> list[float]:
        stamps = self.stamps
        return [b - a for a, b in zip(stamps, stamps[1:])]


@dataclass
class GatewaySystem:
    cluster: ElasticCluster
    gateway: Gateway
    clock: TickClock


class GatewayFlash(Workload):
    """Virtual-clock gateway over a fixed 4-shard in-process cluster."""

    name = "gateway-flash"
    n_jobs = 4000

    def generate(self, seed):
        return LoadGenerator(
            LoadConfig(
                n_jobs=self.n_jobs, m=8, load=1.0, seed=seed, process="flash-crowd"
            )
        ).specs()

    def setup(self, specs):
        cluster = ElasticCluster(
            m=8,
            k_max=4,
            config=ShardConfig(
                m=1,
                scheduler="sns",
                scheduler_kwargs={"epsilon": 1.0},
                capacity=64,
                max_in_flight=8,
            ),
            router="least-loaded",
        )
        clock = TickClock()
        gateway = Gateway(
            cluster, specs, clock=clock, tick_seconds=0.01, steps_per_tick=10
        )
        cluster.start()
        finish = cluster.finish

        def finish_and_stamp():
            clock.mark_end()
            return finish()

        cluster.finish = finish_and_stamp
        return GatewaySystem(cluster, gateway, clock)

    def instrument(self, system, tracer):
        cluster, gateway, clock = system.cluster, system.gateway, system.clock
        for shard in cluster.shards:
            if shard.service is None:
                continue
            service = shard.service
            wrap_methods(tracer, service, "service", ("advance_to", "finish"))
            submit = tracer.wrap("service.submit", service.submit)

            def submit_and_observe(spec, t=None, service=service, submit=submit):
                admission = submit(spec, t)
                tracer.observe("service.queue_depth", service.queue.depth)
                return admission

            service.submit = submit_and_observe
            wrap_methods(tracer, service.sim, "sim", ("advance_to", "finish"))
            service.sim.scheduler = proxy_scheduler(service.sim.scheduler, tracer)
            shard.stats = tracer.counting("cluster.stats_calls", shard.stats)
        cluster.router.route = tracer.wrap("cluster.route", cluster.router.route)
        wrap_methods(tracer, cluster, "cluster", ("submit", "active_stats", "live_metrics"))

        def close_phase():
            top = tracer.top()
            if top in GW_PHASES:
                tracer.end(top)

        # phase boundaries are the calls the tick loop makes, in order:
        # sleep_until | ingest | drain | dispatch | advance_to | publish
        sleep_until = clock.sleep_until

        def paced(deadline):
            close_phase()
            tracer.begin("gw.pace")
            sleep_until(deadline)
            tracer.end("gw.pace")
            tracer.begin("gw.ingest")

        clock.sleep_until = paced
        drain = gateway.buffer.drain

        def dispatch(max_n=None):
            tracer.end("gw.ingest")
            tracer.observe("gw.buffer_depth", len(gateway.buffer))
            tracer.begin("gw.dispatch")
            return drain(max_n)

        gateway.buffer.drain = dispatch
        advance = tracer.wrap("cluster.advance_to", cluster.advance_to)

        def advance_phase(t):
            tracer.end("gw.dispatch")
            tracer.begin("gw.advance")
            now = advance(t)
            tracer.end("gw.advance")
            tracer.begin("gw.publish")
            return now

        cluster.advance_to = advance_phase
        snapshot = gateway.kpi.snapshot

        def published(**kwargs):
            out = snapshot(**kwargs)
            tracer.end("gw.publish")
            return out

        gateway.kpi.snapshot = published
        finish = tracer.wrap("cluster.finish", cluster.finish)

        def finish_phase():
            close_phase()
            return finish()

        cluster.finish = finish_phase

    def run(self, system, specs, tracer):
        gateway = system.gateway
        run = gateway.run if tracer is None else tracer.wrap("gw.run", gateway.run)
        result = run()
        cluster = result.cluster
        records = cluster.records
        expired_unserved = sum(
            1 for rec in records.values() if rec.expired and rec.processor_steps == 0
        )
        intended = {spec.job_id: spec.arrival for spec in specs}
        admit = [rec.arrival - intended[job_id] for job_id, rec in records.items()]
        return Outcome(
            offered=specs,
            records=records,
            total_profit=result.total_profit,
            refused=result.gateway_shed + cluster.num_shed + expired_unserved,
            fingerprint=result.fingerprint(),
            counters=[r.result.counters for r in cluster.shard_results],
            capacity_steps=float(
                sum(r.result.m * r.result.end_time for r in cluster.shard_results)
            ),
            problems=profit_problems(specs, records, result.total_profit),
            latencies={"tick": system.clock.tick_seconds()},
            extra={
                "admit_lat_p50_steps": percentile(admit, 0.5),
                "admit_lat_p99_steps": percentile(admit, 0.99),
                "service.shed": float(cluster.num_shed),
                "gw.ticks": float(result.ticks),
            },
            result=result,
        )

    def check(self, system, outcome):
        report = audit_run(outcome.result, outcome.offered)
        return [f"audit: {v.invariant} {v.detail}" for v in report.violations[:5]]


# ----------------------------------------------------------------------
# Durable process-mode cluster
# ----------------------------------------------------------------------
@dataclass
class DurableSystem:
    cluster: ResilientClusterService
    wal_dir: str


class ClusterDurable(Workload):
    """Closed-loop submits into a supervised, WAL-backed process cluster."""

    name = "cluster-durable"
    n_jobs = 1500
    m = 32

    def generate(self, seed):
        return LoadGenerator(
            LoadConfig(
                n_jobs=self.n_jobs, m=self.m, load=1.5, seed=seed, process="flash-crowd"
            )
        ).specs()

    def setup(self, specs):
        os.makedirs(self.workdir, exist_ok=True)
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=self.workdir)
        try:
            cluster = ResilientClusterService(
                self.m,
                2,
                config=ShardConfig(
                    m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0}
                ),
                router="band-aware",
                mode="process",
                wal_dir=wal_dir,
                wal_fsync_every=8,
                checkpoint_every=64,
            )
            coordinate(cluster, **COORDINATION_SETTINGS)
            cluster.start()
        except BaseException:
            shutil.rmtree(wal_dir, ignore_errors=True)
            raise
        return DurableSystem(cluster, wal_dir)

    def instrument(self, system, tracer):
        cluster = system.cluster
        wrap_methods(tracer, cluster, "cluster", ("submit", "advance_to", "finish"))
        cluster.checkpoint_all = tracer.wrap("ckpt.checkpoint_all", cluster.checkpoint_all)
        cluster.router.route = tracer.wrap("cluster.route", cluster.router.route)
        coordinator = cluster.coordinator
        coordinator.before_route = tracer.wrap("coord.before_route", coordinator.before_route)
        coordinator._refresh = tracer.wrap("coord.refresh", coordinator._refresh)
        plan = tracer.wrap("coord.plan", coordinator.planner.plan)

        def counted_plan(*args, **kwargs):
            moves = plan(*args, **kwargs)
            tracer.count("coord.moves_planned", len(moves))
            return moves

        coordinator.planner.plan = counted_plan
        for log in cluster.logs:
            plain = tracer.wrap("wal.record", log.record)
            synced = tracer.wrap("wal.record_fsync", log.record)

            def record(t, spec, log=log, plain=plain, synced=synced):
                # the record that fills the batch pays the fsync
                if log._pending + 1 >= log.fsync_every:
                    return synced(t, spec)
                return plain(t, spec)

            log.record = record
        for shard in cluster.shards:
            for name in SYNC_RPCS + ASYNC_RPCS:
                setattr(shard, name, tracer.wrap(f"shard.{name}", getattr(shard, name)))
            stats = shard.stats

            def stats_and_observe(stats=stats):
                reply = stats()
                tracer.observe("service.queue_depth", reply.queue_depth)
                return reply

            shard.stats = stats_and_observe

    def run(self, system, specs, tracer):
        cluster = system.cluster
        submit = cluster.submit
        clock = time.perf_counter
        latencies = []
        problems = []
        for spec in specs:
            started = clock()
            try:
                submit(spec, t=spec.arrival)
            except Exception as exc:  # a raised submit is a failed operation
                problems.append(f"submit {spec.job_id} raised {exc!r}")
            latencies.append(clock() - started)
        result = cluster.finish()
        records = result.records
        expired_unserved = sum(
            1 for rec in records.values() if rec.expired and rec.processor_steps == 0
        )
        cluster_shed = result.extra.get("cluster_shed", [])
        total = result.total_profit
        problems.extend(profit_problems(specs, records, total))
        return Outcome(
            offered=specs,
            records=records,
            total_profit=total,
            refused=result.num_shed + len(cluster_shed) + expired_unserved,
            fingerprint=_digest(
                {
                    "records": _record_rows(records),
                    "shed": [(s.job_id, s.time, s.reason) for s in result.shed],
                    "cluster_shed": [(s.job_id, s.reason) for s in cluster_shed],
                    "steals": result.extra.get("steal_txns", {}),
                    "profit": repr(total),
                }
            ),
            counters=[r.result.counters for r in result.shard_results],
            capacity_steps=float(
                sum(r.result.m * r.result.end_time for r in result.shard_results)
            ),
            problems=problems,
            latencies={"submit": latencies},
            extra={
                "service.shed": float(result.num_shed),
                "coord.steals": float(len(cluster.coordinator.steals)),
            },
            result=result,
        )

    def check(self, system, outcome):
        report = audit_run(outcome.result, outcome.offered, wal_dir=system.wal_dir)
        return [f"audit: {v.invariant} {v.detail}" for v in report.violations[:5]]

    def teardown(self, system):
        # after a clean finish every shard is reaped and every log
        # closed; this only matters when the run raised part-way
        cluster = system.cluster
        for shard in cluster.shards:
            if shard.alive:
                shard.kill()
        for log in cluster.logs:
            log.close()
        cluster.steal_journal.close()
        shutil.rmtree(system.wal_dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (BatchOverload, BatchTraced, GatewayFlash, ClusterDurable)
}
