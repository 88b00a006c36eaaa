"""Scenario builder: spec -> runnable -> uniform result.

:class:`ScenarioBuilder` walks the lifecycle ``setup -> run -> collect
-> teardown`` and hides which of the four run shapes is underneath:

* ``batch`` -- a bare :class:`~repro.sim.engine.Simulator` over the
  materialized workload.
* ``service`` -- a :class:`~repro.service.service.SchedulingService`
  with admission control, driven in arrival order.
* ``cluster`` -- a fixed-size :class:`~repro.cluster.service.
  ClusterService` (supervised when supervision/chaos is on),
  in-process or worker-process shards, optionally coordinated.
* ``gateway`` -- a paced :class:`~repro.gateway.gateway.Gateway` over
  an elastic ``ClusterService`` under a wall or virtual clock.

The builder is the only construction path and holds the only
submission loop.  ``repro-scenario run`` calls
:meth:`ScenarioBuilder.setup`, attaches its output-only sinks --
metrics file, KPI server and file -- to
:attr:`ScenarioBuilder.runnable`, and hangs progress lines and the
snapshot-and-restore probe on :attr:`ScenarioBuilder.stream_hooks`
before it calls :meth:`ScenarioBuilder.run`.  None of them changes the
result.

Every shape returns a :class:`ScenarioResult` whose
:meth:`~ScenarioResult.fingerprint` is a SHA-256 over the observable
outcome (completion records, sheds, profit bit patterns); gateway runs
delegate to :meth:`GatewayResult.fingerprint
<repro.gateway.gateway.GatewayResult.fingerprint>` so the scenario
fingerprint equals the one the gateway bench already prints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ScenarioError
from repro.scenarios.components import install_default_components
from repro.scenarios.registry import REGISTRY
from repro.scenarios.spec import ScenarioSpec


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Uniform outcome of any scenario run."""

    #: the (validated) spec that produced this run
    spec: ScenarioSpec
    #: run shape ("batch" | "service" | "cluster" | "gateway")
    mode: str
    #: per-job completion records, merged across shards
    records: dict[int, Any]
    #: profit earned by completed-on-time jobs
    total_profit: float
    #: jobs dropped before release (shard sheds, cluster-level sheds
    #: and gateway drops)
    num_shed: int
    #: simulated end time
    end_time: int
    #: the underlying result object (SimulationResult / ServiceResult /
    #: ClusterResult / GatewayResult), for shape-specific inspection
    raw: Any = None
    #: merged telemetry registry, when the shape produces one
    metrics: Any = None
    #: recorded trace events, when tracing was enabled
    trace_events: Optional[list] = None
    extra: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """SHA-256 over everything observable about the run."""
        return result_fingerprint(self.mode, self.raw)

    def summary(self) -> dict[str, Any]:
        """Flat reporting surface (what ``repro-scenario run`` prints)."""
        completed = sum(
            1 for r in self.records.values() if r.completion_time is not None
        )
        expired = sum(1 for r in self.records.values() if r.expired)
        return {
            "scenario": self.spec.name,
            "mode": self.mode,
            "seed": self.spec.seed,
            "jobs": len(self.records),
            "completed": completed,
            "expired": expired,
            "shed": self.num_shed,
            "end_time": self.end_time,
            "total_profit": self.total_profit,
            "spec_fingerprint": self.spec.fingerprint(),
            "fingerprint": self.fingerprint(),
        }


def result_fingerprint(mode: str, raw: Any) -> str:
    """Digest a run outcome; ``repro-scenario run`` prints it.

    Gateway results keep their own richer fingerprint (submission
    placement, drops, scale trajectory) so scenario runs and
    ``BENCH_gateway.json`` agree on what "the same run" means.
    """
    if mode == "gateway":
        return raw.fingerprint()
    records = _records_of(raw)
    shed = getattr(raw, "shed", []) or []
    payload = {
        "records": [
            (
                rec.job_id,
                rec.arrival,
                rec.deadline,
                rec.completion_time,
                repr(rec.profit),
                rec.expired,
                rec.abandoned,
            )
            for rec in (records[job_id] for job_id in sorted(records))
        ],
        "shed": [
            (rec.job_id, rec.time, rec.reason, repr(rec.profit))
            for rec in shed
        ],
        "profit": repr(_profit_of(raw)),
        "end_time": _end_time_of(raw),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _records_of(raw: Any) -> dict[int, Any]:
    if hasattr(raw, "records"):
        return raw.records
    return raw.result.records  # ServiceResult


def _profit_of(raw: Any) -> float:
    return raw.total_profit


def _end_time_of(raw: Any) -> int:
    if hasattr(raw, "end_time"):
        return raw.end_time
    return raw.result.end_time


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
class ScenarioBuilder:
    """Assemble and drive one scenario through its lifecycle.

    Either call the phases explicitly (``setup() -> run() -> collect()
    -> teardown()``), or use :meth:`execute` / :func:`run_scenario`
    which chain them with teardown guaranteed.

    ``shard_samples`` makes every cluster shard keep its telemetry
    samples (:attr:`ShardConfig.keep_samples
    <repro.cluster.config.ShardConfig.keep_samples>`), for a metrics
    log written from the shard results; shards keep none otherwise.
    It changes no result.
    """

    def __init__(
        self, spec: ScenarioSpec, *, shard_samples: bool = False
    ) -> None:
        install_default_components()
        spec.validate()
        self.spec = spec
        self.shard_samples = shard_samples
        #: materialized workload, set by setup()
        self.specs: Optional[list] = None
        #: the runnable (engine/service/cluster/gateway), set by setup()
        self.runnable: Any = None
        #: trace recorder when tracing is enabled
        self.tracer: Any = None
        #: callables ``hook(submitted, job)`` the service and cluster
        #: loop runs before each submission, and once more after the
        #: last with ``job=None``; they read and may swap
        #: :attr:`runnable` (see :meth:`checkpoint_restore`)
        self.stream_hooks: list = []
        self._raw: Any = None
        self._load: Any = None
        self._torn_down = False

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> "ScenarioBuilder":
        """Materialize the workload and build the runnable."""
        spec = self.spec
        if spec.tracing.enabled:
            from repro.observability import TraceRecorder

            self.tracer = TraceRecorder()
        if spec.mode == "gateway":
            # the gateway paces the generator itself; materialize once
            self._load = _load_generator(spec)
            self.specs = self._load.specs()
        else:
            self.specs = build_workload(spec)
        build = {
            "batch": self._setup_batch,
            "service": self._setup_service,
            "cluster": self._setup_cluster,
            "gateway": self._setup_gateway,
        }[spec.mode]
        build()
        return self

    def run(self) -> Any:
        """Drive the runnable over the workload; returns the raw result."""
        if self.runnable is None:
            self.setup()
        run = {
            "batch": self._run_batch,
            "service": self._run_stream,
            "cluster": self._run_stream,
            "gateway": self._run_gateway,
        }[self.spec.mode]
        self._raw = run()
        self.write_trace()
        return self._raw

    def collect(self) -> ScenarioResult:
        """Fold the raw result into a uniform :class:`ScenarioResult`."""
        if self._raw is None:
            raise ScenarioError("collect() before run(); nothing to collect")
        raw = self._raw
        mode = self.spec.mode
        num_shed = getattr(raw, "num_shed", 0)
        extra: dict[str, Any] = {}
        if mode == "gateway":
            num_shed = raw.cluster.num_shed + raw.gateway_shed
            extra["scale_events"] = raw.scale_events
            extra["generated"] = raw.generated
            extra["delivered"] = raw.delivered
            extra["ticks"] = raw.ticks
            records = raw.cluster.records
            metrics = raw.cluster.metrics
            end_time = raw.sim_end
        else:
            records = _records_of(raw)
            metrics = getattr(raw, "metrics", None)
            end_time = _end_time_of(raw)
        if mode in ("cluster", "gateway"):
            cluster = raw.cluster if mode == "gateway" else raw
            # jobs the cluster itself refused (no healthy shard) or
            # closed the books on are sheds too
            num_shed += len(cluster.extra.get("cluster_shed", ()))
            extra.update(self._cluster_extra(cluster))
        return ScenarioResult(
            spec=self.spec,
            mode=mode,
            records=records,
            total_profit=raw.total_profit,
            num_shed=num_shed,
            end_time=end_time,
            raw=raw,
            metrics=metrics,
            trace_events=(
                list(self.tracer.events) if self.tracer is not None else None
            ),
            extra=extra,
        )

    def _cluster_extra(self, cluster: Any) -> dict[str, Any]:
        """What a cluster result adds to the summary: recoveries,
        supervision events, degraded shards, cluster-level sheds, and
        the steal counts of a coordinated cluster."""
        extra: dict[str, Any] = {}
        if cluster.recoveries:
            extra["recoveries"] = cluster.recoveries
        for key in ("supervision_events", "degraded_shards"):
            if cluster.extra.get(key):
                extra[key] = cluster.extra[key]
        if cluster.extra.get("cluster_shed"):
            extra["cluster_shed"] = len(cluster.extra["cluster_shed"])
        if self.spec.cluster.coordinate:
            values = cluster.metrics.values()
            extra["steals"] = int(values.get("steals_total", 0))
            extra["displaced"] = int(values.get("steals_displaced_total", 0))
        return extra

    def checkpoint_restore(self, path: Optional[str] = None) -> str:
        """Snapshot the running service, discard it, and continue on a
        copy restored from the snapshot (service mode only).

        The snapshot goes to ``path`` when given, else through an
        in-memory JSON round trip.  The restored service keeps the
        live one's metrics registry, submission log and tracer, and
        gets a fresh scheduler from the spec's recipe; it replaces
        :attr:`runnable`.  Called from a :attr:`stream_hooks` entry,
        the run continues bit-identically.  Returns where the snapshot
        went.
        """
        from repro.service import snapshot

        service = self.runnable
        keep = dict(metrics=service.metrics, recorder=service.recorder)
        if path:
            snapshot.save_snapshot(service, path)
            restored = snapshot.load_snapshot(
                path, self.make_scheduler(), **keep
            )
        else:
            blob = json.dumps(snapshot.service_to_dict(service))
            restored = snapshot.service_from_dict(
                json.loads(blob), self.make_scheduler(), **keep
            )
        if self.tracer is not None:
            restored.attach_tracer(self.tracer)
        self.runnable = restored
        return path or "<memory>"

    def write_trace(self) -> Optional[str]:
        """Write the recorded trace to ``tracing.path`` as JSONL.

        :meth:`run` calls this after driving the runnable.  Returns
        the path written, or ``None`` when the spec names no path.
        """
        path = self.spec.tracing.path
        if self.tracer is None or not path:
            return None
        from repro.observability import write_jsonl

        write_jsonl(self.tracer.events, path)
        return path

    def teardown(self) -> None:
        """Release resources (worker-process shards of an unfinished run)."""
        if self._torn_down:
            return
        self._torn_down = True
        runnable = self.runnable
        if runnable is None or self._raw is not None:
            return
        # a run that never finished may hold worker-process shards;
        # finish() is the reap path and is safe on started clusters
        if getattr(runnable, "shards", None) and getattr(
            runnable, "_started", False
        ):
            try:
                runnable.finish()
            except Exception:
                pass

    def execute(self) -> ScenarioResult:
        """setup -> run -> collect, with teardown guaranteed."""
        try:
            self.setup()
            self.run()
            return self.collect()
        finally:
            self.teardown()

    # -- per-mode construction -----------------------------------------
    def _scheduler_kwargs(self) -> dict:
        """Epsilon threading: S-family schedulers get the workload's
        epsilon unless kwargs name their own."""
        spec = self.spec
        kwargs = dict(spec.scheduler.kwargs)
        component = REGISTRY.get("scheduler", spec.scheduler.name)
        if component.meta.get("accepts_epsilon") and "epsilon" not in kwargs:
            kwargs["epsilon"] = spec.workload.epsilon
        return kwargs

    def make_scheduler(self) -> Any:
        """Fresh scheduler instance from the spec's recipe."""
        return REGISTRY.create(
            "scheduler", self.spec.scheduler.name, **self._scheduler_kwargs()
        )

    def _make_picker(self) -> Any:
        spec = self.spec
        if spec.engine.picker == "fifo":
            return None  # the engines' default; keeps construction identical
        from repro.sim.picker import make_picker

        return make_picker(spec.engine.picker, rng=self.spec.seed)

    def _setup_batch(self) -> None:
        from repro.sim.engine import Simulator

        spec = self.spec
        self.runnable = Simulator(
            m=spec.workload.m,
            scheduler=self.make_scheduler(),
            picker=self._make_picker(),
            speed=spec.engine.speed,
            horizon=spec.engine.horizon or None,
            preemption_overhead=spec.engine.preemption_overhead,
        )

    def _setup_service(self) -> None:
        from repro.service.queue import make_shed_policy
        from repro.service.replay import SubmissionLog
        from repro.service.service import SchedulingService
        from repro.service.telemetry import MetricsRegistry

        spec = self.spec
        self.runnable = SchedulingService(
            m=spec.workload.m,
            scheduler=self.make_scheduler(),
            capacity=spec.service.capacity,
            shed_policy=make_shed_policy(spec.service.shed_policy),
            max_in_flight=spec.service.max_in_flight or None,
            speed=spec.engine.speed,
            picker=self._make_picker(),
            horizon=spec.engine.horizon or None,
            preemption_overhead=spec.engine.preemption_overhead,
            metrics=MetricsRegistry(keep_samples=False),
            sample_every=spec.service.sample_every or None,
            recorder=SubmissionLog(),
            tracer=self.tracer,
        )

    def _shard_config(self) -> Any:
        from repro.cluster import ShardConfig

        spec = self.spec
        return ShardConfig(
            m=1,  # overridden per shard by the machine partition
            scheduler=spec.scheduler.name,
            scheduler_kwargs=self._scheduler_kwargs(),
            capacity=spec.service.capacity,
            shed_policy=spec.service.shed_policy,
            max_in_flight=spec.service.max_in_flight or None,
            speed=spec.engine.speed,
            horizon=spec.engine.horizon or None,
            preemption_overhead=spec.engine.preemption_overhead,
            sample_every=spec.service.sample_every or None,
            keep_samples=self.shard_samples,
        )

    def _fault_injector(self) -> Any:
        spec = self.spec
        if spec.faults.kind == "none":
            return None
        from repro.resilience.chaos import ChaosInjector, ChaosSchedule

        if spec.faults.kind != "chaos":
            # a bare chaos kind ("crash", "steal-interrupt", ...) is a
            # one-event schedule at faults.shard / faults.at
            return ChaosInjector(
                ChaosSchedule.parse(
                    f"{spec.faults.kind}:{spec.faults.shard}:{spec.faults.at}"
                )
            )
        if spec.faults.chaos.startswith("seed:"):
            horizon = (
                max(sp.arrival for sp in self.specs) or 1 if self.specs else 1
            )
            schedule = ChaosSchedule.generate(
                int(spec.faults.chaos.split(":", 1)[1]),
                k=spec.shard_count(),
                horizon=horizon,
            )
        else:
            schedule = ChaosSchedule.parse(spec.faults.chaos)
        return ChaosInjector(schedule)

    def _supervision(self) -> dict:
        """Supervisor, RPC and durable-directory keywords for a
        supervised cluster (none for an unsupervised one), from the
        spec's ``[cluster]`` knobs."""
        if not self.spec.supervised():
            return {}
        from repro.resilience import DEFAULT_RPC_POLICY, SupervisorConfig

        c = self.spec.cluster
        return dict(
            supervisor=SupervisorConfig(
                heartbeat_timeout=c.heartbeat_timeout,
                heartbeat_every=c.heartbeat_every,
                max_restarts=c.max_restarts,
                on_exhausted=c.on_exhausted,
            ),
            rpc=DEFAULT_RPC_POLICY,
            wal_dir=c.wal_dir or None,
            checkpoint_dir=c.checkpoint_dir or None,
        )

    def _build_cluster(self, k: int, k_initial: Optional[int] = None) -> Any:
        """The run's ``ClusterService`` over ``k`` shards, coordinated
        when the spec asks.  Cluster and gateway modes both build here,
        so every ``[cluster]`` knob reaches either shape; a gateway's
        cluster is elastic (``k_initial`` active units)."""
        from repro.cluster import ClusterService, coordinate

        c = self.spec.cluster
        cluster = ClusterService(
            self.spec.workload.m,
            k,
            config=self._shard_config(),
            router=self.spec.router_name(),
            mode=c.mode,
            fault_injector=self._fault_injector(),
            checkpoint_every=c.checkpoint_every,
            stats_refresh=c.stats_refresh,
            tracer=self.tracer,
            k_initial=k_initial,
            **self._supervision(),
        )
        if c.coordinate:
            coordinate(
                cluster,
                refresh_every=c.coordinate_every,
                steal_batch=c.steal_batch,
                steal_margin=c.steal_margin,
                max_displaced=c.max_displaced,
                max_moves_per_job=c.max_moves_per_job,
            )
        return cluster

    def _setup_cluster(self) -> None:
        self.runnable = self._build_cluster(self.spec.cluster.shards)

    def _setup_gateway(self) -> None:
        from repro.gateway.gateway import Gateway
        from repro.gateway.kpi import KpiFeed

        spec = self.spec
        cluster = self._build_cluster(
            spec.gateway.shards_max,
            k_initial=spec.gateway.shards_initial or spec.gateway.shards_max,
        )
        autoscaler = None
        if spec.autoscale.enabled:
            autoscaler = REGISTRY.create(
                "autoscaler",
                "hysteresis",
                k_min=spec.autoscale.shards_min,
                k_max=spec.gateway.shards_max,
                high_water=spec.autoscale.high_water,
                up_patience=spec.autoscale.up_patience,
                down_patience=spec.autoscale.down_patience,
                cooldown=spec.autoscale.cooldown,
            )
        clock = REGISTRY.create("clock", spec.gateway.clock)
        load = self._load if self._load is not None else _load_generator(spec)
        self.runnable = Gateway(
            cluster,
            load,
            clock=clock,
            tick_seconds=spec.gateway.tick,
            steps_per_tick=spec.gateway.steps_per_tick,
            buffer_capacity=spec.gateway.buffer,
            max_dispatch_per_tick=spec.gateway.max_dispatch or None,
            autoscaler=autoscaler,
            feed=KpiFeed(),
            kpi_every=spec.gateway.kpi_every,
        )

    # -- per-mode driving ----------------------------------------------
    def _run_batch(self) -> Any:
        return self.runnable.run(self.specs)

    def _run_stream(self) -> Any:
        self.runnable.start()
        hooks = self.stream_hooks
        for submitted, job in enumerate(self.specs):
            for hook in hooks:
                hook(submitted, job)
            self.runnable.submit(job, t=job.arrival)
        for hook in hooks:
            hook(len(self.specs), None)
        return self.runnable.finish()

    def _run_gateway(self) -> Any:
        return self.runnable.run(
            max_ticks=self.spec.gateway.max_ticks or None
        )


# ----------------------------------------------------------------------
# Workload materialization
# ----------------------------------------------------------------------
def _load_generator(spec: ScenarioSpec) -> Any:
    from repro.gateway.load import LoadConfig, LoadGenerator

    w = spec.workload
    return LoadGenerator(
        LoadConfig(
            n_jobs=w.n_jobs,
            m=w.m,
            load=w.load,
            family=w.family,
            epsilon=w.epsilon,
            seed=spec.workload_seed(),
            process=w.process,
            period=w.period,
            amplitude=w.amplitude,
            spike_fraction=w.spike_fraction,
            session_alpha=w.session_alpha,
        )
    )


def build_workload(spec: ScenarioSpec) -> list:
    """Materialize the job list a scenario serves, in submission order.

    ``generated`` workloads reproduce the experiment suite's generator
    (:func:`~repro.workloads.suite.generate_workload`, sorted by
    arrival); ``open-loop`` workloads materialize the gateway's seeded
    :class:`~repro.gateway.load.LoadGenerator` stream, which already
    yields in arrival order.
    """
    kind = spec.workload_kind()
    if kind == "open-loop":
        return list(_load_generator(spec))
    from repro.workloads.suite import WorkloadConfig, generate_workload

    w = spec.workload
    specs = generate_workload(
        WorkloadConfig(
            n_jobs=w.n_jobs,
            m=w.m,
            load=w.load,
            family=w.family,
            epsilon=w.epsilon,
            deadline_policy=w.deadline_policy,
            slack_range=(w.slack_low, w.slack_high),
            tight_factor=w.tight_factor,
            profit=w.profit,
            seed=spec.workload_seed(),
        )
    )
    specs.sort(key=lambda sp: (sp.arrival, sp.job_id))
    return specs


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Build, run and collect one scenario (teardown guaranteed)."""
    return ScenarioBuilder(spec).execute()
