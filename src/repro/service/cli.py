"""``repro-serve``: drive the online scheduling service from the shell.

Generates a random workload (same knobs as the experiment suite),
streams it through a :class:`~repro.service.service.SchedulingService`
with a bounded ingest queue and shed policy, prints live progress lines
and a final summary, and optionally writes JSONL metrics and a mid-run
checkpoint that is immediately restored (exercising the kill-and-
restore path end to end).

Example -- 10k jobs at 3x overload with density-aware shedding::

    repro-serve --n-jobs 10000 --load 3.0 --capacity 64 \\
        --max-in-flight 32 --policy reject-lowest-density \\
        --metrics metrics.jsonl

With ``--shards K`` (K > 1) the same stream is served by a
:class:`~repro.cluster.service.ClusterService`: ``K`` machine-pool
shards (worker processes by default), jobs placed by ``--router``, and
-- with ``--fault-at T`` -- a shard killed mid-stream and recovered
from its latest checkpoint plus submission-log replay::

    repro-serve --n-jobs 5000 --m 32 --shards 4 --router least-loaded \\
        --fault-at 200 --fault-shard 1
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.errors import ScenarioError
from repro.service.queue import SHED_POLICIES, make_shed_policy
from repro.service.replay import SubmissionLog
from repro.service.service import SchedulingService
from repro.service.snapshot import load_snapshot, save_snapshot
from repro.service.telemetry import MetricsRegistry
from repro.sim.scheduler import Scheduler
from repro.workloads.suite import WorkloadConfig, generate_workload


def _registry():
    """The shared component registry, fully populated."""
    from repro.scenarios.components import install_default_components
    from repro.scenarios.registry import REGISTRY

    install_default_components()
    return REGISTRY


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Stream a generated workload through the online scheduling "
            "service with admission backpressure and telemetry."
        ),
    )
    wl = parser.add_argument_group("workload")
    wl.add_argument("--n-jobs", type=int, default=1000, help="number of jobs")
    wl.add_argument("--m", type=int, default=8, help="number of processors")
    wl.add_argument(
        "--load", type=float, default=2.0, help="offered load (1.0 = capacity)"
    )
    wl.add_argument(
        "--family", default="mixed", help="DAG family (or 'mixed')"
    )
    wl.add_argument(
        "--epsilon", type=float, default=1.0, help="slack parameter epsilon"
    )
    wl.add_argument("--seed", type=int, default=0, help="workload RNG seed")

    srv = parser.add_argument_group("service")
    srv.add_argument(
        "--scheduler",
        default="sns",
        help="scheduling policy (any registered scheduler; see "
        "`repro-scenario list --kind scheduler`)",
    )
    srv.add_argument(
        "--capacity", type=int, default=128, help="ingest queue capacity"
    )
    srv.add_argument(
        "--policy",
        choices=sorted(SHED_POLICIES),
        default="reject-lowest-density",
        help="shed policy when the queue is full",
    )
    srv.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="cap on jobs inside the engine (default: unbounded)",
    )
    srv.add_argument(
        "--speed", type=float, default=1.0, help="processor speed s"
    )

    cl = parser.add_argument_group("cluster (active when --shards > 1)")
    cl.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="shard the machines into K pools (default 1: single service)",
    )
    cl.add_argument(
        "--router",
        default=None,
        help="shard placement policy (default: consistent-hash, or "
        "band-aware when --coordinate is on)",
    )
    cl.add_argument(
        "--coordinate", action="store_true",
        help="attach the cluster-wide band-aware coordinator: ledger-fed "
        "routing plus density-aware steals of parked/starved jobs "
        "(see docs/SCHEDULING.md)",
    )
    cl.add_argument(
        "--coordinate-every", type=int, default=64, metavar="N",
        help="submissions between coordinator ledger refreshes and "
        "steal ticks",
    )
    cl.add_argument(
        "--steal-batch", type=int, default=64, metavar="N",
        help="max steals per coordinator tick",
    )
    cl.add_argument(
        "--steal-margin", type=float, default=3.0, metavar="X",
        help="density advantage a victim needs over each receiver job "
        "it displaces (> 1)",
    )
    cl.add_argument(
        "--max-displaced", type=int, default=3, metavar="N",
        help="receiver jobs displaced per steal (0 disables displacement)",
    )
    cl.add_argument(
        "--max-moves-per-job", type=int, default=2, metavar="N",
        help="lifetime cap on coordinator migrations of any one job",
    )
    cl.add_argument(
        "--cluster-mode",
        choices=["inprocess", "process"],
        default="process",
        help="run shards in this process or in worker processes",
    )
    cl.add_argument(
        "--migrate-every", type=int, default=0, metavar="T",
        help="rebalance queued jobs every T simulated steps (0 = off)",
    )
    cl.add_argument(
        "--fault-at", type=int, default=None, metavar="T",
        help="kill a shard at simulated time T and recover it",
    )
    cl.add_argument(
        "--fault-shard", type=int, default=0, metavar="I",
        help="which shard --fault-at kills (default 0)",
    )
    cl.add_argument(
        "--checkpoint-every", type=int, default=64, metavar="T",
        help="cluster checkpoint interval when fault injection is on",
    )

    res = parser.add_argument_group(
        "resilience (active with --supervise or --chaos; --shards > 1)"
    )
    res.add_argument(
        "--supervise", action="store_true",
        help="supervise the cluster's shards: heartbeat "
        "supervision, RPC deadlines, circuit breakers",
    )
    res.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        help="supervisor restart budget per shard",
    )
    res.add_argument(
        "--heartbeat-timeout", type=float, default=0.5, metavar="S",
        help="seconds a shard may take to answer a heartbeat",
    )
    res.add_argument(
        "--heartbeat-every", type=int, default=16, metavar="N",
        help="decision points between heartbeat rounds",
    )
    res.add_argument(
        "--on-exhausted", choices=["raise", "degrade"], default="raise",
        help="restart budget spent: exit with a structured error, or "
        "degrade the shard and serve on",
    )
    res.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="durable write-ahead logs for shard submissions",
    )
    res.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="digest-verified on-disk checkpoint store",
    )
    res.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject faults: 'kind:shard:at,...' or 'seed:N' "
        "(implies --supervise)",
    )

    out = parser.add_argument_group("output")
    out.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write JSONL metrics samples to PATH",
    )
    out.add_argument(
        "--sample-every", type=int, default=None, metavar="T",
        help="minimum simulated time between metric samples",
    )
    out.add_argument(
        "--report-every", type=int, default=2000, metavar="N",
        help="print a progress line every N submissions (0 = quiet)",
    )
    out.add_argument(
        "--checkpoint-at", type=int, default=None, metavar="T",
        help="snapshot + restore the service at simulated time T",
    )
    out.add_argument(
        "--checkpoint-path", default=None, metavar="PATH",
        help="where to write the checkpoint (default: in-memory only)",
    )
    out.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a structured decision trace and write it to PATH "
        "as JSONL (inspect with repro-trace)",
    )

    sc = parser.add_argument_group("scenario")
    sc.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="run this scenario spec (.toml/.json) instead of the flags "
        "(other flags are ignored; use --set in repro-scenario to "
        "override spec values)",
    )
    sc.add_argument(
        "--dump-scenario", action="store_true",
        help="print the flags as a canonical scenario TOML and exit",
    )
    return parser


def _make_scheduler(args: argparse.Namespace) -> Scheduler:
    component = _registry().get("scheduler", args.scheduler)
    kwargs = (
        {"epsilon": args.epsilon}
        if component.meta.get("accepts_epsilon")
        else {}
    )
    return component.create(**kwargs)


def _spec_from_args(args: argparse.Namespace):
    """Map the flag namespace onto an equivalent :class:`ScenarioSpec`.

    The builder mirrors this CLI's construction exactly, so the
    returned spec runs to the same result fingerprint as the flags.
    """
    from repro.scenarios.spec import ScenarioSpec

    doc: dict = {
        "scenario": {
            "name": "repro-serve",
            "mode": "cluster" if args.shards > 1 else "service",
            "seed": args.seed,
        },
        "workload": {
            "n_jobs": args.n_jobs,
            "m": args.m,
            "load": args.load,
            "family": args.family,
            "epsilon": args.epsilon,
        },
        "engine": {"speed": args.speed},
        "scheduler": {"name": args.scheduler},
        "service": {
            "capacity": args.capacity,
            "shed_policy": args.policy,
            "max_in_flight": args.max_in_flight or 0,
            "sample_every": args.sample_every or 0,
        },
        "tracing": {
            "enabled": args.trace is not None,
            "path": args.trace or "",
        },
    }
    if args.shards > 1:
        doc["cluster"] = {
            "shards": args.shards,
            "router": args.router or "",
            "mode": args.cluster_mode,
            "migrate_every": args.migrate_every,
            "coordinate": args.coordinate,
            "coordinate_every": args.coordinate_every,
            "steal_batch": args.steal_batch,
            "steal_margin": args.steal_margin,
            "max_displaced": args.max_displaced,
            "max_moves_per_job": args.max_moves_per_job,
            "checkpoint_every": args.checkpoint_every,
            "supervise": args.supervise,
            "max_restarts": args.max_restarts,
            "heartbeat_timeout": args.heartbeat_timeout,
            "heartbeat_every": args.heartbeat_every,
            "on_exhausted": args.on_exhausted,
        }
        if args.chaos is not None:
            doc["faults"] = {"kind": "chaos", "chaos": args.chaos}
        elif args.fault_at is not None:
            doc["faults"] = {
                "kind": "kill",
                "shard": args.fault_shard,
                "at": args.fault_at,
            }
    return ScenarioSpec.from_dict(doc)


def _run_scenario_file(path: str) -> int:
    """Shared ``--scenario SPEC`` handler for the wrapper CLIs."""
    from repro.scenarios.cli import main as scenario_main

    return scenario_main(["run", path])


def _progress(service: SchedulingService, submitted: int, total: int) -> str:
    vals = service.metrics.values()
    return (
        f"t={service.now:>8d}  submitted={submitted}/{total}  "
        f"depth={service.queue.depth}  in_flight={service.in_flight}  "
        f"completed={int(vals.get('completed_total', 0))}  "
        f"expired={int(vals.get('expired_total', 0))}  "
        f"shed={len(service.shed_log)}  "
        f"profit={vals.get('profit_total', 0.0):.2f}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-serve`` console script."""
    args = build_parser().parse_args(argv)
    if args.scenario:
        return _run_scenario_file(args.scenario)
    try:
        if args.dump_scenario:
            sys.stdout.write(_spec_from_args(args).to_toml())
            return 0
        _registry().get("scheduler", args.scheduler)
        if args.router is not None:
            _registry().get("router", args.router)
    except ScenarioError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    specs = generate_workload(
        WorkloadConfig(
            n_jobs=args.n_jobs,
            m=args.m,
            load=args.load,
            family=args.family,
            epsilon=args.epsilon,
            seed=args.seed,
        )
    )
    specs.sort(key=lambda sp: (sp.arrival, sp.job_id))
    tracer = None
    if args.trace:
        from repro.observability import TraceRecorder

        tracer = TraceRecorder()
    if args.shards > 1:
        return _main_cluster(args, specs, tracer)
    log = SubmissionLog()
    sink = open(args.metrics, "w", encoding="utf-8") if args.metrics else None
    try:
        metrics = MetricsRegistry(sink=sink, keep_samples=False)
        service = SchedulingService(
            m=args.m,
            scheduler=_make_scheduler(args),
            capacity=args.capacity,
            shed_policy=make_shed_policy(args.policy),
            max_in_flight=args.max_in_flight,
            speed=args.speed,
            metrics=metrics,
            sample_every=args.sample_every,
            recorder=log,
            tracer=tracer,
        )
        service.start()
        print(
            f"repro-serve: {args.n_jobs} jobs, m={args.m}, "
            f"load={args.load}, scheduler={args.scheduler}, "
            f"capacity={args.capacity}, policy={args.policy}",
            flush=True,
        )
        checkpointed = False
        for i, spec in enumerate(specs, 1):
            if (
                args.checkpoint_at is not None
                and not checkpointed
                and spec.arrival >= args.checkpoint_at
            ):
                service = _checkpoint_restore(
                    service, args, metrics, log, tracer
                )
                checkpointed = True
            service.submit(spec, t=spec.arrival)
            if args.report_every and i % args.report_every == 0:
                print(_progress(service, i, len(specs)), flush=True)
        result = service.finish()
    finally:
        if sink is not None:
            sink.close()

    counters = result.result.counters
    print("---")
    print(f"end_time:        {result.result.end_time}")
    print(f"completed:       {counters.completions}")
    print(f"expired:         {counters.expiries}")
    print(f"shed:            {result.num_shed}")
    print(f"total_profit:    {result.total_profit:.4f}")
    print(f"profit_shed:     {result.profit_shed:.4f}")
    print(f"decisions:       {counters.decisions}")
    print(f"fingerprint:     {_fingerprint('service', result)}")
    if args.metrics:
        print(f"metrics written: {args.metrics}")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def _fingerprint(mode: str, result) -> str:
    from repro.scenarios.builder import result_fingerprint

    return result_fingerprint(mode, result)


def _write_trace(tracer, path: str) -> None:
    """Export a recorded trace as JSONL and announce it."""
    from repro.observability import write_jsonl

    write_jsonl(tracer.events, path)
    print(f"trace written:   {path} ({len(tracer)} events)")


def _main_cluster(
    args: argparse.Namespace, specs: list, tracer=None
) -> int:
    """Serve the stream through a sharded cluster (``--shards > 1``).

    With ``--supervise`` or ``--chaos`` the cluster is supervised; a
    shard whose restart budget is exhausted under
    ``--on-exhausted raise`` aborts the run with a structured JSON
    error summary on stderr and exit code 2.
    """
    from repro.cluster import (
        ClusterService,
        FaultInjector,
        QueueBalancer,
        ShardConfig,
    )
    from repro.errors import RestartBudgetExhausted, ShardFailedError

    component = _registry().get("scheduler", args.scheduler)
    scheduler_kwargs = (
        {"epsilon": args.epsilon}
        if component.meta.get("accepts_epsilon")
        else {}
    )
    router = args.router or (
        "band-aware" if args.coordinate else "consistent-hash"
    )
    resilient = args.supervise or args.chaos is not None
    injector = None
    if args.chaos is not None:
        from repro.resilience.chaos import ChaosInjector, ChaosSchedule

        if args.chaos.startswith("seed:"):
            horizon = max(spec.arrival for spec in specs) or 1
            schedule = ChaosSchedule.generate(
                int(args.chaos.split(":", 1)[1]),
                k=args.shards,
                horizon=horizon,
            )
        else:
            schedule = ChaosSchedule.parse(args.chaos)
        injector = ChaosInjector(schedule)
    elif args.fault_at is not None:
        injector = FaultInjector().add(shard=args.fault_shard, at=args.fault_at)
    config = ShardConfig(
        m=1,  # overridden per shard by the machine partition
        scheduler=args.scheduler,
        scheduler_kwargs=scheduler_kwargs,
        capacity=args.capacity,
        shed_policy=args.policy,
        max_in_flight=args.max_in_flight,
        speed=args.speed,
        sample_every=args.sample_every,
    )
    supervision: dict = {}
    if resilient:
        from repro.resilience import DEFAULT_RPC_POLICY, SupervisorConfig

        supervision = dict(
            supervisor=SupervisorConfig(
                heartbeat_timeout=args.heartbeat_timeout,
                heartbeat_every=args.heartbeat_every,
                max_restarts=args.max_restarts,
                on_exhausted=args.on_exhausted,
            ),
            rpc=DEFAULT_RPC_POLICY,
            wal_dir=args.wal_dir,
            checkpoint_dir=args.checkpoint_dir,
        )
    cluster = ClusterService(
        args.m,
        args.shards,
        config=config,
        router=router,
        mode=args.cluster_mode,
        migration=QueueBalancer() if args.migrate_every else None,
        migrate_every=args.migrate_every,
        fault_injector=injector,
        checkpoint_every=args.checkpoint_every,
        tracer=tracer,
        **supervision,
    )
    if args.coordinate:
        from repro.cluster import coordinate

        coordinate(
            cluster,
            refresh_every=args.coordinate_every,
            steal_batch=args.steal_batch,
            steal_margin=args.steal_margin,
            max_displaced=args.max_displaced,
            max_moves_per_job=args.max_moves_per_job,
        )
    cluster.start()
    print(
        f"repro-serve: {args.n_jobs} jobs, m={args.m}, shards={args.shards}, "
        f"mode={args.cluster_mode}, router={router}, "
        f"scheduler={args.scheduler}, migrate_every={args.migrate_every}, "
        f"fault_at={args.fault_at}, "
        f"coordinate={'yes' if args.coordinate else 'no'}, "
        f"resilient={'yes' if resilient else 'no'}",
        flush=True,
    )
    try:
        for i, spec in enumerate(specs, 1):
            cluster.submit(spec, t=spec.arrival)
            if args.report_every and i % args.report_every == 0:
                print(
                    f"t={cluster.now:>8d}  submitted={i}/{len(specs)}",
                    flush=True,
                )
        result = cluster.finish()
    except RestartBudgetExhausted as exc:
        json.dump(exc.summary(), sys.stderr, indent=2)
        sys.stderr.write("\n")
        print(
            f"error: shard {exc.shard} recovery exhausted after "
            f"{exc.restarts} restarts ({exc.fault}); aborting",
            flush=True,
        )
        return 2
    except ShardFailedError as exc:
        json.dump(
            {
                "error": "shard-failed",
                "shard": exc.shard,
                "fault": exc.reason,
            },
            sys.stderr,
            indent=2,
        )
        sys.stderr.write("\n")
        print(f"error: shard {exc.shard} failed ({exc.reason}); aborting")
        return 2

    values = result.metrics.values()
    print("---")
    print(f"end_time:        {result.end_time}")
    print(f"completed:       {int(values.get('completed_total', 0))}")
    print(f"expired:         {int(values.get('expired_total', 0))}")
    print(f"shed:            {result.num_shed}")
    print(f"migrated:        {int(values.get('migrations_total', 0))}")
    if args.coordinate:
        print(f"steals:          {int(values.get('steals_total', 0))}")
        print(
            f"displaced:       "
            f"{int(values.get('steals_displaced_total', 0))}"
        )
    print(f"total_profit:    {result.total_profit:.4f}")
    print(f"fingerprint:     {_fingerprint('cluster', result)}")
    for event in result.recoveries:
        print(
            f"recovery:        shard {event.shard} at t={event.time} "
            f"(checkpoint t={event.checkpoint_time}, "
            f"replayed {event.replayed} submissions, "
            f"{event.wall_seconds * 1000:.1f} ms)"
        )
    for event in result.extra.get("supervision_events", []):
        print(
            f"supervision:     shard {event.shard} {event.reason} at "
            f"t={event.time} -> {event.action} "
            f"(#{event.restarts}, detect {event.detection_seconds * 1000:.1f} ms, "
            f"restart {event.restart_seconds * 1000:.1f} ms)"
        )
    degraded = result.extra.get("degraded_shards", [])
    if degraded:
        print(f"degraded:        shards {degraded}")
    cluster_shed = result.extra.get("cluster_shed", [])
    if cluster_shed:
        print(f"cluster_shed:    {len(cluster_shed)}")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    if args.metrics:
        merged = result.metrics
        merged.samples = sorted(
            (
                {"shard": index, **sample}
                for index, shard_result in enumerate(result.shard_results)
                for sample in shard_result.metrics.samples
            ),
            key=lambda s: (s["t"], s["shard"]),
        )
        merged.write_jsonl(args.metrics)
        print(f"metrics written: {args.metrics}")
    return 0


def _checkpoint_restore(
    service: SchedulingService,
    args: argparse.Namespace,
    metrics: MetricsRegistry,
    log: SubmissionLog,
    tracer=None,
) -> SchedulingService:
    """Snapshot the live service, discard it, restore, and continue."""
    from repro.service.snapshot import service_from_dict, service_to_dict

    if args.checkpoint_path:
        save_snapshot(service, args.checkpoint_path)
        restored = load_snapshot(
            args.checkpoint_path,
            _make_scheduler(args),
            metrics=metrics,
            recorder=log,
        )
        where = args.checkpoint_path
    else:
        blob = json.dumps(service_to_dict(service))
        restored = service_from_dict(
            json.loads(blob),
            _make_scheduler(args),
            metrics=metrics,
            recorder=log,
        )
        where = "<memory>"
    if tracer is not None:
        restored.attach_tracer(tracer)
    print(
        f"checkpoint: t={restored.now} restored from {where} "
        f"({restored.in_flight} in flight, depth={restored.queue.depth})",
        flush=True,
    )
    return restored


if __name__ == "__main__":
    sys.exit(main())
