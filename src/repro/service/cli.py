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
-- with ``--chaos crash:I:T`` -- shard ``I`` crashed at simulated time
``T`` and recovered by the supervisor from its latest checkpoint plus
submission-log replay::

    repro-serve --n-jobs 5000 --m 32 --shards 4 --router least-loaded \\
        --chaos crash:1:200

Every flag that changes the result sets one dotted
:class:`~repro.scenarios.spec.ScenarioSpec` path (``--help`` names it),
and the run is built by :class:`~repro.scenarios.builder.
ScenarioBuilder`: a flag run and the run of its ``--dump-scenario``
document are the same run.  See ``docs/SCENARIOS.md`` for the table.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.scenarios.builder import ScenarioBuilder, result_fingerprint
from repro.scenarios.cli import flag_overrides, run_flags, spec_flag
from repro.scenarios.spec import ScenarioSpec
from repro.service.queue import SHED_POLICIES
from repro.service.service import SchedulingService
from repro.service.snapshot import load_snapshot, save_snapshot


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
    spec_flag(wl, "--n-jobs", "workload.n_jobs", "number of jobs")
    spec_flag(wl, "--m", "workload.m", "number of processors")
    spec_flag(wl, "--load", "workload.load", "offered load (1.0 = capacity)")
    spec_flag(wl, "--family", "workload.family", "DAG family (or 'mixed')")
    spec_flag(wl, "--epsilon", "workload.epsilon", "slack parameter epsilon")
    spec_flag(wl, "--seed", "scenario.seed", "workload RNG seed")

    srv = parser.add_argument_group("service")
    spec_flag(
        srv, "--scheduler", "scheduler.name",
        "scheduling policy (see `repro-scenario list --kind scheduler`)",
    )
    spec_flag(srv, "--capacity", "service.capacity", "ingest queue capacity")
    spec_flag(
        srv, "--policy", "service.shed_policy",
        "shed policy when the queue is full", choices=sorted(SHED_POLICIES),
    )
    spec_flag(
        srv, "--max-in-flight", "service.max_in_flight",
        "cap on jobs inside the engine (0 = unbounded)",
    )
    spec_flag(srv, "--speed", "engine.speed", "processor speed s")

    cl = parser.add_argument_group("cluster (active when --shards > 1)")
    spec_flag(cl, "--shards", "cluster.shards", "machine pools (1 = service)")
    spec_flag(
        cl, "--router", "cluster.router",
        "shard placement ('' = consistent-hash, band-aware if coordinated)",
    )
    spec_flag(
        cl, "--coordinate", "cluster.coordinate",
        "attach the band-aware coordinator: ledger-fed routing plus "
        "density-aware steals (see docs/SCHEDULING.md)",
    )
    spec_flag(
        cl, "--coordinate-every", "cluster.coordinate_every",
        "submissions between coordinator ledger refreshes and steal ticks",
    )
    spec_flag(cl, "--steal-batch", "cluster.steal_batch", "steals per tick")
    spec_flag(
        cl, "--steal-margin", "cluster.steal_margin",
        "density advantage a victim needs over each job it displaces (> 1)",
    )
    spec_flag(
        cl, "--max-displaced", "cluster.max_displaced",
        "receiver jobs displaced per steal (0 disables displacement)",
    )
    spec_flag(
        cl, "--max-moves-per-job", "cluster.max_moves_per_job",
        "lifetime cap on coordinator migrations of any one job",
    )
    spec_flag(
        cl, "--cluster-mode", "cluster.mode",
        "run shards in this process or in worker processes",
        choices=["inprocess", "process"],
    )
    spec_flag(
        cl, "--migrate-every", "cluster.migrate_every",
        "simulated steps between queued-job rebalances (0 = off)",
    )
    spec_flag(
        cl, "--checkpoint-every", "cluster.checkpoint_every",
        "checkpoint interval of a cluster that logs submissions",
    )

    res = parser.add_argument_group(
        "resilience (active with --supervise or --chaos; --shards > 1)"
    )
    spec_flag(
        res, "--supervise", "cluster.supervise",
        "supervise the shards: heartbeats, RPC deadlines, restarts; "
        "routing skips a degraded shard",
    )
    spec_flag(
        res, "--max-restarts", "cluster.max_restarts", "restarts per shard"
    )
    spec_flag(
        res, "--heartbeat-timeout", "cluster.heartbeat_timeout",
        "seconds a shard may take to answer a heartbeat",
    )
    spec_flag(
        res, "--heartbeat-every", "cluster.heartbeat_every",
        "decision points between heartbeat rounds",
    )
    spec_flag(
        res, "--on-exhausted", "cluster.on_exhausted",
        "restart budget spent: exit with an error, or degrade the shard",
        choices=["raise", "degrade"],
    )
    spec_flag(
        res, "--wal-dir", "cluster.wal_dir",
        "durable write-ahead logs for shard submissions (supervised only)",
    )
    spec_flag(
        res, "--checkpoint-dir", "cluster.checkpoint_dir",
        "digest-verified on-disk checkpoint store (supervised only)",
    )
    res.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject faults: 'kind:shard:at,...' or 'seed:N' "
        "(implies --supervise) [faults.kind = 'chaos', faults.chaos]",
    )

    out = parser.add_argument_group("output")
    out.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write JSONL metrics samples to PATH",
    )
    spec_flag(
        out, "--sample-every", "service.sample_every",
        "minimum simulated time between metric samples (0 = every step)",
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
        help="record a decision trace and write it to PATH as JSONL "
        "(inspect with repro-trace) [tracing.enabled, tracing.path]",
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


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The :class:`ScenarioSpec` the flags describe.

    Spec-path flags map one to one; only the mode (from ``--shards``),
    tracing (from ``--trace``) and faults (from ``--chaos``) are
    derived here.
    """
    clustered = getattr(args, "cluster.shards") > 1
    overrides = {
        "name": "repro-serve",
        **flag_overrides(args),
        "mode": "cluster" if clustered else "service",
        "tracing.enabled": args.trace is not None,
        "tracing.path": args.trace or "",
    }
    if args.chaos is not None:
        overrides.update({"faults.kind": "chaos", "faults.chaos": args.chaos})
    return ScenarioSpec().with_overrides(overrides)


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
    return run_flags(
        "repro-serve",
        build_parser().parse_args(argv),
        _spec_from_args,
        {"service": _serve, "cluster": _serve_cluster},
    )


def _serve(builder: ScenarioBuilder, args: argparse.Namespace) -> int:
    """Stream the workload through the single service."""
    spec = builder.spec
    service = builder.runnable
    sink = open(args.metrics, "w", encoding="utf-8") if args.metrics else None
    try:
        service.metrics.sink = sink
        service.start()
        print(
            f"repro-serve: {spec.workload.n_jobs} jobs, m={spec.workload.m}, "
            f"load={spec.workload.load}, scheduler={spec.scheduler.name}, "
            f"capacity={spec.service.capacity}, "
            f"policy={spec.service.shed_policy}",
            flush=True,
        )
        checkpointed = False
        jobs = builder.specs
        for i, job in enumerate(jobs, 1):
            if (
                args.checkpoint_at is not None
                and not checkpointed
                and job.arrival >= args.checkpoint_at
            ):
                service = _checkpoint_restore(
                    builder, service, args.checkpoint_path
                )
                checkpointed = True
            service.submit(job, t=job.arrival)
            if args.report_every and i % args.report_every == 0:
                print(_progress(service, i, len(jobs)), flush=True)
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
    print(f"fingerprint:     {result_fingerprint('service', result)}")
    if args.metrics:
        print(f"metrics written: {args.metrics}")
    _write_trace(builder)
    return 0


def _write_trace(builder: ScenarioBuilder) -> None:
    """Write the spec's trace file (if any) and announce it."""
    path = builder.write_trace()
    if path is not None:
        print(f"trace written:   {path} ({len(builder.tracer)} events)")


def _serve_cluster(builder: ScenarioBuilder, args: argparse.Namespace) -> int:
    """Serve the stream through a sharded cluster (``--shards > 1``).

    A supervised cluster whose shard exhausts its restart budget under
    ``--on-exhausted raise`` aborts the run with a structured JSON
    error summary on stderr and exit code 2.
    """
    from repro.errors import RestartBudgetExhausted, ShardFailedError

    spec = builder.spec
    c = spec.cluster
    cluster = builder.runnable
    cluster.start()
    print(
        f"repro-serve: {spec.workload.n_jobs} jobs, m={spec.workload.m}, "
        f"shards={c.shards}, mode={c.mode}, router={spec.router_name()}, "
        f"scheduler={spec.scheduler.name}, migrate_every={c.migrate_every}, "
        f"coordinate={'yes' if c.coordinate else 'no'}, "
        f"resilient={'yes' if spec.supervised() else 'no'}",
        flush=True,
    )
    jobs = builder.specs
    try:
        for i, job in enumerate(jobs, 1):
            cluster.submit(job, t=job.arrival)
            if args.report_every and i % args.report_every == 0:
                print(
                    f"t={cluster.now:>8d}  submitted={i}/{len(jobs)}",
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
    if c.coordinate:
        print(f"steals:          {int(values.get('steals_total', 0))}")
        print(
            f"displaced:       "
            f"{int(values.get('steals_displaced_total', 0))}"
        )
    print(f"total_profit:    {result.total_profit:.4f}")
    print(f"fingerprint:     {result_fingerprint('cluster', result)}")
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
    _write_trace(builder)
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
    builder: ScenarioBuilder,
    service: SchedulingService,
    path: Optional[str],
) -> SchedulingService:
    """Snapshot the live service, discard it, restore, and continue.

    The restored service keeps the live one's metrics registry,
    submission log and tracer, and gets a fresh scheduler from the
    spec's recipe.
    """
    from repro.service.snapshot import service_from_dict, service_to_dict

    keep = dict(metrics=service.metrics, recorder=service.recorder)
    if path:
        save_snapshot(service, path)
        restored = load_snapshot(path, builder.make_scheduler(), **keep)
        where = path
    else:
        blob = json.dumps(service_to_dict(service))
        restored = service_from_dict(
            json.loads(blob), builder.make_scheduler(), **keep
        )
        where = "<memory>"
    if builder.tracer is not None:
        restored.attach_tracer(builder.tracer)
    print(
        f"checkpoint: t={restored.now} restored from {where} "
        f"({restored.in_flight} in flight, depth={restored.queue.depth})",
        flush=True,
    )
    return restored


if __name__ == "__main__":
    sys.exit(main())
