"""``repro-gateway``: serve open-loop traffic through the elastic cluster.

Generates a seeded open-loop traffic stream (Poisson, diurnal,
flash-crowd, or heavy-tailed sessions), paces it through the
fixed-timestep :class:`~repro.gateway.gateway.Gateway` into an elastic
:class:`~repro.cluster.service.ClusterService`, optionally autoscales
the active shard count, and prints per-tick progress plus a final
summary.  ``--serve PORT`` exposes the live KPI feed over HTTP
(``/kpi`` SSE, ``/kpi.jsonl``, ``/healthz``) while the run is going.

Example -- a flash crowd against 2-of-4 active shards, autoscaling on,
at full CPU speed (virtual clock), KPI history written as JSONL::

    repro-gateway --n-jobs 4000 --m 16 --process flash-crowd \\
        --shards-initial 2 --shards-max 4 --autoscale \\
        --clock virtual --kpi kpi.jsonl

Drop ``--clock virtual`` to pace the same run in real time, and add
``--serve 8787`` to watch ``curl -N localhost:8787/kpi`` while it runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cluster.config import ShardConfig
from repro.cluster.service import ClusterService
from repro.errors import ScenarioError
from repro.gateway.autoscale import Autoscaler
from repro.gateway.clock import VirtualClock, WallClock
from repro.gateway.gateway import Gateway
from repro.gateway.kpi import KpiFeed
from repro.gateway.load import ARRIVAL_PROCESSES, LoadConfig, LoadGenerator
from repro.gateway.server import KpiServer
from repro.service.queue import SHED_POLICIES


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-gateway`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-gateway",
        description=(
            "Pace an open-loop traffic stream through the elastic "
            "sharded scheduling cluster in (wall or virtual) real time."
        ),
    )
    wl = parser.add_argument_group("traffic")
    wl.add_argument("--n-jobs", type=int, default=2000, help="number of jobs")
    wl.add_argument("--m", type=int, default=16, help="total machines")
    wl.add_argument(
        "--load", type=float, default=1.0, help="offered load (1.0 = capacity)"
    )
    wl.add_argument(
        "--process",
        choices=sorted(ARRIVAL_PROCESSES),
        default="poisson",
        help="arrival process shape",
    )
    wl.add_argument(
        "--family", default="mixed", help="DAG family (or 'mixed')"
    )
    wl.add_argument(
        "--epsilon", type=float, default=1.0, help="slack parameter epsilon"
    )
    wl.add_argument("--seed", type=int, default=0, help="traffic RNG seed")
    wl.add_argument(
        "--period", type=int, default=400, help="diurnal sinusoid period"
    )
    wl.add_argument(
        "--amplitude", type=float, default=0.6, help="diurnal rate swing"
    )
    wl.add_argument(
        "--spike-fraction", type=float, default=0.2,
        help="flash-crowd: fraction of jobs in the spike",
    )
    wl.add_argument(
        "--session-alpha", type=float, default=1.5,
        help="sessions: Pareto tail exponent (> 1)",
    )

    gw = parser.add_argument_group("gateway")
    gw.add_argument(
        "--clock",
        choices=["wall", "virtual"],
        default="wall",
        help="pace against the wall clock, or run at CPU speed",
    )
    gw.add_argument(
        "--tick", type=float, default=0.05, metavar="S",
        help="wall seconds per gateway tick",
    )
    gw.add_argument(
        "--steps-per-tick", type=int, default=20, metavar="N",
        help="simulated steps per tick (the wall/sim exchange rate)",
    )
    gw.add_argument(
        "--buffer", type=int, default=4096, metavar="N",
        help="ingest buffer bound (overflow = gateway shed)",
    )
    gw.add_argument(
        "--max-dispatch", type=int, default=None, metavar="N",
        help="cap on jobs dispatched per tick (default: drain all)",
    )
    gw.add_argument(
        "--max-ticks", type=int, default=None, metavar="N",
        help="stop the loop after N ticks even if traffic remains",
    )

    cl = parser.add_argument_group("cluster")
    cl.add_argument(
        "--shards-max", type=int, default=4, metavar="K",
        help="shard units built (scale-up ceiling; m must divide)",
    )
    cl.add_argument(
        "--shards-initial", type=int, default=None, metavar="K",
        help="active shards at start (default: shards-max)",
    )
    cl.add_argument(
        "--router",
        default=None,
        help="shard placement policy (default: least-loaded, or "
        "band-aware when --coordinate is on)",
    )
    cl.add_argument(
        "--coordinate", action="store_true",
        help="attach the cluster-wide band-aware coordinator to the "
        "elastic cluster (see docs/SCHEDULING.md); scale events "
        "invalidate its ledger automatically",
    )
    cl.add_argument(
        "--scheduler",
        default="sns",
        help="per-shard scheduling policy (any registered scheduler)",
    )
    cl.add_argument(
        "--capacity", type=int, default=128,
        help="per-shard ingest queue capacity",
    )
    cl.add_argument(
        "--policy",
        choices=sorted(SHED_POLICIES),
        default="reject-lowest-density",
        help="per-shard shed policy",
    )
    cl.add_argument(
        "--max-in-flight", type=int, default=None,
        help="per-shard cap on jobs inside the engine",
    )

    sc = parser.add_argument_group("autoscaling")
    sc.add_argument(
        "--autoscale", action="store_true",
        help="let the hysteresis autoscaler drive the shard count",
    )
    sc.add_argument(
        "--shards-min", type=int, default=1, metavar="K",
        help="autoscaler floor on active shards",
    )
    sc.add_argument(
        "--high-water", type=float, default=2.0,
        help="per-shard backlog that costs as overload",
    )
    sc.add_argument(
        "--up-patience", type=int, default=1,
        help="consecutive up-votes before a scale-up commits",
    )
    sc.add_argument(
        "--down-patience", type=int, default=60,
        help="consecutive down-votes before a scale-down commits",
    )
    sc.add_argument(
        "--cooldown", type=int, default=20,
        help="ticks after a resize during which no change commits",
    )

    out = parser.add_argument_group("output")
    out.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve the live KPI feed over HTTP (0 = pick a free port)",
    )
    out.add_argument(
        "--kpi", default=None, metavar="PATH",
        help="write the KPI snapshot history to PATH as JSONL",
    )
    out.add_argument(
        "--kpi-every", type=int, default=1, metavar="N",
        help="publish a KPI snapshot every N ticks",
    )
    out.add_argument(
        "--report-every", type=int, default=0, metavar="N",
        help="print a progress line every N ticks (0 = quiet)",
    )

    spec = parser.add_argument_group("scenario")
    spec.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="run this scenario spec (.toml/.json) instead of the flags",
    )
    spec.add_argument(
        "--dump-scenario", action="store_true",
        help="print the flags as a canonical scenario TOML and exit",
    )
    return parser


def _registry():
    """The shared component registry, fully populated."""
    from repro.scenarios.components import install_default_components
    from repro.scenarios.registry import REGISTRY

    install_default_components()
    return REGISTRY


def _spec_from_args(args: argparse.Namespace):
    """Map the flag namespace onto an equivalent :class:`ScenarioSpec`."""
    from repro.scenarios.spec import ScenarioSpec

    return ScenarioSpec.from_dict(
        {
            "scenario": {
                "name": "repro-gateway",
                "mode": "gateway",
                "seed": args.seed,
            },
            "workload": {
                "kind": "open-loop",
                "n_jobs": args.n_jobs,
                "m": args.m,
                "load": args.load,
                "family": args.family,
                "epsilon": args.epsilon,
                "process": args.process,
                "period": args.period,
                "amplitude": args.amplitude,
                "spike_fraction": args.spike_fraction,
                "session_alpha": args.session_alpha,
            },
            "scheduler": {"name": args.scheduler},
            "service": {
                "capacity": args.capacity,
                "shed_policy": args.policy,
                "max_in_flight": args.max_in_flight or 0,
            },
            "cluster": {
                "router": args.router or "",
                "mode": "inprocess",  # the cluster's default; no flag
                "coordinate": args.coordinate,
            },
            "gateway": {
                "clock": args.clock,
                "tick": args.tick,
                "steps_per_tick": args.steps_per_tick,
                "buffer": args.buffer,
                "max_dispatch": args.max_dispatch or 0,
                "max_ticks": args.max_ticks or 0,
                "shards_max": args.shards_max,
                "shards_initial": args.shards_initial or 0,
                "kpi_every": args.kpi_every,
            },
            "autoscale": {
                "enabled": args.autoscale,
                "shards_min": args.shards_min,
                "high_water": args.high_water,
                "up_patience": args.up_patience,
                "down_patience": args.down_patience,
                "cooldown": args.cooldown,
            },
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-gateway`` console script."""
    args = build_parser().parse_args(argv)
    if args.scenario:
        from repro.scenarios.cli import main as scenario_main

        return scenario_main(["run", args.scenario])
    try:
        if args.dump_scenario:
            sys.stdout.write(_spec_from_args(args).to_toml())
            return 0
        _registry().get("scheduler", args.scheduler)
        if args.router is not None:
            _registry().get("router", args.router)
    except ScenarioError as exc:
        print(f"repro-gateway: {exc}", file=sys.stderr)
        return 2
    load = LoadGenerator(
        LoadConfig(
            n_jobs=args.n_jobs,
            m=args.m,
            load=args.load,
            family=args.family,
            epsilon=args.epsilon,
            seed=args.seed,
            process=args.process,
            period=args.period,
            amplitude=args.amplitude,
            spike_fraction=args.spike_fraction,
            session_alpha=args.session_alpha,
        )
    )
    component = _registry().get("scheduler", args.scheduler)
    scheduler_kwargs = (
        {"epsilon": args.epsilon}
        if component.meta.get("accepts_epsilon")
        else {}
    )
    cluster = ClusterService(
        args.m,
        args.shards_max,
        k_initial=(
            args.shards_max
            if args.shards_initial is None
            else args.shards_initial
        ),
        config=ShardConfig(
            m=1,  # overridden per shard by the machine partition
            scheduler=args.scheduler,
            scheduler_kwargs=scheduler_kwargs,
            capacity=args.capacity,
            shed_policy=args.policy,
            max_in_flight=args.max_in_flight,
        ),
        router=args.router
        or ("band-aware" if args.coordinate else "least-loaded"),
    )
    if args.coordinate:
        from repro.cluster import coordinate

        coordinate(cluster)
    autoscaler = None
    if args.autoscale:
        autoscaler = Autoscaler(
            k_min=args.shards_min,
            k_max=args.shards_max,
            high_water=args.high_water,
            up_patience=args.up_patience,
            down_patience=args.down_patience,
            cooldown=args.cooldown,
        )
    feed = KpiFeed()
    clock = VirtualClock() if args.clock == "virtual" else WallClock()
    gateway = Gateway(
        cluster,
        load,
        clock=clock,
        tick_seconds=args.tick,
        steps_per_tick=args.steps_per_tick,
        buffer_capacity=args.buffer,
        max_dispatch_per_tick=args.max_dispatch,
        autoscaler=autoscaler,
        feed=feed,
        kpi_every=args.kpi_every,
    )
    server = None
    if args.serve is not None:
        server = KpiServer(feed, port=args.serve).start()
        print(f"kpi feed:        {server.url}/kpi", flush=True)
    print(
        f"repro-gateway: {args.n_jobs} jobs, m={args.m}, "
        f"process={args.process}, load={args.load}, "
        f"shards={cluster.k_active}/{args.shards_max}, "
        f"clock={args.clock}, tick={args.tick}s "
        f"x {args.steps_per_tick} steps, "
        f"autoscale={'on' if autoscaler else 'off'}",
        flush=True,
    )
    if args.report_every:
        reporter = _Reporter(feed, args.report_every)
        reporter.start()
    try:
        result = gateway.run(max_ticks=args.max_ticks)
    finally:
        if server is not None:
            server.stop()

    summary = result.summary()
    scale_path = " -> ".join(
        str(k)
        for k in [
            result.scale_events[0].k_before if result.scale_events else
            cluster.k_active
        ]
        + [e.k_after for e in result.scale_events]
    )
    print("---")
    print(f"ticks:           {summary['ticks']}")
    print(f"sim_end:         {summary['sim_end']}")
    print(f"wall_seconds:    {summary['wall_seconds']:.3f}")
    print(f"generated:       {summary['generated']}")
    print(f"delivered:       {summary['delivered']}")
    print(f"gateway_shed:    {summary['gateway_shed']}")
    print(f"shed:            {summary['shed']}")
    print(f"completed:       {summary['completed']}")
    print(f"total_profit:    {summary['total_profit']:.4f}")
    p99 = summary["admission_latency_p99"]
    print(
        "admission_p99:   "
        + ("n/a" if p99 is None else f"{p99:.1f} steps")
    )
    print(f"scale_events:    {summary['scale_events']} ({scale_path})")
    print(f"late_ticks:      {summary['late_ticks']}")
    print(f"fingerprint:     {summary['fingerprint']}")
    if args.kpi:
        feed.write_jsonl(args.kpi)
        print(f"kpi written:     {args.kpi} ({len(feed.history())} snapshots)")
    return 0


class _Reporter:
    """Print a progress line per N published KPI snapshots.

    Runs on its own thread consuming the feed like any other client, so
    progress reporting exercises exactly the consumer path the SSE
    server uses.
    """

    def __init__(self, feed: KpiFeed, every: int) -> None:
        self.feed = feed
        self.every = every

    def start(self) -> None:
        import threading

        threading.Thread(target=self._run, daemon=True).start()

    def _run(self) -> None:
        last = 0
        while True:
            events = self.feed.wait_for(last, timeout=0.5)
            if not events:
                if self.feed.closed:
                    return
                continue
            for seq, snap in events:
                last = seq
                if snap.get("final") or snap["tick"] % self.every:
                    continue
                print(
                    f"tick={snap['tick']:>6d}  t={snap['sim_t']:>8d}  "
                    f"shards={snap['active_shards']}  "
                    f"depth={snap['queue_depth']}  "
                    f"buffered={snap['buffer_depth']}  "
                    f"shed={snap['shed_fraction']:.3f}  "
                    f"profit={snap['profit_total']:.2f}",
                    flush=True,
                )


if __name__ == "__main__":
    sys.exit(main())
