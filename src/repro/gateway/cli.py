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

Every flag that changes the result sets one dotted
:class:`~repro.scenarios.spec.ScenarioSpec` path (``--help`` names it),
and the run is built by :class:`~repro.scenarios.builder.
ScenarioBuilder`; the KPI server, the JSONL history and the progress
reporter attach to the built gateway's feed.  See ``docs/SCENARIOS.md``
for the table.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import Optional, Sequence

from repro.gateway.kpi import KpiFeed, snapshots_to_jsonl
from repro.gateway.load import ARRIVAL_PROCESSES
from repro.gateway.server import KpiServer
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.cli import flag_overrides, run_flags, spec_flag
from repro.scenarios.spec import ScenarioSpec
from repro.service.queue import SHED_POLICIES
from repro.service.telemetry import write_text_atomic


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
    spec_flag(wl, "--n-jobs", "workload.n_jobs", "job count", default=2000)
    spec_flag(wl, "--m", "workload.m", "total machines", default=16)
    spec_flag(wl, "--load", "workload.load", "offered load", default=1.0)
    spec_flag(
        wl, "--process", "workload.process", "arrival process shape",
        choices=sorted(ARRIVAL_PROCESSES),
    )
    spec_flag(wl, "--family", "workload.family", "DAG family (or 'mixed')")
    spec_flag(wl, "--epsilon", "workload.epsilon", "slack parameter epsilon")
    spec_flag(wl, "--seed", "scenario.seed", "traffic RNG seed")
    spec_flag(wl, "--period", "workload.period", "diurnal sinusoid period")
    spec_flag(wl, "--amplitude", "workload.amplitude", "diurnal rate swing")
    spec_flag(
        wl, "--spike-fraction", "workload.spike_fraction",
        "flash-crowd: fraction of jobs in the spike",
    )
    spec_flag(
        wl, "--session-alpha", "workload.session_alpha",
        "sessions: Pareto tail exponent (> 1)",
    )

    gw = parser.add_argument_group("gateway")
    spec_flag(
        gw, "--clock", "gateway.clock",
        "pace against the wall clock, or run at CPU speed",
        choices=["wall", "virtual"], default="wall",
    )
    spec_flag(gw, "--tick", "gateway.tick", "wall seconds per gateway tick")
    spec_flag(
        gw, "--steps-per-tick", "gateway.steps_per_tick",
        "simulated steps per tick (the wall/sim exchange rate)",
    )
    spec_flag(
        gw, "--buffer", "gateway.buffer",
        "ingest buffer bound (overflow = gateway shed)",
    )
    spec_flag(
        gw, "--max-dispatch", "gateway.max_dispatch",
        "cap on jobs dispatched per tick (0 = drain all)",
    )
    spec_flag(
        gw, "--max-ticks", "gateway.max_ticks",
        "tick limit, even if traffic remains (0 = run until drained)",
    )

    cl = parser.add_argument_group("cluster")
    spec_flag(
        cl, "--shards-max", "gateway.shards_max",
        "shard units built (scale-up ceiling; m must divide)",
    )
    spec_flag(
        cl, "--shards-initial", "gateway.shards_initial",
        "active shards at start (0 = shards-max)",
    )
    spec_flag(
        cl, "--router", "cluster.router",
        "shard placement ('' = least-loaded, band-aware if coordinated)",
    )
    spec_flag(
        cl, "--coordinate", "cluster.coordinate",
        "attach the band-aware coordinator (see docs/SCHEDULING.md); "
        "scale events invalidate its ledger automatically",
    )
    spec_flag(cl, "--scheduler", "scheduler.name", "per-shard policy")
    spec_flag(cl, "--capacity", "service.capacity", "per-shard queue bound")
    spec_flag(
        cl, "--policy", "service.shed_policy", "per-shard shed policy",
        choices=sorted(SHED_POLICIES),
    )
    spec_flag(
        cl, "--max-in-flight", "service.max_in_flight",
        "per-shard cap on jobs inside the engine (0 = unbounded)",
    )

    sc = parser.add_argument_group("autoscaling")
    spec_flag(
        sc, "--autoscale", "autoscale.enabled",
        "let the hysteresis autoscaler drive the shard count",
    )
    spec_flag(
        sc, "--shards-min", "autoscale.shards_min", "floor on active shards"
    )
    spec_flag(
        sc, "--high-water", "autoscale.high_water",
        "per-shard backlog that costs as overload",
    )
    spec_flag(
        sc, "--up-patience", "autoscale.up_patience",
        "consecutive up-votes before a scale-up commits",
    )
    spec_flag(
        sc, "--down-patience", "autoscale.down_patience",
        "consecutive down-votes before a scale-down commits",
    )
    spec_flag(
        sc, "--cooldown", "autoscale.cooldown",
        "ticks after a resize during which no change commits",
    )

    out = parser.add_argument_group("output")
    out.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve the live KPI feed over HTTP (0 = pick a free port)",
    )
    out.add_argument(
        "--kpi", default=None, metavar="PATH",
        help="write every published KPI snapshot, then the final "
        "line, to PATH as JSONL",
    )
    spec_flag(
        out, "--kpi-every", "gateway.kpi_every", "ticks per KPI snapshot"
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


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The gateway-mode :class:`ScenarioSpec` the flags describe.

    The cluster runs in-process shards (there is no ``--cluster-mode``
    flag here); every other value comes from a spec-path flag.
    """
    return ScenarioSpec().with_overrides(
        {
            "name": "repro-gateway",
            "mode": "gateway",
            "workload.kind": "open-loop",
            "cluster.mode": "inprocess",
            **flag_overrides(args),
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-gateway`` console script."""
    return run_flags(
        "repro-gateway",
        build_parser().parse_args(argv),
        _spec_from_args,
        {"gateway": _serve},
    )


def _serve(builder: ScenarioBuilder, args: argparse.Namespace) -> int:
    """Attach the KPI outputs to the built gateway, run it, summarize."""
    spec = builder.spec
    gateway = builder.runnable
    server = None
    try:
        if args.serve is not None:
            server = KpiServer(gateway.feed, port=args.serve).start()
            print(f"kpi feed:        {server.url}/kpi", flush=True)
        g = spec.gateway
        print(
            f"repro-gateway: {spec.workload.n_jobs} jobs, "
            f"m={spec.workload.m}, process={spec.workload.process}, "
            f"load={spec.workload.load}, "
            f"shards={gateway.cluster.k_active}/{g.shards_max}, "
            f"clock={g.clock}, tick={g.tick}s x {g.steps_per_tick} steps, "
            f"autoscale={'on' if spec.autoscale.enabled else 'off'}",
            flush=True,
        )
        if args.report_every:
            threading.Thread(
                target=_report,
                args=(gateway.feed, args.report_every),
                daemon=True,
            ).start()
        result = builder.run()
    finally:
        if server is not None:
            server.stop()

    summary = result.summary()
    scale_path = " -> ".join(
        str(k)
        for k in [
            result.scale_events[0].k_before if result.scale_events else
            gateway.cluster.k_active
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
        # the feed keeps a bounded history; the result keeps every
        # tick's snapshot, and the feed's newest entry is the final line
        snapshots = result.kpis + gateway.feed.history()[-1:]
        write_text_atomic(args.kpi, snapshots_to_jsonl(snapshots))
        print(f"kpi written:     {args.kpi} ({len(snapshots)} snapshots)")
    return 0


def _report(feed: KpiFeed, every: int) -> None:
    """Print a progress line per ``every`` published KPI snapshots.

    Runs on its own thread consuming the feed like any other client, so
    progress reporting exercises exactly the consumer path the SSE
    server uses.
    """
    last = 0
    while True:
        events = feed.wait_for(last, timeout=0.5)
        if not events:
            if feed.closed:
                return
            continue
        for seq, snap in events:
            last = seq
            if snap.get("final") or snap["tick"] % every:
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
