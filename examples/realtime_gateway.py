#!/usr/bin/env python
"""Real-time gateway: a 30-second flash crowd against an elastic cluster.

Drives the :mod:`repro.gateway` front end through a full flash-crowd
cycle: open-loop traffic at 1.2x saturation with a mid-trace arrival
spike, served by an elastic cluster that starts at one shard and lets
the autoscaler ride the crowd up to four and back down.  The run is
paced by a :class:`VirtualClock`, so the "30 seconds" of wall time --
600 ticks at 50 ms -- replay at CPU speed and the whole demo finishes
in about a second.

Along the way the gateway publishes KPI snapshots to a feed; the same
feed ``repro-scenario run --serve`` serves over SSE is consumed here to
print an autoscaler timeline.  The demo closes by re-running the exact
configuration and checking the two fingerprints match -- the
determinism contract that makes a *real-time* system regression-
testable.

Run:  python examples/realtime_gateway.py
"""

import json
import http.client

from repro.analysis import format_table
from repro.cluster import ClusterService, ShardConfig
from repro.gateway import (
    Autoscaler,
    Gateway,
    KpiFeed,
    KpiServer,
    LoadConfig,
    LoadGenerator,
    VirtualClock,
)

#: 30 wall seconds at 50 ms per tick.
TICKS = 600
TICK_SECONDS = 0.05
STEPS_PER_TICK = 10


def build(feed=None):
    """One fixed gateway configuration, rebuilt for every run below."""
    load = LoadGenerator(
        LoadConfig(
            n_jobs=1200,
            m=8,
            load=1.2,
            seed=7,
            process="flash-crowd",
            spike_fraction=0.25,
        )
    )
    cluster = ClusterService(
        8,
        4,
        k_initial=1,
        config=ShardConfig(
            m=1, scheduler="sns", capacity=64, max_in_flight=8
        ),
        router="least-loaded",
    )
    return Gateway(
        cluster,
        load,
        clock=VirtualClock(),
        tick_seconds=TICK_SECONDS,
        steps_per_tick=STEPS_PER_TICK,
        autoscaler=Autoscaler(k_min=1, k_max=4),
        feed=feed,
        kpi_every=5,
    )


def main() -> None:
    gateway = build(feed := KpiFeed())
    print(
        f"Flash crowd: {len(gateway.load)} jobs at 1.2x saturation, "
        f"spike of {gateway.load.config.spike_fraction:.0%} extra "
        "arrivals mid-trace"
    )
    print(
        f"Gateway: {TICKS} ticks x {TICK_SECONDS * 1e3:.0f} ms "
        f"({TICKS * TICK_SECONDS:.0f} s of wall time, virtual clock), "
        f"{STEPS_PER_TICK} simulated steps per tick"
    )

    # ------------------------------------------------------------------
    # 1. The run, with the KPI history served the way a dashboard
    #    would read it: over HTTP from the feed the loop publishes to.
    # ------------------------------------------------------------------
    with KpiServer(feed) as server:
        result = gateway.run(max_ticks=TICKS)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        conn.request("GET", "/kpi.jsonl")
        served = [
            json.loads(line)
            for line in conn.getresponse().read().decode().splitlines()
        ]

    # ------------------------------------------------------------------
    # 2. Autoscaler timeline, sampled from the served KPI history.
    # ------------------------------------------------------------------
    stride = max(1, len(served) // 10)
    rows = [
        [
            snap["tick"],
            snap["active_shards"],
            snap["queue_depth"],
            f"{snap['arrival_rate']:.2f}",
            f"{snap['shed_fraction']:.3f}",
            f"{snap['profit_total']:.1f}",
        ]
        for snap in served[::stride]
        if not snap.get("final")
    ]
    print(
        format_table(
            ["tick", "shards", "depth", "arrivals/step", "shed", "profit"],
            rows,
            title="Autoscaler timeline",
        )
    )
    path = " -> ".join(["1"] + [str(e.k_after) for e in result.scale_events])
    print(f"scale path: {path}")

    summary = result.summary()
    print(
        format_table(
            ["metric", "value"],
            [
                ["ticks", summary["ticks"]],
                ["jobs generated", summary["generated"]],
                ["delivered to cluster", summary["delivered"]],
                ["shed (front door)", summary["gateway_shed"]],
                ["shed (scheduler)", summary["shed"]],
                ["completed", summary["completed"]],
                ["profit", f"{summary['total_profit']:.2f}"],
                ["admission p99 (steps)",
                 f"{summary['admission_latency_p99'] or 0.0:.1f}"],
                ["kpi snapshots served", len(served)],
            ],
            title="Run summary",
        )
    )

    # ------------------------------------------------------------------
    # 3. Same seed, same clock => same run, bit for bit.
    # ------------------------------------------------------------------
    repeat = build().run(max_ticks=TICKS)
    print(f"\nfingerprint: {result.fingerprint()[:16]}...")
    print(f"fingerprint match: {repeat.fingerprint() == result.fingerprint()}")
    print("done")


if __name__ == "__main__":
    main()
