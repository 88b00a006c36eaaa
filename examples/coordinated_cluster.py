#!/usr/bin/env python
"""Cluster-wide band-aware scheduling on a flash-crowd trace.

Sharding a 16-machine service into 4 pools buys process-level
parallelism but fragments the paper's band condition: each shard
admits and parks against its own quarter-size band capacity, blind to
slack elsewhere.  This example measures what that costs on a seeded
flash-crowd stream and how much the cluster coordinator
(:mod:`repro.cluster.coordinator`, docs/SCHEDULING.md) recovers:

1. serve the trace on the monolithic k=1 service (the profit ceiling);
2. serve it on an uncoordinated k=4 cluster (the sharding profit gap);
3. attach the coordinator -- ledger-fed band-aware routing plus
   density-aware steals of parked/starved jobs -- and close the gap.

Run:  python examples/coordinated_cluster.py
"""

from repro.analysis import format_table
from repro.cluster import ClusterService, ShardConfig, coordinate
from repro.gateway import LoadConfig, LoadGenerator

M, K = 16, 4
CONFIG = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})

#: a Poisson background with 30% of all jobs landing in one spike --
#: the regime where shard-local band views are most wrong
TRAFFIC = LoadConfig(
    n_jobs=1200,
    m=M,
    load=3.0,
    family="mixed",
    epsilon=1.0,
    seed=11,
    process="flash-crowd",
    spike_fraction=0.3,
)


def build(k: int, coordinated: bool = False) -> ClusterService:
    cluster = ClusterService(
        M,
        k,
        config=CONFIG,
        router="band-aware" if coordinated else "consistent-hash",
    )
    if coordinated:
        coordinate(
            cluster,
            refresh_every=16,
            steal_batch=8,
            steal_margin=1.5,
            max_displaced=2,
            max_moves_per_job=8,
        )
    return cluster


def main() -> None:
    specs = LoadGenerator(TRAFFIC).specs()
    print(
        f"Flash crowd: {len(specs)} jobs on m={M}, "
        f"{TRAFFIC.spike_fraction:.0%} of them in one spike\n"
    )

    runs = [
        ("monolith k=1", build(1)),
        ("sharded  k=4", build(K)),
        ("coordinated k=4", build(K, coordinated=True)),
    ]
    rows = []
    baseline = None
    for name, cluster in runs:
        result = cluster.run_stream(specs)
        if baseline is None:
            baseline = result.total_profit
        counters = cluster.cluster_metrics.values()
        rows.append(
            [
                name,
                f"{result.total_profit:.1f}",
                f"{result.total_profit / baseline:.1%}",
                str(int(counters.get("steals_total", 0))),
                str(int(counters.get("steals_displaced_total", 0))),
            ]
        )
    print("Coordinated cluster vs the sharding profit gap")
    print(
        format_table(
            ["config", "profit", "% of k=1", "steals", "displaced"], rows
        )
    )

    print("done")


if __name__ == "__main__":
    main()
