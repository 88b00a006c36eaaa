"""E15 -- Sharded cluster vs single service.

Not a paper claim: this table certifies the :mod:`repro.cluster`
subsystem against the monolithic service it is built from.  For each
router it streams the same workload through a 4-shard in-process
cluster and reports completions, sheds, total profit and wall-clock
against the single-service run over all machines.

Two things to read off the table:

* routing cost -- a sharded cluster partitions the machines, so a job
  meets a pool of ``m/k`` processors and S computes its allotment (and
  admission) against that smaller pool; profit relative to the
  ``single`` row is the price of partitioning, and it varies by router
  because placement decides which shard's queue a job competes in;
* determinism -- the ``consistent-hash`` row is bit-reproducible
  (placement is a pure function of the job id), which is the
  configuration the equivalence tests pin against independent
  per-shard services.

The clusters run without a coordinator, so ``band-aware`` has no row:
with no band ledger bound it places every job on its consistent-hash
anchor, and its row would repeat ``consistent-hash``.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from repro.cluster import ClusterService, ShardConfig, make_router
from repro.cluster.router import ROUTERS
from repro.core import SNSScheduler
from repro.experiments.common import ExperimentResult
from repro.service import SchedulingService
from repro.workloads import WorkloadConfig, generate_workload

#: the routers E15 compares: every one that places without a
#: coordinator (band-aware alone needs one)
UNCOORDINATED_ROUTERS = tuple(
    name for name in sorted(ROUTERS) if name != "band-aware"
)


def workload(quick: bool = False) -> tuple[list, int]:
    """E15's stream and machine count."""
    n_jobs, m = (150, 16) if quick else (1500, 32)
    specs = generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs, m=m, load=3.0, family="mixed", epsilon=1.0, seed=7
        )
    )
    return specs, m


def cluster_runs(specs: list, m: int) -> Iterator[tuple[str, Any, float]]:
    """Stream ``specs`` through an unsupervised 4-shard in-process
    cluster per router in :data:`UNCOORDINATED_ROUTERS`; yields
    ``(router, ClusterResult, wall seconds)``.  An unsupervised cluster
    sheds only in its shards, so ``ClusterResult.num_shed`` counts
    every shed."""
    config = ShardConfig(
        m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0}
    )
    for name in UNCOORDINATED_ROUTERS:
        cluster = ClusterService(
            m, 4, config=config, router=make_router(name), mode="inprocess"
        )
        t0 = time.perf_counter()
        result = cluster.run_stream(specs)
        yield name, result, time.perf_counter() - t0


def run(quick: bool = False) -> ExperimentResult:
    """Regenerate the cluster-vs-single-service table."""
    specs, m = workload(quick)
    rows = []

    t0 = time.perf_counter()
    single = SchedulingService(m, SNSScheduler(epsilon=1.0)).run_stream(specs)
    elapsed = time.perf_counter() - t0
    rows.append(
        [
            "single",
            1,
            single.result.counters.completions,
            single.num_shed,
            round(single.total_profit, 4),
            round(elapsed, 4),
        ]
    )

    for name, result, elapsed in cluster_runs(specs, m):
        completions = sum(
            r.result.counters.completions for r in result.shard_results
        )
        rows.append(
            [
                name,
                4,
                completions,
                result.num_shed,
                round(result.total_profit, 4),
                round(elapsed, 4),
            ]
        )

    return ExperimentResult(
        key="E15",
        title="Sharded cluster vs single service",
        headers=["router", "shards", "completed", "shed", "profit", "wall (s)"],
        rows=rows,
        claim=(
            "The sharded cluster serves the same stream as the single "
            "service, with per-router profit reflecting placement quality."
        ),
    )
