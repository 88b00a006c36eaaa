#!/usr/bin/env python
"""Sharded serving: route, crash and recover a cluster.

Walks the :mod:`repro.cluster` subsystem end to end on one overloaded
stream:

1. route the same trace through a 4-shard cluster under each router that
   places without a coordinator (band-aware needs one; without it, it
   places as consistent-hash) and compare profit against the single
   monolithic service;
2. crash a shard mid-stream and let the supervisor recover it from its
   latest checkpoint plus submission-log replay -- finishing
   bit-identically to the fault-free run.

Run:  python examples/sharded_cluster.py
"""

from repro.analysis import format_table
from repro.cluster import ClusterService, ShardConfig, make_router
from repro.cluster.router import ROUTERS
from repro.core import SNSScheduler
from repro.resilience import ChaosInjector, ChaosSchedule, SupervisorConfig
from repro.service import SchedulingService
from repro.workloads import WorkloadConfig, generate_workload

M, K = 16, 4
CONFIG = ShardConfig(
    m=1,
    scheduler="sns",
    scheduler_kwargs={"epsilon": 1.0},
    capacity=8,
    max_in_flight=8,
)


def main() -> None:
    specs = generate_workload(
        WorkloadConfig(n_jobs=400, m=M, load=3.0, epsilon=1.0, seed=7)
    )

    # -- 1. routers vs the monolithic service ---------------------------
    single = SchedulingService(
        M,
        SNSScheduler(epsilon=1.0),
        capacity=CONFIG.capacity * K,
        max_in_flight=CONFIG.max_in_flight * K,
    ).run_stream(specs)
    rows = [["single", 1, single.num_shed, round(single.total_profit, 2)]]
    for name in sorted(ROUTERS):
        if name == "band-aware":  # needs a coordinator
            continue
        result = ClusterService(
            M, K, config=CONFIG, router=make_router(name), mode="inprocess"
        ).run_stream(specs)
        rows.append(
            [name, K, result.num_shed, round(result.total_profit, 2)]
        )
    print("Routers vs single service (same stream):")
    print(format_table(["router", "shards", "shed", "profit"], rows))

    # -- 2. crash shard 1 mid-stream, recover, lose nothing -------------
    print("\nFault injection (crash shard 1 mid-stream, process mode):")
    mid = sorted(s.arrival for s in specs)[len(specs) // 2]

    def run(chaos):
        injector = ChaosInjector(ChaosSchedule.parse(chaos)) if chaos else None
        return ClusterService(
            M,
            K,
            config=CONFIG,
            router="consistent-hash",
            mode="process",
            supervisor=SupervisorConfig(backoff_base=0.001, backoff_max=0.01),
            fault_injector=injector,
        ).run_stream(specs)

    clean = run(None)
    faulted = run(f"crash:1:{mid}")
    event = faulted.recoveries[0]
    print(
        f"  recovered shard {event.shard} at t={event.time} from "
        f"checkpoint t={event.checkpoint_time}, replayed "
        f"{event.replayed} submissions in {event.wall_seconds * 1e3:.1f} ms"
    )
    print(
        f"  fault-free profit={clean.total_profit:.4f}  "
        f"faulted profit={faulted.total_profit:.4f}"
    )
    identical = (
        faulted.records == clean.records
        and faulted.total_profit == clean.total_profit
    )
    print(f"  bit-identical to fault-free run: {identical}")


if __name__ == "__main__":
    main()
