"""Routing around degraded shards.

A supervised cluster whose restart budget is spent degrades a shard
and serves on without it: every placement -- a submission or a
scale-down drain -- goes over the shards not in the supervisor's
degraded set, re-indexed positionally when that set leaves gaps, and a
job no shard can take is shed at the cluster as ``no-healthy-shard``.

The result fingerprints below are literals: a change to the routing
rule must reproduce them byte for byte, under every router in both
shard modes.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterService, ShardConfig, coordinate
from repro.cluster.router import ROUTERS, ShardStats, make_router
from repro.resilience import ChaosInjector, ChaosSchedule, SupervisorConfig
from repro.service.queue import sns_density
from repro.workloads import WorkloadConfig, generate_workload

CONFIG = ShardConfig(
    m=1,
    scheduler="sns",
    scheduler_kwargs={"epsilon": 1.0},
    capacity=12,
    max_in_flight=6,
    shed_policy="reject-lowest-density",
)

#: the band-aware router routes with a coordinator; every knob is
#: spelled out so the pins do not follow a default
COORDINATION = dict(
    refresh_every=8,
    steal_batch=8,
    steal_margin=1.5,
    max_displaced=2,
    max_moves_per_job=8,
)


def degrade_on_failure(heartbeat_every=4):
    return SupervisorConfig(
        max_restarts=0, on_exhausted="degrade", heartbeat_every=heartbeat_every
    )


def specs(n_jobs=160):
    jobs = generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=8, load=2.5, epsilon=1.0, seed=5)
    )
    return sorted(jobs, key=lambda sp: (sp.arrival, sp.job_id))


def arrival_at(fraction):
    jobs = specs()
    return jobs[int(len(jobs) * fraction)].arrival


#: case name -> chaos schedule; each crash degrades its shard for good
SCHEDULES = {
    "shard-1": f"crash:1:{arrival_at(1 / 3)}",
    "shards-1-3": f"crash:1:{arrival_at(1 / 3)},crash:3:{arrival_at(2 / 3)}",
    "all": ",".join(f"crash:{i}:{arrival_at(1 / 2)}" for i in range(4)),
}


def run(case, router, mode):
    cluster = ClusterService(
        8,
        4,
        config=CONFIG,
        router=router,
        mode=mode,
        supervisor=degrade_on_failure(),
        fault_injector=ChaosInjector(ChaosSchedule.parse(SCHEDULES[case])),
    )
    if router == "band-aware":
        coordinate(cluster, **COORDINATION)
    return cluster, cluster.run_stream(specs())


def fingerprint(result):
    extra = result.extra
    payload = {
        "records": [
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
            for _, rec in sorted(result.records.items())
        ],
        "shed": [
            (s.job_id, s.time, s.reason, repr(s.density)) for s in result.shed
        ],
        "cluster_shed": [
            (s.job_id, s.time, s.reason, repr(s.density))
            for s in extra["cluster_shed"]
        ],
        "degraded": extra["degraded_shards"],
        "supervision": [
            (e.shard, e.time, e.reason, e.action)
            for e in extra["supervision_events"]
        ],
        "metrics": result.cluster_metrics.values(),
        "profit": repr(result.total_profit),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: (case, router, mode) -> result fingerprint
PINS = {
    ('shard-1', 'band-aware', 'inprocess'): (
        "52d19fa828b1145ce6fb93a54116a21f"
        "856aafc6f3bc571d6b68f08c21e1baf1"
    ),
    ('shard-1', 'band-aware', 'process'): (
        "4ca300b5e0dc28c2feafbbd42d24ed74"
        "f5ff54e01557b3845807661ffbf201a8"
    ),
    ('shard-1', 'consistent-hash', 'inprocess'): (
        "32d854630cb2266515fde1517cce6f72"
        "c5dd40f23a58f0cfdff3e56e0fc22a8a"
    ),
    ('shard-1', 'consistent-hash', 'process'): (
        "a7bb20a9d9bad247c7c6fff143eb1f6e"
        "5d57546c313601214f2e48af28d3c5b9"
    ),
    ('shard-1', 'density-aware', 'inprocess'): (
        "f0ae81e94d310495a2ae396379b3d6b7"
        "7a742fa762bc2c152f9fc6c3292cb39a"
    ),
    ('shard-1', 'density-aware', 'process'): (
        "438d4eb7eeb19c5186bd7929b76f5a4e"
        "aa5c5ad845a932d54b37f20bd5bf9549"
    ),
    ('shard-1', 'least-loaded', 'inprocess'): (
        "720bc98bc6afc5c1e79dc5f52bf028d0"
        "d0850c2192aa351dd7afabce1827ef44"
    ),
    ('shard-1', 'least-loaded', 'process'): (
        "08940b7c8e3270daf736608249629f50"
        "f916fe5fdca5b6dd32334e911b09b23a"
    ),
    ('shard-1', 'round-robin', 'inprocess'): (
        "c5d29992077e54b7081823f7d5a99894"
        "802f35c60432885a91d8ebf74cc0c46a"
    ),
    ('shard-1', 'round-robin', 'process'): (
        "8f290d671da60abf08cb3cf3d269d73e"
        "1b3095ab6d30da4464749b4ecde78fb9"
    ),
    ('shards-1-3', 'band-aware', 'inprocess'): (
        "6100c018a19ac8603667f2b586127f87"
        "20852a92f948deb31c5d76404c9a2005"
    ),
    ('shards-1-3', 'band-aware', 'process'): (
        "d38a5d5815024cd1ccc67d3d502fc011"
        "ef2e0e2a21f3f5d2c85d298245996d09"
    ),
    ('shards-1-3', 'consistent-hash', 'inprocess'): (
        "ad7da0f01015d64d3e68b8c5f876ada5"
        "4d301c3852084b113e2d1363df310da1"
    ),
    ('shards-1-3', 'consistent-hash', 'process'): (
        "b4fe059ee7c405f4929f945e065f52c3"
        "0deb31e8525bbd1268721f392be473f1"
    ),
    ('shards-1-3', 'density-aware', 'inprocess'): (
        "f97664793097ec3678e677cf018fc3ed"
        "5eee46dffc9ce757b9ba0e9b259c921e"
    ),
    ('shards-1-3', 'density-aware', 'process'): (
        "2206060151a7e0471744f688a776d047"
        "d164df0860ad5a6dfb902041d612191c"
    ),
    ('shards-1-3', 'least-loaded', 'inprocess'): (
        "7832f4454adf6789903d5f000bf400fe"
        "989ecd8b9397db0b4a00abe36bc46bd6"
    ),
    ('shards-1-3', 'least-loaded', 'process'): (
        "acf2202c9b7f87f8bf68ac6d0a7b7f23"
        "6375387bfb9eb36438217ba5a9af5456"
    ),
    ('shards-1-3', 'round-robin', 'inprocess'): (
        "c9ff7e6d26fa9b6f419c021a583876cb"
        "826327bb35d9a142a9caf500611b0995"
    ),
    ('shards-1-3', 'round-robin', 'process'): (
        "e119e9f8260cbc5016dfad13c18ace48"
        "90eecacadef3fbd44d612f1725bd710b"
    ),
    ('all', 'round-robin', 'inprocess'): (
        "e825062b9628ac6bff5a4417fecd4d03"
        "0e9009fff3d4b69c0c62097738d35705"
    ),
    ('all', 'round-robin', 'process'): (
        "14aad275940fbac1f43a59240701a98d"
        "4407d9b491add7350cea44c9844f2b28"
    ),
}


@pytest.mark.parametrize(
    "case, router, mode",
    [
        pytest.param(case, router, mode, id=f"{case}-{router}-{mode}")
        for case in ("shard-1", "shards-1-3")
        for router in sorted(ROUTERS)
        for mode in ("inprocess", "process")
    ],
)
def test_degraded_routing_pinned(case, router, mode):
    cluster, result = run(case, router, mode)
    degraded = {"shard-1": [1], "shards-1-3": [1, 3]}[case]
    assert result.extra["degraded_shards"] == degraded
    degraded_at = {
        e.shard: e.time
        for e in result.extra["supervision_events"]
        if e.action == "degrade"
    }
    for index in degraded:
        # nothing is placed on a shard once it is degraded
        assert all(t <= degraded_at[index] for t, _ in cluster.logs[index])
    assert fingerprint(result) == PINS[(case, router, mode)]


@pytest.mark.parametrize("mode", ["inprocess", "process"])
def test_all_degraded_sheds_at_the_cluster(mode):
    cluster, result = run("all", "round-robin", mode)
    assert result.extra["degraded_shards"] == [0, 1, 2, 3]
    refused = [
        rec for rec in result.extra["cluster_shed"]
        if rec.reason == "no-healthy-shard"
    ]
    assert refused
    by_id = {sp.job_id: sp for sp in specs()}
    # a refused job is ranked by its density on a shard's own pool
    assert [rec.density for rec in refused] == [
        sns_density(by_id[rec.job_id], 2, cluster.constants) for rec in refused
    ]
    assert (
        cluster.cluster_metrics.counter("cluster_shed_total").value
        == len(refused)
    )
    assert fingerprint(result) == PINS[("all", "round-robin", mode)]


def queued_cluster(k_initial, crashed, n_jobs):
    """A round-robin elastic cluster with ``crashed`` degraded and
    ``n_jobs`` submitted in one burst, so the queues are deep."""
    cluster = ClusterService(
        8,
        4,
        k_initial=k_initial,
        config=CONFIG,
        router="round-robin",
        supervisor=degrade_on_failure(heartbeat_every=1),
    )
    cluster.start()
    cluster.inject_crash(crashed)
    for spec in specs(n_jobs):
        cluster.submit(spec, t=0)
    assert cluster.degraded == {crashed}
    return cluster


class TestScaleDownDrain:
    def test_drain_routes_over_the_survivor(self):
        cluster = queued_cluster(3, crashed=0, n_jobs=80)
        queued = cluster.shards[2].stats().queue_depth
        before = len(cluster.logs[1])
        assert queued
        events = cluster.scale_to(2)
        assert [(e.direction, e.shard, e.moved) for e in events] == [
            ("down", 2, queued)
        ]
        assert len(cluster.logs[1]) - before == queued
        assert cluster.shards[2].stats().queue_depth == 0

    def test_drain_spreads_over_the_healthy_pair(self):
        cluster = queued_cluster(4, crashed=1, n_jobs=80)
        queued = cluster.shards[3].stats().queue_depth
        before = [len(log) for log in cluster.logs]
        assert queued >= 2
        (event,) = cluster.scale_to(3)
        assert event.moved == queued
        grown = [len(log) - b for log, b in zip(cluster.logs, before)]
        # round-robin alternates over shards 0 and 2
        assert grown[1] == 0 and grown[3] == 0
        assert grown[0] + grown[2] == queued
        assert abs(grown[0] - grown[2]) <= 1


def stats(k):
    return [ShardStats(index=i, m=4) for i in range(k)]


def supervised(router, degraded=()):
    cluster = ClusterService(
        16, 4, config=CONFIG, router=router, supervisor=SupervisorConfig()
    )
    cluster.supervisor.degraded.update(degraded)
    return cluster


class TestRouteHealthy:
    def test_transparent_when_all_healthy(self):
        spec = specs()[0]
        cluster = supervised("consistent-hash")
        inner = make_router("consistent-hash")
        assert cluster._route_healthy(spec, stats(4)) == inner.route(
            spec, stats(4)
        )

    def test_degraded_shard_is_routed_around(self):
        cluster = supervised("round-robin", degraded={1})
        picks = {cluster._route_healthy(sp, stats(3)) for sp in specs()[:6]}
        assert picks == {0, 2}

    def test_positional_reindex_maps_back(self):
        # least-loaded returns the stats entry's own index field; with
        # shard 0 degraded the healthy list is re-indexed positionally
        # and the pick must map back to the true shard index
        cluster = supervised("least-loaded", degraded={0})
        shard_stats = stats(3)
        shard_stats[2].queue_depth = 5  # shard 1 is least loaded
        assert cluster._route_healthy(specs()[0], shard_stats) == 1

    def test_all_degraded_returns_none(self):
        cluster = supervised("consistent-hash", degraded={0, 1})
        assert cluster._route_healthy(specs()[0], stats(2)) is None


class TestClusterShedding:
    def test_no_healthy_shard_sheds_at_cluster_level(self):
        cluster = ClusterService(
            4,
            2,
            config=CONFIG,
            mode="inprocess",
            supervisor=degrade_on_failure(heartbeat_every=1),
        )
        cluster.start()
        jobs = generate_workload(
            WorkloadConfig(n_jobs=20, m=4, load=2.0, epsilon=1.0, seed=7)
        )
        jobs.sort(key=lambda sp: (sp.arrival, sp.job_id))
        half = jobs[: len(jobs) // 2]
        for spec in half:
            cluster.submit(spec, t=spec.arrival)
        cluster.inject_crash(0)
        cluster.inject_crash(1)
        shed_indices = [
            cluster.submit(spec, t=spec.arrival)
            for spec in jobs[len(half) :]
        ]
        assert all(index == -1 for index in shed_indices)
        assert len(cluster.cluster_shed) == len(shed_indices)
        assert all(
            rec.reason == "no-healthy-shard" for rec in cluster.cluster_shed
        )
        result = cluster.finish()
        assert result.extra["cluster_shed"] == cluster.cluster_shed
        assert (
            cluster.cluster_metrics.counter("cluster_shed_total").value
            == len(shed_indices)
        )
