"""Routing around degraded shards.

A supervised cluster whose restart budget is spent degrades a shard
and serves on without it: every placement -- a submission or a
scale-down drain -- goes over the shards not in the supervisor's
degraded set, the router returns the true index of one of them, and a
job no shard can take is shed at the cluster as ``no-healthy-shard``.

The result fingerprints below are literals, one per case and router:
a change to the routing rule must reproduce them byte for byte, and
both shard modes must give the same one.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterService, ShardConfig, coordinate
from repro.cluster.coordinator import BandLedger
from repro.cluster.router import ROUTERS, Router, ShardStats, make_router
from repro.errors import ClusterError
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


def build(case, router, mode):
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
    return cluster


def run(case, router, mode):
    cluster = build(case, router, mode)
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


#: (case, router) -> result fingerprint, the same in both shard modes
PINS = {
    ('shard-1', 'band-aware'): (
        "701fe491b3fd324f46450e1e67e38669"
        "e14a7d161196f4ed439337cbc4b3bf2e"
    ),
    ('shard-1', 'consistent-hash'): (
        "39633c51ea2796b012de09a11c76c071"
        "368320f02f2291c256ba3ead41261bec"
    ),
    ('shard-1', 'density-aware'): (
        "438d4eb7eeb19c5186bd7929b76f5a4e"
        "aa5c5ad845a932d54b37f20bd5bf9549"
    ),
    ('shard-1', 'least-loaded'): (
        "08940b7c8e3270daf736608249629f50"
        "f916fe5fdca5b6dd32334e911b09b23a"
    ),
    ('shard-1', 'round-robin'): (
        "8f290d671da60abf08cb3cf3d269d73e"
        "1b3095ab6d30da4464749b4ecde78fb9"
    ),
    ('shards-1-3', 'band-aware'): (
        "5cb45f24321091548f5fbe0e2a0c790d"
        "ea5a5eef353f8cc1257716d1c751aeb4"
    ),
    ('shards-1-3', 'consistent-hash'): (
        "501290787141f7ec65050a6a46c20828"
        "1254294d985eae5c78e4834d62374b4a"
    ),
    ('shards-1-3', 'density-aware'): (
        "2206060151a7e0471744f688a776d047"
        "d164df0860ad5a6dfb902041d612191c"
    ),
    ('shards-1-3', 'least-loaded'): (
        "acf2202c9b7f87f8bf68ac6d0a7b7f23"
        "6375387bfb9eb36438217ba5a9af5456"
    ),
    ('shards-1-3', 'round-robin'): (
        "e119e9f8260cbc5016dfad13c18ace48"
        "90eecacadef3fbd44d612f1725bd710b"
    ),
    ('all', 'round-robin'): (
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
    assert fingerprint(result) == PINS[(case, router)]


@pytest.mark.parametrize("case", ["shard-1", "shards-1-3"])
def test_band_ledger_is_never_asked_about_a_degraded_shard(monkeypatch, case):
    cluster = build(case, "band-aware", "inprocess")
    asked = []
    admits = BandLedger.admits

    def spy(ledger, spec, index):
        asked.append((index, set(cluster.degraded)))
        return admits(ledger, spec, index)

    monkeypatch.setattr(BandLedger, "admits", spy)
    cluster.run_stream(specs())
    # the ledger was consulted, also after a shard was degraded
    assert any(degraded for _, degraded in asked)
    assert [
        (index, degraded) for index, degraded in asked if index in degraded
    ] == []


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
    assert fingerprint(result) == PINS[("all", "round-robin")]


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

    def test_routers_return_true_indices_over_a_gappy_list(self):
        # with shard 0 degraded every router is handed shards 1 and 2
        # as they are, and each pick is one of their own indices
        shard_stats = stats(3)
        shard_stats[2].queue_depth = 5  # shard 1 is least loaded
        picks = {}
        for router in sorted(ROUTERS):
            cluster = supervised(router, degraded={0})
            picks[router] = [
                cluster._route_healthy(sp, shard_stats) for sp in specs()[:8]
            ]
            assert set(picks[router]) <= {1, 2}
        assert set(picks["least-loaded"]) == {1}
        assert picks["round-robin"] == [1, 2] * 4

    def test_a_pick_outside_the_healthy_list_is_refused(self):
        class Stale(Router):
            name = "stale"
            needs_stats = False

            def route(self, spec, stats):
                return 0  # the degraded shard

        cluster = supervised(Stale(), degraded={0})
        with pytest.raises(ClusterError):
            cluster._route_healthy(specs()[0], stats(3))

    def test_consistent_hash_moves_only_the_dropped_shards_jobs(self):
        # the ring hashes true shard indices, so handing the router
        # shards 0, 2 and 3 keeps every placement off shard 1 as it was
        jobs = generate_workload(
            WorkloadConfig(n_jobs=1000, m=8, load=2.5, epsilon=1.0, seed=1)
        )
        full = make_router("consistent-hash")
        gappy = make_router("consistent-hash")
        healthy = [s for s in stats(4) if s.index != 1]
        rerouted = 0
        for spec in jobs:
            before = full.route(spec, stats(4))
            after = gappy.route(spec, healthy)
            if before == 1:
                assert after in (0, 2, 3)
                rerouted += 1
            else:
                assert after == before
        assert 0 < rerouted < len(jobs)

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
