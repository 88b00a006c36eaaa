"""Pins for the four cluster configurations: fixed or elastic shard
count, each unsupervised or supervised.

One seeded in-process trace runs through every configuration (the
elastic two under the same fixed ``scale_to`` sequence); each run's
result fingerprint is pinned as a literal, so a refactor of the
cluster must reproduce all four byte for byte.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterService, ShardConfig, coordinate
from repro.core.theory import Constants
from repro.errors import ClusterError
from repro.resilience import SupervisorConfig
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

#: submission index -> active shard count applied just before it
SCALE_STEPS = {40: 2, 90: 4, 140: 1, 190: 3}


def specs():
    jobs = generate_workload(
        WorkloadConfig(n_jobs=240, m=8, load=2.5, epsilon=1.0, seed=5)
    )
    return sorted(jobs, key=lambda sp: (sp.arrival, sp.job_id))


def build(name):
    supervised = name in ("resilient", "supervised-elastic")
    elastic = name in ("elastic", "supervised-elastic")
    return ClusterService(
        8,
        4,
        k_initial=3 if elastic else None,
        config=CONFIG,
        router="least-loaded",
        supervisor=SupervisorConfig(heartbeat_every=4) if supervised else None,
    )


def fingerprint(name):
    cluster = build(name)
    coordinate(
        cluster,
        refresh_every=8,
        steal_batch=8,
        steal_margin=1.5,
        max_displaced=2,
        max_moves_per_job=8,
    )
    cluster.start()
    for i, spec in enumerate(specs()):
        if cluster.elastic and i in SCALE_STEPS:
            cluster.scale_to(SCALE_STEPS[i], t=spec.arrival)
        cluster.submit(spec, t=spec.arrival)
    result = cluster.finish()
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
        "shards": [len(r.result.records) for r in result.shard_results],
        "extra": sorted(extra),
        "cluster_shed": [
            (s.job_id, s.reason) for s in extra.get("cluster_shed", [])
        ],
        "steals": extra.get("steal_txns", {}),
        "scale": [
            (e.time, e.direction, e.k_before, e.k_after, e.shard, e.moved)
            for e in extra.get("scale_events", [])
        ],
        "metrics": result.cluster_metrics.values(),
        "profit": repr(result.total_profit),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


PINS = {
    "plain": (
        "fb26ee4bd04c205cd311b707cc26e66f"
        "5de9badfe5a048aeb057cf94048b2cb9"
    ),
    "resilient": (
        "27d61bc5973476df249ead50a422e9d3"
        "bc30697fe64ffe7903d1edb268990d1a"
    ),
    "elastic": (
        "d115972b1102178eec6d7ed8d8c3109e"
        "d3cabeca6185bbc6a435ed1be63468ff"
    ),
    "supervised-elastic": (
        "428d1779461f78380f09a0e2097609d0"
        "a92b9c3277c0087c535dfa5cfa4fa83a"
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_configuration_fingerprint_is_pinned(name):
    assert fingerprint(name) == PINS[name]


def crash_run(inject):
    """Fixed-k supervised cluster with one injected fault mid-trace."""
    cluster = build("resilient")
    jobs = specs()
    cluster.start()
    for i, spec in enumerate(jobs):
        if i == len(jobs) // 2:
            getattr(cluster, inject)(1)
        cluster.submit(spec, t=spec.arrival)
    result = cluster.finish()
    return result, cluster


def test_scale_during_crash_on_fixed_k_is_a_plain_crash():
    crashed, crash_cluster = crash_run("inject_crash")
    raced, race_cluster = crash_run("inject_scale_during_crash")
    assert race_cluster.k_active == 4
    assert "scale_events" not in raced.extra
    assert [e.action for e in raced.extra["supervision_events"]] == ["restart"]
    assert raced.records == crashed.records
    assert raced.total_profit == crashed.total_profit
    assert race_cluster.cluster_metrics.values() == (
        crash_cluster.cluster_metrics.values()
    )


def test_fixed_k_cluster_refuses_to_scale():
    cluster = build("resilient")
    with pytest.raises(ClusterError, match="elastic"):
        cluster.scale_to(2)


class TestShedDensityUsesShardConstants:
    """Cluster-level shed keys use the shards' own scheduler constants,
    not epsilon = 1: at epsilon = 0.5 the two disagree on 15 of these
    50 densities and on their order."""

    HALF = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 0.5})

    @staticmethod
    def jobs():
        jobs = generate_workload(
            WorkloadConfig(n_jobs=50, m=4, load=2.0, epsilon=0.5, seed=3)
        )
        return sorted(jobs, key=lambda sp: (sp.arrival, sp.job_id))

    @staticmethod
    def expected(spec, m=4):
        return sns_density(spec, m, Constants.from_epsilon(0.5))

    def test_density_is_the_shards_own(self):
        cluster = ClusterService(8, 2, config=self.HALF)
        cluster.start()
        shard_constants = cluster.shards[0].service.constants
        assert cluster.constants == shard_constants
        jobs = self.jobs()
        assert [cluster.density(sp) for sp in jobs] == [
            self.expected(sp) for sp in jobs
        ]
        unit = [sns_density(sp, 4, Constants.from_epsilon(1.0)) for sp in jobs]
        assert sum(cluster.density(sp) != u for sp, u in zip(jobs, unit)) == 15

    def test_no_healthy_shard_and_swept_sheds(self):
        cluster = ClusterService(
            8, 2, config=self.HALF,
            supervisor=SupervisorConfig(max_restarts=0, on_exhausted="degrade"),
        )
        jobs = self.jobs()
        cluster.start()
        for i, spec in enumerate(jobs):
            if i == 10:
                cluster.inject_crash(1)
            if i == 40:
                cluster.inject_crash(0)
            cluster.submit(spec, t=spec.arrival)
        result = cluster.finish()
        sheds = result.extra["cluster_shed"]
        reasons = {rec.reason for rec in sheds}
        assert reasons == {"no-healthy-shard", "degraded-loss"}
        by_id = {sp.job_id: sp for sp in jobs}
        assert [rec.density for rec in sheds] == [
            self.expected(by_id[rec.job_id]) for rec in sheds
        ]
