"""Circuit breaker tests: state machine, routing filter, shedding."""

import pytest

from repro.cluster import ClusterService, ShardConfig
from repro.cluster.router import ShardStats, make_router
from repro.errors import ClusterError, NoHealthyShardError
from repro.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerRouter,
    SupervisorConfig,
)
from repro.workloads import WorkloadConfig, generate_workload

CFG = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})


def spec_at(seed=0):
    return generate_workload(
        WorkloadConfig(n_jobs=1, m=4, load=1.0, epsilon=1.0, seed=seed)
    )[0]


def stats(k):
    return [ShardStats(index=i, m=4) for i in range(k)]


class TestStateMachine:
    def test_trips_on_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3))
        breaker.record_failure(0)
        breaker.record_failure(1)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(3)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure(0)
        breaker.record_success(1)
        breaker.record_failure(2)
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_half_opens_then_closes(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown=100)
        )
        breaker.record_failure(10)
        assert not breaker.allow(50)
        assert breaker.allow(110)  # past cooldown: probe admitted
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(111)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown=100)
        )
        breaker.record_failure(10)
        assert breaker.allow(110)
        breaker.record_failure(111)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow(150)

    def test_latency_breach_counts_as_failure(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, latency_threshold=0.1)
        )
        breaker.record_success(0, latency=0.5)
        assert breaker.state is BreakerState.OPEN

    def test_force_open_is_permanent(self):
        breaker = CircuitBreaker(BreakerConfig(cooldown=1))
        breaker.force_open()
        assert not breaker.allow(10**9)

    def test_rejects_bad_config(self):
        with pytest.raises(ClusterError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ClusterError):
            BreakerConfig(half_open_successes=0)


class TestRouterFilter:
    def test_transparent_when_all_healthy(self):
        inner = make_router("consistent-hash")
        wrapped = CircuitBreakerRouter(make_router("consistent-hash"))
        spec = spec_at()
        assert wrapped.route(spec, stats(4)) == inner.route(spec, stats(4))

    def test_open_shard_is_routed_around(self):
        router = CircuitBreakerRouter(make_router("round-robin"))
        router.breaker(1).force_open()
        picks = {router.route(spec_at(s), stats(3)) for s in range(6)}
        assert picks == {0, 2}

    def test_positional_reindex_maps_back(self):
        # least-loaded returns the stats entry's own index field; with
        # shard 0 open the healthy list is re-indexed positionally and
        # the pick must map back to the true shard index
        router = CircuitBreakerRouter(make_router("least-loaded"))
        router.breaker(0).force_open()
        shard_stats = stats(3)
        shard_stats[2].queue_depth = 5  # shard 1 is least loaded
        assert router.route(spec_at(), shard_stats) == 1

    def test_all_open_raises(self):
        router = CircuitBreakerRouter(make_router("consistent-hash"))
        for i in range(2):
            router.breaker(i).force_open()
        with pytest.raises(NoHealthyShardError):
            router.route(spec_at(), stats(2))

    def test_reset_clears_breakers(self):
        router = CircuitBreakerRouter(make_router("round-robin"))
        router.breaker(0).force_open()
        router.now = 55
        router.reset()
        assert router.breakers == {}
        assert router.now == 0


class TestClusterShedding:
    def test_no_healthy_shard_sheds_at_cluster_level(self):
        cluster = ClusterService(
            4,
            2,
            config=CFG,
            mode="inprocess",
            supervisor=SupervisorConfig(
                max_restarts=0, on_exhausted="degrade", heartbeat_every=1
            ),
        )
        cluster.start()
        specs = generate_workload(
            WorkloadConfig(n_jobs=20, m=4, load=2.0, epsilon=1.0, seed=7)
        )
        specs.sort(key=lambda sp: (sp.arrival, sp.job_id))
        half = specs[: len(specs) // 2]
        for spec in half:
            cluster.submit(spec, t=spec.arrival)
        cluster.inject_crash(0)
        cluster.inject_crash(1)
        shed_indices = [
            cluster.submit(spec, t=spec.arrival)
            for spec in specs[len(half) :]
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
