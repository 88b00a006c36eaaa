"""Tests for repro.cluster: partitioning, routers, shard handles, the
cluster service, and the telemetry roll-up.

The two load-bearing pins:

* **determinism** -- with the consistent-hash router and no coordinator,
  a k-shard in-process cluster run over a fixed trace is bit-identical
  (per-job completion records and total profit) to k independent
  ``SchedulingService`` runs over the router's partition of the trace;
* **mode equivalence** -- the multiprocessing-backed cluster produces
  the same records and profit as the in-process one, under every
  router.
"""

import os

import pytest

from repro.cluster import (
    ClusterService,
    ConsistentHashRouter,
    DensityAwareRouter,
    LeastLoadedRouter,
    ROUTERS,
    RoundRobinRouter,
    Router,
    ShardConfig,
    ShardStats,
    coordinate,
    make_router,
    make_scheduler,
    partition_machines,
)
from repro.core import SNSScheduler
from repro.errors import ClusterError
from repro.service import SchedulingService
from repro.workloads import WorkloadConfig, generate_workload

SNS_CFG = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})


def workload(n_jobs=80, m=16, load=2.5, seed=3):
    return generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=m, load=load, epsilon=1.0, seed=seed)
    )


def independent_runs(specs, router, m, k):
    """k independent services over the router's partition of specs."""
    sizes = partition_machines(m, k)
    stats = [ShardStats(index=i, m=size) for i, size in enumerate(sizes)]
    router.reset()
    parts = [[] for _ in range(k)]
    for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
        parts[router.route(spec, stats)].append(spec)
    records, profit = {}, 0.0
    for i, part in enumerate(parts):
        result = SchedulingService(
            sizes[i], SNSScheduler(epsilon=1.0)
        ).run_stream(part)
        records.update(result.result.records)
        profit += result.total_profit
    return records, profit


class TestPartition:
    def test_even_split(self):
        assert partition_machines(16, 4) == [4, 4, 4, 4]

    def test_remainder_goes_first(self):
        assert partition_machines(10, 4) == [3, 3, 2, 2]

    def test_single_shard(self):
        assert partition_machines(7, 1) == [7]

    def test_rejects_more_shards_than_machines(self):
        with pytest.raises(ClusterError):
            partition_machines(3, 4)

    def test_rejects_zero_shards(self):
        with pytest.raises(ClusterError):
            partition_machines(4, 0)


class TestConfig:
    def test_build_service_roundtrip(self):
        service = SNS_CFG.with_machines(4).build_service()
        assert service.sim.m == 4
        assert type(service.sim.scheduler).__name__ == "SNSScheduler"

    def test_make_scheduler_known_names(self):
        for name in ("sns", "fifo", "edf", "greedy"):
            kwargs = {"epsilon": 1.0} if name == "sns" else {}
            make_scheduler(name, **kwargs)

    def test_make_scheduler_unknown(self):
        with pytest.raises(ClusterError):
            make_scheduler("nope")

    def test_rejects_unknown_shed_policy(self):
        with pytest.raises(ClusterError):
            ShardConfig(m=2, shed_policy="nope")


class TestRouters:
    def _stats(self, k=4, m=4):
        return [ShardStats(index=i, m=m) for i in range(k)]

    def test_registry_complete(self):
        assert sorted(ROUTERS) == [
            "band-aware",
            "consistent-hash",
            "density-aware",
            "least-loaded",
            "round-robin",
        ]
        for name in ROUTERS:
            assert make_router(name).name == name

    def test_unknown_router(self):
        with pytest.raises(ClusterError):
            make_router("nope")

    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        stats = self._stats(3)
        specs = workload(n_jobs=6)
        picks = [router.route(sp, stats) for sp in specs[:6]]
        assert picks == [0, 1, 2, 0, 1, 2]
        router.reset()
        assert router.route(specs[0], stats) == 0

    def test_least_loaded_prefers_min_load(self):
        router = LeastLoadedRouter()
        stats = self._stats(3)
        stats[0].queue_depth = 5
        stats[1].in_flight = 2
        assert router.route(workload(n_jobs=1)[0], stats) == 2

    def test_consistent_hash_stable_and_spread(self):
        router = ConsistentHashRouter()
        stats = self._stats(4)
        specs = workload(n_jobs=200)
        first = [router.route(sp, stats) for sp in specs]
        second = [ConsistentHashRouter().route(sp, stats) for sp in specs]
        assert first == second  # placement is a pure function of the id
        assert len(set(first)) == 4  # every shard used

    def test_consistent_hash_minimal_disruption(self):
        specs = workload(n_jobs=300)
        router = ConsistentHashRouter()
        at4 = [router.route(sp, self._stats(4)) for sp in specs]
        at5 = [router.route(sp, self._stats(5)) for sp in specs]
        moved = sum(1 for a, b in zip(at4, at5) if a != b)
        # growing 4 -> 5 shards should move roughly 1/5 of jobs, not all
        assert moved < len(specs) // 2

    def test_density_aware_balances_value(self):
        router = DensityAwareRouter()
        stats = self._stats(2)
        specs = workload(n_jobs=40)
        for spec in specs:
            router.route(spec, stats)
        mass = router._mass
        assert mass[0] > 0 and mass[1] > 0
        assert abs(mass[0] - mass[1]) / max(mass) < 0.5


class TestClusterDeterminism:
    def test_matches_independent_services(self):
        """THE pin: k-shard cluster == k independent runs (records+profit)."""
        specs = workload(n_jobs=100)
        cluster = ClusterService(
            16, 4, config=SNS_CFG, router="consistent-hash", mode="inprocess"
        )
        result = cluster.run_stream(specs)
        records, profit = independent_runs(
            specs, ConsistentHashRouter(), m=16, k=4
        )
        assert result.records == records
        assert result.total_profit == profit
        assert result.num_jobs == len(specs)

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_matches_independent_services_across_k(self, k):
        specs = workload(n_jobs=60)
        cluster = ClusterService(
            16, k, config=SNS_CFG, router="consistent-hash", mode="inprocess"
        )
        result = cluster.run_stream(specs)
        records, profit = independent_runs(
            specs, ConsistentHashRouter(), m=16, k=k
        )
        assert result.records == records
        assert result.total_profit == profit

    def test_process_mode_matches_inprocess(self):
        # both modes route from one stats view refreshed every
        # stats_refresh submissions, so every router, the stats-reading
        # ones included, places and schedules alike
        config = ShardConfig(
            m=1,
            scheduler="sns",
            scheduler_kwargs={"epsilon": 1.0},
            capacity=8,
            max_in_flight=4,
        )
        for router in sorted(ROUTERS):
            for seed in (1, 2, 11):
                specs = workload(n_jobs=150, load=3.0, seed=seed)
                results = {}
                for mode in ("inprocess", "process"):
                    cluster = ClusterService(
                        16, 4, config=config, router=router, mode=mode,
                        stats_refresh=8,
                    )
                    if router == "band-aware":
                        coordinate(cluster, refresh_every=8)
                    results[mode] = cluster.run_stream(specs)
                proc, in_proc = results["process"], results["inprocess"]
                cell = (router, seed)
                assert proc.records == in_proc.records, cell
                assert proc.shed == in_proc.shed, cell
                assert proc.total_profit == in_proc.total_profit, cell
                assert (
                    proc.cluster_metrics.values()
                    == in_proc.cluster_metrics.values()
                ), cell

    def test_final_histograms_match_across_modes(self):
        # a process shard returns its whole ServiceResult, so the merged
        # registry keeps the worker-side histograms
        specs = generate_workload(WorkloadConfig(n_jobs=1000, m=16, seed=3))
        config = ShardConfig(
            m=1,
            scheduler="sns",
            scheduler_kwargs={"epsilon": 1.0},
            capacity=8,
            max_in_flight=8,
        )
        histograms = {
            mode: ClusterService(
                16, 2, config=config, router="consistent-hash", mode=mode
            )
            .run_stream(specs)
            .metrics.histograms()
            for mode in ("inprocess", "process")
        }
        assert sorted(histograms["inprocess"]) == [
            "admission_latency",
            "queue_depth",
        ]
        assert histograms["process"] == histograms["inprocess"]

    def test_gateway_admission_latency_matches_across_modes(self):
        from repro.scenarios import ScenarioBuilder, ScenarioSpec

        results = {}
        for mode in ("inprocess", "process"):
            spec = ScenarioSpec().with_overrides(
                {
                    "scenario.name": "gateway",
                    "scenario.mode": "gateway",
                    "workload.kind": "open-loop",
                    "workload.n_jobs": 400,
                    "workload.load": 1.0,
                    "cluster.router": "consistent-hash",
                    "cluster.mode": mode,
                }
            )
            results[mode] = ScenarioBuilder(spec).execute()
        fingerprints = {r.fingerprint() for r in results.values()}
        assert len(fingerprints) == 1
        summaries = [r.raw.summary() for r in results.values()]
        for key in ("admission_latency_p50", "admission_latency_p99"):
            assert summaries[0][key] is not None
            assert summaries[1][key] == summaries[0][key]

    def test_repeat_runs_identical(self):
        specs = workload(n_jobs=50)
        results = [
            ClusterService(
                16, 4, config=SNS_CFG, router="density-aware", mode="inprocess"
            ).run_stream(specs)
            for _ in range(2)
        ]
        assert results[0].records == results[1].records


class TestClusterService:
    def test_router_validated(self):
        class Bad(Router):
            name = "bad"
            needs_stats = False

            def route(self, spec, stats):
                return 99

        cluster = ClusterService(8, 2, config=SNS_CFG, router=Bad())
        with pytest.raises(ClusterError):
            cluster.submit(workload(n_jobs=1)[0], t=0)

    def test_cluster_metrics_count_routing(self):
        specs = workload(n_jobs=30)
        cluster = ClusterService(
            8, 2, config=SNS_CFG, router="round-robin", mode="inprocess"
        )
        result = cluster.run_stream(specs)
        values = result.cluster_metrics.values()
        assert values["routed_total"] == 30.0
        assert values["routed_shard_0"] == 15.0
        assert values["routed_shard_1"] == 15.0

    def test_merged_metrics_roll_up(self):
        specs = workload(n_jobs=40)
        result = ClusterService(
            8, 2, config=SNS_CFG, router="round-robin", mode="inprocess"
        ).run_stream(specs)
        merged = result.metrics.values()
        per_shard = [r.metrics.values() for r in result.shard_results]
        assert merged["completed_total"] == sum(
            v["completed_total"] for v in per_shard
        )
        assert merged["routed_total"] == 40.0

    def test_advance_to_moves_all_shards(self):
        cluster = ClusterService(
            8, 2, config=SNS_CFG, router="round-robin", mode="inprocess"
        )
        cluster.start()
        cluster.advance_to(50)
        assert all(s.stats().now == 50 for s in cluster.shards)
        cluster.finish()


class TestShardEnvFlag:
    def test_worker_sets_flag(self):
        """The shard spawner must mark worker processes so nested sweeps
        don't oversubscribe (see resolve_workers)."""
        import multiprocessing

        from repro.cluster.shard import SHARD_ENV_FLAG, _mp_context

        def probe(conn):
            from repro.cluster.shard import _shard_worker  # noqa: F401

            # _shard_worker sets the flag on entry; emulate its preamble
            os.environ[SHARD_ENV_FLAG] = "1"
            conn.send(os.environ.get(SHARD_ENV_FLAG))
            conn.close()

        ctx = _mp_context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=probe, args=(child,))
        proc.start()
        child.close()
        assert parent.recv() == "1"
        proc.join()


class TestProcessShardFinish:
    def test_worker_that_does_not_exit_is_terminated(self):
        """finish() must not leave a worker running: one still alive
        after the join timeout is terminated and reported failed."""
        from repro.cluster.shard import ProcessShard
        from repro.errors import ShardFailedError

        class SlowExit:
            """The real worker, but one whose join never sees it exit."""

            def __init__(self, real):
                self.real = real
                self.terminated = False

            def join(self, timeout=None):
                if self.terminated:
                    self.real.join(timeout)

            def is_alive(self):
                return not self.terminated

            def terminate(self):
                self.terminated = True
                self.real.terminate()

        shard = ProcessShard(0, SNS_CFG.with_machines(2))
        shard.start()
        for spec in sorted(workload(n_jobs=10), key=lambda s: s.arrival):
            shard.submit(spec, spec.arrival)
        stub = SlowExit(shard._process)
        shard._process = stub
        with pytest.raises(ShardFailedError):
            shard.finish()
        assert stub.terminated
        assert not stub.real.is_alive()
        assert not shard.alive and shard._process is None

    def test_clean_finish_reaps_the_worker(self):
        from repro.cluster.shard import ProcessShard

        shard = ProcessShard(0, SNS_CFG.with_machines(2))
        shard.start()
        process = shard._process
        result = shard.finish()
        assert result.result.records == {}
        assert not process.is_alive()
        assert not shard.alive
