"""Tests for the real-time gateway: clock, load, ingest, autoscaling.

The heavyweight invariants pinned here:

* the gateway loop under a :class:`VirtualClock` is *equivalent* to the
  offline ``run_stream`` replay of the same trace when nothing
  overflows -- pacing changes when work is handed over, not what the
  schedulers decide;
* elastic scaling conserves jobs: every submission is completed, shed,
  or expired exactly once through arbitrary up/down cycles;
* backpressure engages under overload: a tight ingest buffer sheds at
  the front door instead of growing without bound;
* the autoscaler ramps up under pressure, shrinks in quiet, and its
  hysteresis prevents flapping.
"""

import numpy as np
import pytest

from repro.cluster import ClusterService, ShardConfig
from repro.errors import ClusterError, GatewayError
from repro.gateway import (
    ARRIVAL_PROCESSES,
    Autoscaler,
    Gateway,
    IngestBuffer,
    KpiFeed,
    LoadConfig,
    LoadGenerator,
    VirtualClock,
    WallClock,
)
from repro.cluster.router import ShardStats
from repro.sim.jobs import JobSpec
from repro.workloads.dag_families import make_family


def _spec(job_id, arrival=0, profit=1.0):
    rng = np.random.default_rng(job_id)
    return JobSpec(
        job_id,
        make_family("chain")(rng),
        arrival=arrival,
        deadline=arrival + 1000,
        profit=profit,
    )


def _shard_config(**kw):
    kw.setdefault("scheduler", "sns")
    kw.setdefault("capacity", 64)
    kw.setdefault("max_in_flight", 8)
    return ShardConfig(m=1, **kw)


def _cluster(m=8, k_max=4, k_initial=None, **kw):
    return ClusterService(
        m,
        k_max,
        k_initial=k_max if k_initial is None else k_initial,
        config=_shard_config(**kw),
        router="least-loaded",
    )


class TestClocks:
    def test_virtual_clock_jumps_instantly(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.sleep_until(5.0)
        assert clock.now() == 5.0
        clock.sleep_until(2.0)  # never backward
        assert clock.now() == 5.0

    def test_wall_clock_monotonic_and_sleeps(self):
        clock = WallClock()
        t0 = clock.now()
        clock.sleep_until(t0 + 0.01)
        assert clock.now() >= t0 + 0.01
        clock.sleep_until(t0)  # in the past: returns immediately
        from repro.gateway.clock import Clock

        assert isinstance(clock, Clock)
        assert isinstance(VirtualClock(), Clock)


class TestLoadGenerator:
    @pytest.mark.parametrize("process", sorted(ARRIVAL_PROCESSES))
    def test_every_process_generates_sorted_specs(self, process):
        load = LoadGenerator(
            LoadConfig(n_jobs=120, m=8, seed=3, process=process)
        )
        specs = load.specs()
        assert len(specs) == 120
        keys = [(sp.arrival, sp.job_id) for sp in specs]
        assert keys == sorted(keys)
        assert all(sp.deadline > sp.arrival for sp in specs)
        assert all(sp.profit > 0 for sp in specs)
        assert load.horizon == specs[-1].arrival

    @pytest.mark.parametrize("process", sorted(ARRIVAL_PROCESSES))
    def test_seed_determinism(self, process):
        def fingerprint(seed):
            load = LoadGenerator(
                LoadConfig(n_jobs=80, m=8, seed=seed, process=process)
            )
            return [
                (sp.job_id, sp.arrival, sp.deadline, sp.profit)
                for sp in load
            ]

        assert fingerprint(5) == fingerprint(5)
        assert fingerprint(5) != fingerprint(6)

    def test_flash_crowd_has_a_spike(self):
        load = LoadGenerator(
            LoadConfig(
                n_jobs=400, m=8, seed=1, process="flash-crowd",
                spike_fraction=0.3,
            )
        )
        arrivals = [sp.arrival for sp in load]
        values, counts = np.unique(arrivals, return_counts=True)
        # 30% of all jobs land on one step
        assert counts.max() >= 0.3 * 400

    def test_rejects_unknown_process(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            LoadConfig(process="bogus")

    def test_specs_cached(self):
        load = LoadGenerator(LoadConfig(n_jobs=10, seed=0))
        assert load.specs() is load.specs()
        assert len(load) == 10


class TestIngestBuffer:
    def test_fifo_and_bounds(self):
        buf = IngestBuffer(capacity=2)
        s0, s1, s2 = _spec(0), _spec(1), _spec(2)
        assert buf.offer(s0) and buf.offer(s1)
        assert not buf.offer(s2)  # full: refused
        assert buf.depth == 2
        assert buf.drain() == [s0, s1]
        assert buf.depth == 0

    def test_drain_cap(self):
        buf = IngestBuffer(capacity=8)
        specs = [_spec(i) for i in range(5)]
        for sp in specs:
            buf.offer(sp)
        assert buf.drain(2) == specs[:2]
        assert buf.drain(None) == specs[2:]

    def test_capacity_validated(self):
        with pytest.raises(GatewayError):
            IngestBuffer(capacity=0)


class TestElasticCluster:
    def test_requires_even_partition(self):
        with pytest.raises(ClusterError):
            ClusterService(10, 4, k_initial=4, config=_shard_config())
        with pytest.raises(ClusterError):
            ClusterService(8, 4, k_initial=0, config=_shard_config())

    def test_starts_only_active_prefix(self):
        cluster = _cluster(k_initial=2)
        cluster.start()
        alive = [shard.alive for shard in cluster.shards]
        assert alive == [True, True, False, False]
        assert len(cluster.active_stats()) == 2
        cluster.finish()

    def test_scale_up_activates_and_splits(self):
        cluster = _cluster(k_initial=1)
        cluster.start()
        for i in range(12):
            cluster.submit(_spec(i), t=0)
        events = cluster.scale_to(2, t=0)
        assert [e.direction for e in events] == ["up"]
        assert cluster.k_active == 2
        assert cluster.shards[1].alive
        # the deepest queue was split into the newcomer
        assert events[0].moved > 0
        result = cluster.finish()
        assert len(result.records) == 12

    def test_scale_down_drains_victim(self):
        cluster = _cluster(k_initial=4)
        cluster.start()
        for i in range(16):
            cluster.submit(_spec(i), t=0)
        events = cluster.scale_to(2, t=0)
        assert [e.direction for e in events] == ["down", "down"]
        assert cluster.k_active == 2
        # victims' ingest queues emptied into the remaining prefix
        for shard in cluster.shards[2:]:
            assert shard.stats().queue_depth == 0
        result = cluster.finish()
        assert len(result.records) == 16

    def test_job_conservation_through_scale_cycles(self):
        cluster = _cluster(k_initial=1)
        cluster.start()
        n = 60
        t = 0
        for i in range(n):
            cluster.submit(_spec(i, arrival=t), t=t)
            if i % 10 == 9:
                t += 5
                cluster.advance_to(t)
                cluster.scale_to(1 + (i // 10) % 4, t=t)
        result = cluster.finish()
        accounted = len(result.records) + result.num_shed
        assert accounted == n
        ids = set(result.records) | {s.job_id for s in result.shed}
        assert ids == set(range(n))

    def test_scale_bounds_enforced(self):
        cluster = _cluster(k_initial=2)
        with pytest.raises(ClusterError):
            cluster.scale_to(0)
        with pytest.raises(ClusterError):
            cluster.scale_to(5)
        cluster.finish()

    def test_scale_events_in_result_extra(self):
        cluster = _cluster(k_initial=1)
        cluster.start()
        cluster.scale_to(3, t=0)
        result = cluster.finish()
        assert [e.k_after for e in result.extra["scale_events"]] == [2, 3]

    def test_router_only_sees_active_prefix(self):
        cluster = _cluster(k_initial=2)
        cluster.start()
        for i in range(20):
            index = cluster.submit(_spec(i), t=0)
            assert 0 <= index < 2
        cluster.finish()

    def test_live_metrics_includes_active_shard_gauge(self):
        cluster = _cluster(k_initial=3)
        cluster.start()
        values = cluster.live_metrics().values()
        assert values["active_shards"] == 3.0
        cluster.finish()


class TestAutoscaler:
    def _stats(self, k, depth_each, m=2, in_flight=0):
        return [
            ShardStats(
                index=i, m=m, queue_depth=depth_each, in_flight=in_flight,
                alive=True,
            )
            for i in range(k)
        ]

    def test_scales_up_under_pressure(self):
        auto = Autoscaler(k_min=1, k_max=4, high_water=2.0, up_patience=1)
        target = auto.decide(1, 1, self._stats(1, depth_each=20))
        assert target == 2

    def test_holds_in_band(self):
        auto = Autoscaler(k_min=1, k_max=4, high_water=4.0)
        for tick in range(10):
            assert auto.decide(tick, 2, self._stats(2, depth_each=3)) == 2

    def test_down_needs_patience(self):
        auto = Autoscaler(
            k_min=1, k_max=4, high_water=4.0, down_patience=5, cooldown=0
        )
        idle = self._stats(3, depth_each=0)
        for tick in range(4):
            assert auto.decide(tick, 3, idle) == 3
        assert auto.decide(4, 3, idle) == 2  # fifth consecutive vote

    def test_cooldown_blocks_immediate_followup(self):
        auto = Autoscaler(
            k_min=1, k_max=4, high_water=2.0, up_patience=1, cooldown=3
        )
        hot = self._stats(1, depth_each=50)
        assert auto.decide(0, 1, hot) == 2
        hot2 = self._stats(2, depth_each=50)
        for tick in range(1, 4):
            assert auto.decide(tick, 2, hot2) == 2  # cooling
        assert auto.decide(4, 2, hot2) == 3

    def test_in_flight_excess_counts_as_pressure(self):
        auto = Autoscaler(k_min=1, k_max=4, high_water=2.0, up_patience=1)
        stats = self._stats(1, depth_each=0, m=2, in_flight=30)
        assert auto.decide(0, 1, stats) == 2

    def test_decisions_recorded(self):
        auto = Autoscaler(k_min=1, k_max=2, high_water=2.0, up_patience=1)
        auto.decide(0, 1, self._stats(1, depth_each=10))
        assert len(auto.decisions) == 1
        d = auto.decisions[0]
        assert (d.vote, d.target, d.pressure) == (2, 2, 10)

    def test_validation(self):
        with pytest.raises(GatewayError):
            Autoscaler(k_min=3, k_max=2)
        with pytest.raises(GatewayError):
            Autoscaler(high_water=0.0)
        with pytest.raises(GatewayError):
            Autoscaler(up_patience=0)


class TestGatewayLoop:
    def _run(self, *, load=None, k_initial=4, autoscaler=None,
             buffer_capacity=4096, max_dispatch=None, feed=None,
             max_ticks=None, steps_per_tick=10):
        load = load or LoadGenerator(
            LoadConfig(n_jobs=200, m=8, load=1.0, seed=9)
        )
        gateway = Gateway(
            _cluster(k_initial=k_initial),
            load,
            clock=VirtualClock(),
            tick_seconds=0.01,
            steps_per_tick=steps_per_tick,
            buffer_capacity=buffer_capacity,
            max_dispatch_per_tick=max_dispatch,
            autoscaler=autoscaler,
            feed=feed,
        )
        return gateway.run(max_ticks=max_ticks)

    def test_serves_whole_stream(self):
        result = self._run()
        assert result.generated == 200
        assert result.delivered == 200
        assert result.gateway_shed == 0
        assert result.ticks > 0
        assert result.sim_end == result.ticks * 10
        accounted = len(result.cluster.records) + result.cluster.num_shed
        assert accounted == 200

    def test_no_overflow_run_equals_offline_replay(self):
        """Pacing must not change scheduling: a virtual-clock gateway
        run with ample buffer is bit-equal in profit and per-job
        outcomes to ``run_stream`` over the same trace and cluster.

        Pass-through config (no in-flight cap) and a stats-independent
        router: with backpressure, release times legitimately depend on
        *when* the clock advances (``run_stream`` only advances a shard
        at its own submissions; the gateway advances every shard every
        tick), and a load-aware router legitimately reads those fresher
        stats.  Round-robin placement + pass-through admission leave
        pacing no channel to influence outcomes -- so none is allowed.
        """
        load = LoadGenerator(LoadConfig(n_jobs=150, m=8, load=1.2, seed=4))
        config = _shard_config(max_in_flight=None)
        paced = Gateway(
            ClusterService(8, 4, k_initial=4, config=config,
                           router="round-robin"),
            load,
            clock=VirtualClock(),
            tick_seconds=0.01,
            steps_per_tick=10,
        ).run()

        offline = ClusterService(
            m=8, k=4, config=config, router="round-robin"
        ).run_stream(load.specs())

        assert paced.total_profit == offline.total_profit
        paced_records = {
            (r.job_id, r.completion_time, r.profit)
            for r in paced.cluster.records.values()
        }
        offline_records = {
            (r.job_id, r.completion_time, r.profit)
            for r in offline.records.values()
        }
        assert paced_records == offline_records

    def test_overload_hits_front_door_backpressure(self):
        load = LoadGenerator(
            LoadConfig(
                n_jobs=300, m=8, load=3.0, seed=2, process="flash-crowd",
                spike_fraction=0.4,
            )
        )
        result = self._run(
            load=load, buffer_capacity=16, max_dispatch=4
        )
        assert result.gateway_shed > 0
        assert result.delivered + result.gateway_shed == result.generated
        dropped_ids = {d.job_id for d in result.dropped}
        delivered_ids = {job_id for _, job_id, _ in result.submissions}
        assert dropped_ids.isdisjoint(delivered_ids)
        assert dropped_ids | delivered_ids == set(range(300))

    def test_max_ticks_stops_early(self):
        result = self._run(max_ticks=3)
        assert result.ticks == 3
        assert result.sim_end == 30

    def test_kpi_feed_published_and_closed(self):
        feed = KpiFeed()
        result = self._run(feed=feed)
        assert feed.closed
        history = feed.history()
        assert history[-1].get("final") is True
        assert history[-1]["total_profit"] == result.total_profit
        ticks = [s["tick"] for s in history[:-1]]
        assert ticks == sorted(ticks)
        # KPI snapshots carry the admission-latency percentiles
        assert "admission_latency_p99" in history[-2]

    def test_autoscaler_ramps_up_under_load(self):
        load = LoadGenerator(
            LoadConfig(n_jobs=400, m=8, load=1.5, seed=7)
        )
        result = self._run(
            load=load,
            k_initial=1,
            autoscaler=Autoscaler(k_min=1, k_max=4),
        )
        assert any(e.direction == "up" for e in result.scale_events)
        assert result.kpis[-1]["active_shards"] > 1

    def test_autoscaler_scales_down_when_quiet(self):
        """A stream with a long silent tail lets the down-patience
        expire and the cluster shrink."""
        load = LoadGenerator(LoadConfig(n_jobs=60, m=8, load=2.0, seed=3))
        auto = Autoscaler(
            k_min=1, k_max=4, high_water=2.0, up_patience=1,
            down_patience=3, cooldown=0,
        )
        gateway = Gateway(
            _cluster(k_initial=4),
            load,
            clock=VirtualClock(),
            tick_seconds=0.01,
            steps_per_tick=10,
            autoscaler=auto,
        )
        # run past the stream's end so the cluster idles
        result = gateway.run(max_ticks=(load.horizon // 10) + 40)
        assert any(e.direction == "down" for e in result.scale_events)

    def test_summary_shape(self):
        result = self._run(max_ticks=5)
        summary = result.summary()
        for key in (
            "ticks", "generated", "delivered", "gateway_shed", "shed",
            "total_profit", "admission_latency_p99", "fingerprint",
        ):
            assert key in summary

    def test_validation(self):
        load = LoadGenerator(LoadConfig(n_jobs=5, seed=0))
        with pytest.raises(GatewayError):
            Gateway(_cluster(), load, tick_seconds=0.0)
        with pytest.raises(GatewayError):
            Gateway(_cluster(), load, steps_per_tick=0)
        with pytest.raises(GatewayError):
            Gateway(_cluster(), load, max_dispatch_per_tick=0)
