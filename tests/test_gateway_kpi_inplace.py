"""The gateway's KPI tick reads the live shard registries in place.

Pinned here:

* every tick's in-place KPI snapshot equals the one the merged
  :meth:`ClusterService.live_metrics` roll-up gives, through window
  wrap-around, autoscaling and a killed-and-recovered shard;
* the tail-only :meth:`RingHistogram.merge_many` equals concatenating
  every window and slicing, and :func:`merged_summary` equals the
  summary of the histogram such a merge builds;
* a process-mode gateway, whose shard registries live worker-side,
  publishes the same KPI snapshots as an in-process one, tick for
  tick, from the mirrors its stats fences refresh;
* ``repro-scenario run --kpi`` writes every published snapshot, not
  only the feed's bounded history;
* ``repro-scenario chaos`` on a gateway spec honours ``cluster.mode``.
"""

import json
import pathlib
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterService, ShardConfig
from repro.cluster.shard import ProcessShard
from repro.core import SNSScheduler
from repro.dag import chain
from repro.gateway import Gateway, LoadConfig, LoadGenerator, VirtualClock
from repro.gateway.autoscale import Autoscaler
from repro.gateway.kpi import RATE_WINDOW
from repro.observability.metrics import RingHistogram, merged_summary, tail_window
from repro.resilience.chaos import ChaosInjector, ChaosSchedule
from repro.resilience.supervisor import SupervisorConfig
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.cli import main as scenario_main
from repro.scenarios.spec import ScenarioSpec, load_spec
from repro.service import SchedulingService
from repro.service.service import SYNCED_GAUGES
from repro.service.telemetry import MetricsRegistry
from repro.sim.jobs import JobSpec


GATEWAY_SPEC = (
    pathlib.Path(__file__).resolve().parents[1]
    / "examples/scenarios/chaos_gateway.toml"
)


class _MergedKpi:
    """The KPI fields as computed from one merged roll-up registry --
    the reference the in-place snapshot must reproduce exactly."""

    def __init__(self, window):
        self._marks = deque(maxlen=window)

    def fields(self, merged, sim_t, gateway_shed):
        values = merged.values()
        profit = float(values.get("profit_total", 0.0))
        submitted = float(values.get("submitted_total", 0.0))
        shed = float(values.get("shed_total", 0.0))
        offered = submitted + gateway_shed
        self._marks.append((sim_t, profit, offered))
        t0, profit0, offered0 = self._marks[0]
        span = max(1, sim_t - t0)
        rated = len(self._marks) > 1
        latency = merged.histogram_summary("admission_latency")
        return {
            "submitted_total": submitted,
            "completed_total": float(values.get("completed_total", 0.0)),
            "shed_total": shed,
            "shed_fraction": (
                (shed + gateway_shed) / offered if offered else 0.0
            ),
            "profit_total": profit,
            "profit_rate": (profit - profit0) / span if rated else 0.0,
            "arrival_rate": (offered - offered0) / span if rated else 0.0,
            "admission_latency_p50": latency.get("p50"),
            "admission_latency_p99": latency.get("p99"),
            "admission_latency_mean": latency.get("mean"),
        }


class TestInPlaceKpiDifferential:
    def test_every_tick_matches_the_merged_rollup(self):
        cluster = ClusterService(
            8,
            4,
            k_initial=1,
            config=ShardConfig(
                m=2,
                scheduler="sns",
                scheduler_kwargs={"epsilon": 1.0},
                capacity=64,
                max_in_flight=8,
            ),
            router="least-loaded",
            checkpoint_every=2000,
            fault_injector=ChaosInjector(ChaosSchedule.parse("crash:1:300")),
            supervisor=SupervisorConfig(
                heartbeat_every=1, backoff_base=0.001, backoff_max=0.01
            ),
        )
        load = LoadGenerator(
            LoadConfig(
                n_jobs=6000,
                m=8,
                load=1.5,
                family="chain",
                seed=3,
                process="flash-crowd",
            )
        )
        gateway = Gateway(
            cluster,
            load,
            clock=VirtualClock(),
            steps_per_tick=10,
            autoscaler=Autoscaler(
                k_min=1, k_max=4, down_patience=10, cooldown=5
            ),
        )
        reference = _MergedKpi(RATE_WINDOW)
        snapshot = gateway.kpi.snapshot
        mismatches = []
        observed = {}

        def checked(**kwargs):
            out = snapshot(**kwargs)
            want = reference.fields(
                cluster.live_metrics(), kwargs["sim_t"], kwargs["gateway_shed"]
            )
            got = {name: out[name] for name in want}
            if got != want:
                mismatches.append((kwargs["tick"], got, want))
            for shard in cluster.shards:
                if shard.alive:
                    count = shard.service.metrics.histogram_summary(
                        "admission_latency"
                    ).get("count", 0)
                    observed[shard.index] = max(
                        observed.get(shard.index, 0), count
                    )
            return out

        gateway.kpi.snapshot = checked
        result = gateway.run()

        assert mismatches == []
        assert len(result.kpis) == result.ticks
        # every shard's admission-latency window wrapped at least once
        assert sorted(observed) == [0, 1, 2, 3]
        assert min(observed.values()) > 1024
        assert result.scale_events
        assert [r.shard for r in result.cluster.recoveries] == [1]


def _histogram(capacity, values):
    hist = RingHistogram("h", capacity=capacity)
    for value in values:
        hist.observe(value)
    return hist


_histograms = st.builds(
    _histogram,
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=-50, max_value=50), max_size=40),
)


class TestTailMerge:
    @given(
        target=_histograms,
        others=st.lists(_histograms, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_many_equals_concatenate_then_slice(self, target, others):
        inputs = [target] + others
        window = sum((h.window() for h in inputs), [])
        count = sum(h.count for h in inputs)
        total = 0.0
        for h in inputs:
            total += h.total
        observed = [h for h in inputs if h.count]
        snapshot = [(h.window(), h.count) for h in others]

        target.merge_many(others)

        assert [(h.window(), h.count) for h in others] == snapshot
        assert target.window() == window[-target.capacity:]
        assert target.count == count
        assert target.total == total
        assert target.min == min((h.min for h in observed), default=None)
        assert target.max == max((h.max for h in observed), default=None)

    @given(
        histograms=st.lists(_histograms, min_size=1, max_size=5),
        capacity=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_tail_window_and_merged_summary(self, histograms, capacity):
        window = sum((h.window() for h in histograms), [])
        assert tail_window(histograms, capacity) == (
            window[-capacity:] if capacity else []
        )
        merged = RingHistogram("m", capacity=histograms[0].capacity)
        merged.merge_many(histograms)
        assert merged_summary(histograms) == merged.summary()


class TestRegistryReads:
    def test_value_reads_without_creating(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.counter("both").inc(1)
        reg.gauge("both").set(5)
        assert [reg.value(n) for n in ("n", "both", "missing")] == [
            3.0, 5.0, 0.0
        ]
        assert reg.values() == {"both": 5.0, "n": 3.0}

    def test_gauges_bind_on_first_sample_and_follow_a_new_registry(self):
        service = SchedulingService(m=2, scheduler=SNSScheduler(epsilon=1.0))
        service.start()
        assert service.metrics.state_to_dict()["gauges"] == {}
        service.advance_to(5)
        first = service.metrics
        assert tuple(first.state_to_dict()["gauges"]) == SYNCED_GAUGES
        service.metrics = MetricsRegistry()
        service.advance_to(10)
        assert tuple(service.metrics.state_to_dict()["gauges"]) == SYNCED_GAUGES
        assert [s["t"] for s in service.metrics.samples] == [10]
        assert [s["t"] for s in first.samples] == [5]


def _gateway_spec(mode):
    return ScenarioSpec().with_overrides(
        {
            "name": "kpi-rollup",
            "mode": "gateway",
            "scenario.seed": 7,
            "workload.kind": "open-loop",
            "workload.process": "flash-crowd",
            "workload.n_jobs": 300,
            "workload.m": 8,
            "gateway.clock": "virtual",
            "gateway.shards_max": 2,
            "service.max_in_flight": 2,
            "cluster.mode": mode,
        }
    )


def _ticks(result):
    """A run's KPI snapshots without the wall-clock field."""
    return [
        {k: v for k, v in snap.items() if k != "wall_s"} for snap in result.kpis
    ]


class TestWorkerSideRegistries:
    def test_process_kpis_equal_inprocess_tick_for_tick(self):
        # a process shard's stats reply carries its KPI totals and new
        # admission latencies, so the mirrors read as the live registries
        kpis = {
            mode: _ticks(ScenarioBuilder(_gateway_spec(mode)).setup().run())
            for mode in ("inprocess", "process")
        }
        assert kpis["process"] and kpis["process"] == kpis["inprocess"]
        assert all(
            value is not None
            for snap in kpis["process"]
            for value in snap.values()
        )
        assert kpis["process"][-1]["admission_latency_p99"] > 0

    def test_process_kpis_equal_inprocess_through_a_crash(self):
        # a restarted worker starts a fresh mirror, as a restored
        # in-process service starts fresh histograms
        kpis = {}
        for mode in ("inprocess", "process"):
            spec = load_spec(GATEWAY_SPEC).with_overrides({
                "seed": 5,
                "faults.chaos": "crash:0:100,crash:1:420",
                "service.max_in_flight": 2,
                "cluster.mode": mode,
            })
            result = ScenarioBuilder(spec).execute().raw
            assert result.cluster.recoveries
            # queueing spreads the admission latencies the mirror keeps
            assert result.kpis[-1]["admission_latency_p99"] > 0
            kpis[mode] = _ticks(result)
        assert kpis["process"] == kpis["inprocess"]

    def test_process_kpis_equal_inprocess_after_a_scale_down(
        self, monkeypatch
    ):
        # a scale-down victim keeps finishing its running jobs as a
        # lame duck; the KPI fence must refresh its mirror too
        victims_in_flight = []
        scale_down = ClusterService._scale_down_one

        def recording_scale_down(self, t):
            if self.mode == "inprocess":
                victim = self.shards[self.k_active - 1]
                victims_in_flight.append(victim.stats().in_flight)
            return scale_down(self, t)

        monkeypatch.setattr(
            ClusterService, "_scale_down_one", recording_scale_down
        )
        kpis = {}
        for mode in ("inprocess", "process"):
            cluster = ClusterService(
                8,
                4,
                k_initial=1,
                config=ShardConfig(
                    m=1, scheduler="sns", capacity=48, max_in_flight=8
                ),
                router="least-loaded",
                mode=mode,
            )
            gateway = Gateway(
                cluster,
                LoadGenerator(
                    LoadConfig(
                        n_jobs=400, m=8, load=1.3, seed=3,
                        process="flash-crowd",
                    )
                ),
                clock=VirtualClock(),
                tick_seconds=0.01,
                steps_per_tick=10,
                buffer_capacity=64,
                autoscaler=Autoscaler(
                    k_min=1, k_max=4, high_water=2.0, up_patience=1,
                    down_patience=12, cooldown=6,
                ),
            )
            kpis[mode] = _ticks(gateway.run())
        assert any(victims_in_flight)
        assert kpis["process"] == kpis["inprocess"]

    def test_router_fences_carry_no_telemetry(self):
        shard = ProcessShard(0, ShardConfig(m=2, scheduler="sns"))
        shard.start()
        try:
            for job_id in range(6):
                shard.submit(JobSpec(job_id, chain(4), 0, 1000), 0)
            shard.advance_to(3)
            stats = shard.stats()
            assert stats.in_flight and shard.metrics.values() == {}
            assert shard.stats(telemetry=True) == stats
            assert shard.metrics.value("submitted_total") == 6.0
            assert shard.metrics.histogram_summary("admission_latency")
        finally:
            shard.finish()

    def test_inprocess_shards_publish_the_rollup(self):
        result = ScenarioBuilder(_gateway_spec("inprocess")).setup().run()
        last = result.kpis[-1]
        assert last["submitted_total"] == 300.0
        assert last["profit_total"] > 0
        assert all(value is not None for value in last.values())


class TestKpiFile:
    def test_kpi_file_keeps_every_snapshot(self, tmp_path, capsys):
        path = tmp_path / "k.jsonl"
        argv = ["run", str(GATEWAY_SPEC.parent / "gateway.toml")]
        for pair in [
            "workload.n_jobs=4000", "workload.m=8", "workload.load=1.0",
            "seed=1", "workload.process=flash-crowd", "gateway.shards_max=4",
            "service.max_in_flight=8",
        ]:
            argv += ["--set", pair]
        assert scenario_main(argv + ["--kpi", str(path)]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # more snapshots than the feed's 1024-entry history
        assert len(lines) > 1024
        assert f"({len(lines)} snapshots)" in out
        ticks = [snap["tick"] for snap in lines[:-1]]
        assert ticks == list(range(1, len(ticks) + 1))
        final = lines[-1]
        assert final["final"] is True
        printed = re.search(r"^total_profit:\s+(\S+)$", out, re.M).group(1)
        assert float(printed) == final["total_profit"]
        assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]

    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        from repro.service import telemetry

        path = tmp_path / "k.jsonl"
        telemetry.write_text_atomic(str(path), '{"tick": 1}\n')

        def fail(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(telemetry.os, "fsync", fail)
        with pytest.raises(OSError):
            telemetry.write_text_atomic(str(path), '{"tick": 2}\n')
        assert path.read_text() == '{"tick": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["k.jsonl"]


class TestChaosGatewayMode:
    def test_process_mode_builds_process_shards(self, monkeypatch, tmp_path):
        built = []
        start = ClusterService.start

        def recording_start(self):
            built.extend(type(shard) for shard in self.shards)
            return start(self)

        monkeypatch.setattr(ClusterService, "start", recording_start)
        out = tmp_path / "report.json"
        code = scenario_main([
            "chaos", str(GATEWAY_SPEC), "--set", "cluster.mode=process",
            "-o", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["ok"] is True
        assert built and set(built) == {ProcessShard}
