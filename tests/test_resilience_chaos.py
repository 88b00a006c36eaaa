"""Chaos harness tests: every fault class preserves bit-identity."""

import functools

import pytest

from repro.cluster import ClusterService, ShardConfig
from repro.errors import ClusterError
from repro.observability import (
    TraceRecorder,
    from_chrome,
    read_jsonl,
    to_chrome,
    to_jsonl,
    validate_trace,
    write_jsonl,
)
from repro.resilience import (
    ChaosEvent,
    ChaosSchedule,
    SupervisorConfig,
    run_chaos,
)
from repro.resilience.chaos import FAULT_KINDS
from repro.workloads import WorkloadConfig, generate_workload


def workload(n_jobs=60, m=8, seed=11):
    return generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=m, load=2.5, epsilon=1.0, seed=seed)
    )


def mid_time(specs):
    arrivals = sorted(sp.arrival for sp in specs)
    return arrivals[len(arrivals) // 2]


class TestSchedule:
    def test_generate_is_deterministic(self):
        a = ChaosSchedule.generate(7, k=4, horizon=1000)
        b = ChaosSchedule.generate(7, k=4, horizon=1000)
        assert a.events == b.events
        assert ChaosSchedule.generate(8, k=4, horizon=1000).events != a.events

    def test_parse_roundtrip(self):
        schedule = ChaosSchedule.parse("crash:0:200,hang:1:450")
        assert schedule.events == [
            ChaosEvent(kind="crash", shard=0, at=200),
            ChaosEvent(kind="hang", shard=1, at=450),
        ]
        assert ChaosSchedule.parse(schedule.spec()).events == schedule.events

    def test_parse_rejects_garbage(self):
        with pytest.raises(ClusterError):
            ChaosSchedule.parse("crash:0")
        with pytest.raises(ClusterError):
            ChaosSchedule.parse("meteor:0:10")

    @pytest.mark.parametrize(
        "text", ["crash:-1:-5", "crash:-1:5", "crash:0:-5"]
    )
    def test_parse_rejects_negative_shard_or_time(self, text):
        with pytest.raises(ClusterError, match=text):
            ChaosSchedule.parse(text)

    @pytest.mark.parametrize("text", ["crash:x:5", "crash:0:soon"])
    def test_parse_names_the_event_with_a_non_integer(self, text):
        with pytest.raises(ClusterError, match=text):
            ChaosSchedule.parse(f"hang:0:1,{text}")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ClusterError):
            ChaosEvent(kind="flood", shard=0, at=1)

    def test_events_sorted_by_time(self):
        schedule = ChaosSchedule.parse("hang:1:450,crash:0:200")
        assert [e.at for e in schedule.events] == [200, 450]


#: the routers the identity claim covers: the stats-blind and the
#: stats-reading ones (least-loaded and density-aware read every shard)
IDENTITY_ROUTERS = [
    "consistent-hash", "round-robin", "least-loaded", "density-aware",
]


def _cell_id(kind, mode, router):
    # the cluster's default router is the unsuffixed cell
    suffix = "" if router == "consistent-hash" else f"-{router}"
    return f"{kind}-{mode}{suffix}"


@pytest.mark.parametrize(
    "kind, mode, router",
    [
        pytest.param(kind, mode, router, id=_cell_id(kind, mode, router))
        for router in IDENTITY_ROUTERS
        for mode in ("inprocess", "process")
        for kind in FAULT_KINDS
    ],
)
class TestIdentityPerFault:
    def test_single_fault_preserves_identity(
        self, mode, kind, router, tmp_path, monkeypatch
    ):
        import repro.cluster.service as cluster_service

        # run_chaos builds both of its clusters through this name
        monkeypatch.setattr(
            cluster_service,
            "ClusterService",
            functools.partial(cluster_service.ClusterService, router=router),
        )
        specs = workload()
        schedule = ChaosSchedule.parse(f"{kind}:0:{mid_time(specs)}")
        report = run_chaos(
            specs,
            m=8,
            k=2,
            schedule=schedule,
            mode=mode,
            workdir=str(tmp_path),
        )
        assert report.faults_fired == 1
        assert report.identical_records, (
            f"{kind}/{mode}/{router}: lost={report.lost_jobs} "
            f"extra={report.extra_jobs}"
        )
        assert report.chaos_profit == report.clean_profit
        assert report.unaccounted == []
        assert report.ok


class TestMultiFault:
    @pytest.mark.parametrize("mode", ["inprocess", "process"])
    def test_seeded_schedule_preserves_identity(self, mode, tmp_path):
        specs = workload(n_jobs=80)
        horizon = max(sp.arrival for sp in specs)
        schedule = ChaosSchedule.generate(3, k=2, horizon=horizon, n_events=3)
        report = run_chaos(
            specs, m=8, k=2, schedule=schedule, mode=mode,
            workdir=str(tmp_path),
        )
        assert report.ok, report.to_dict()
        assert report.faults_fired == 3

    def test_repeated_crashes_on_one_shard(self, tmp_path):
        specs = workload(n_jobs=80)
        times = sorted({sp.arrival for sp in specs})
        hits = ",".join(
            f"crash:0:{times[i]}" for i in (len(times) // 4, len(times) // 2,
                                            3 * len(times) // 4)
        )
        report = run_chaos(
            specs, m=8, k=2, schedule=ChaosSchedule.parse(hits),
            mode="inprocess", workdir=str(tmp_path),
        )
        assert report.ok, report.to_dict()
        assert report.recoveries >= 3

    def test_report_dict_shape(self, tmp_path):
        specs = workload(n_jobs=40)
        report = run_chaos(
            specs, m=8, k=2,
            schedule=ChaosSchedule.parse(f"crash:1:{mid_time(specs)}"),
            mode="inprocess",
        )
        payload = report.to_dict()
        assert payload["ok"] is True
        assert set(payload) >= {
            "schedule", "mode", "clean_profit", "chaos_profit",
            "identical_records", "lost_jobs", "recoveries",
        }


class TestChaosUnderTracing:
    """Crash recovery with a live tracer: exactly-once spans.

    Shard recovery truncates the crashed shard's trace back to its
    checkpoint mark and the deterministic log-tail replay regenerates
    the dropped events exactly once -- so a chaos-run trace must pass
    every completeness invariant, carry no duplicate submissions, and
    the traced run must stay bit-identical to the untraced one.
    """

    CFG = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})

    def _run_with_crash(self, specs, fault_t, tracer=None):
        cluster = ClusterService(
            8, 2, config=self.CFG, mode="inprocess",
            supervisor=SupervisorConfig(
                heartbeat_every=4, backoff_base=0.0, backoff_max=0.0,
                max_restarts=5,
            ),
            tracer=tracer,
        )
        cluster.start()
        injected = False
        for spec in specs:
            if spec.arrival >= fault_t and not injected:
                cluster.inject_crash(0)
                injected = True
            cluster.submit(spec, t=spec.arrival)
        return cluster, cluster.finish()

    def _traced_chaos_run(self):
        specs = sorted(workload(), key=lambda sp: (sp.arrival, sp.job_id))
        tracer = TraceRecorder()
        cluster, result = self._run_with_crash(
            specs, mid_time(specs), tracer=tracer
        )
        assert cluster.supervisor.events, "the crash was never detected"
        return specs, tracer, result

    def test_recovered_trace_has_exactly_once_spans(self):
        specs, tracer, result = self._traced_chaos_run()
        assert any(ev[3] == "recovery" for ev in tracer.events)
        assert validate_trace(tracer.events) == []
        # replayed submissions did not duplicate routing: every job was
        # routed exactly once in the surviving trace
        routed = sorted(ev[4] for ev in tracer.events if ev[3] == "route")
        assert routed == sorted(sp.job_id for sp in specs)

    def test_traced_chaos_run_is_bit_identical(self):
        specs = sorted(workload(), key=lambda sp: (sp.arrival, sp.job_id))
        fault_t = mid_time(specs)
        _cluster, untraced = self._run_with_crash(specs, fault_t)
        _cluster, traced = self._run_with_crash(
            specs, fault_t, tracer=TraceRecorder()
        )
        assert traced.records == untraced.records
        assert traced.total_profit == untraced.total_profit
        assert traced.end_time == untraced.end_time

    def test_chaos_trace_round_trips_through_chrome(self, tmp_path):
        """JSONL -> Chrome -> JSONL is bit-identical on a recovery trace."""
        _specs, tracer, _result = self._traced_chaos_run()
        jsonl_path = tmp_path / "chaos.jsonl"
        write_jsonl(tracer.events, str(jsonl_path))
        recovered = from_chrome(to_chrome(read_jsonl(str(jsonl_path))))
        assert to_jsonl(recovered) == jsonl_path.read_text()
        assert validate_trace(recovered) == []
