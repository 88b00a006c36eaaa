"""Fault injection and recovery tests for repro.cluster.

The load-bearing pin: a supervised chaos ``crash`` -- one shard killed
mid-stream and restored from its latest checkpoint plus submission-log
replay -- loses zero admitted jobs and finishes with records and profit
equal to the fault-free run on the same trace.
"""

import pytest

from repro.cluster import ClusterService, RecoveryEvent, ShardConfig
from repro.errors import ClusterError
from repro.resilience import (
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    SupervisorConfig,
)
from repro.workloads import WorkloadConfig, generate_workload

CFG = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})
SUPERVISOR = SupervisorConfig(backoff_base=0.001, backoff_max=0.01)


def workload(n_jobs=120, m=16, load=2.5, seed=3):
    return generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=m, load=load, epsilon=1.0, seed=seed)
    )


def crashes(chaos):
    """A supervised cluster's keywords for the chaos spec ``chaos``
    (none for a fault-free, unsupervised run)."""
    if chaos is None:
        return {}
    return dict(
        supervisor=SUPERVISOR,
        fault_injector=ChaosInjector(ChaosSchedule.parse(chaos)),
    )


def run(specs, *, mode, chaos=None):
    cluster = ClusterService(
        16,
        4,
        config=CFG,
        router="consistent-hash",
        mode=mode,
        **crashes(chaos),
    )
    return cluster.run_stream(specs)


def mid_stream_time(specs):
    arrivals = sorted(sp.arrival for sp in specs)
    return arrivals[len(arrivals) // 2]


class TestOneEventCrash:
    def test_rejects_negative_time(self):
        with pytest.raises(ClusterError):
            ChaosEvent(kind="crash", shard=0, at=-1)

    def test_fires_once(self):
        specs = workload(n_jobs=40)
        kw = crashes(f"crash:0:{mid_stream_time(specs)}")
        cluster = ClusterService(16, 4, config=CFG, **kw)
        result = cluster.run_stream(specs)
        assert kw["fault_injector"].fired == [
            ChaosEvent("crash", 0, mid_stream_time(specs))
        ]
        assert len(result.recoveries) == 1

    def test_fault_injector_needs_a_supervisor(self):
        injector = ChaosInjector(ChaosSchedule.parse("crash:0:10"))
        with pytest.raises(ClusterError, match="supervisor"):
            ClusterService(16, 4, config=CFG, fault_injector=injector)


class TestRecoveryPin:
    @pytest.mark.parametrize("mode", ["inprocess", "process"])
    def test_fault_free_equality(self, mode):
        """THE pin: crash + checkpoint/replay recovery loses nothing."""
        specs = workload()
        at = mid_stream_time(specs)
        clean = run(specs, mode=mode)
        faulted = run(specs, mode=mode, chaos=f"crash:1:{at}")

        assert len(faulted.recoveries) == 1
        event = faulted.recoveries[0]
        assert isinstance(event, RecoveryEvent)
        assert event.shard == 1
        assert event.time >= at
        assert faulted.records == clean.records  # zero admitted jobs lost
        assert faulted.total_profit == clean.total_profit
        assert event.wall_seconds >= 0.0

    def test_recovery_replays_log_tail(self):
        specs = workload()
        faulted = run(
            specs, mode="inprocess", chaos=f"crash:1:{mid_stream_time(specs)}"
        )
        event = faulted.recoveries[0]
        # checkpoint predates the fault; replay covers the gap
        assert event.checkpoint_time <= event.time
        assert event.replayed >= 0

    def test_multiple_faults_different_shards(self):
        specs = workload()
        at = mid_stream_time(specs)
        clean = run(specs, mode="inprocess")
        faulted = run(
            specs, mode="inprocess", chaos=f"crash:0:{at},crash:2:{at + 20}"
        )
        assert len(faulted.recoveries) == 2
        assert faulted.records == clean.records
        assert faulted.total_profit == clean.total_profit

    def test_fault_with_scale_moves(self):
        """Checkpoints are refreshed after scale-time queue moves, so
        replay never resurrects a job that moved away: a crash of the
        donor right after a scale-up split is invisible in the result."""
        specs = sorted(workload(), key=lambda sp: (sp.arrival, sp.job_id))
        at = mid_stream_time(specs)
        first = next(i for i, sp in enumerate(specs) if sp.arrival == at)
        # one unit active until the crash; then split shard 0's queue
        # into unit 1 and, later, the deepest queues into units 2 and 3
        steps = {first: 2, first + 30: 4}
        cfg = ShardConfig(
            m=1,
            scheduler="sns",
            scheduler_kwargs={"epsilon": 1.0},
            capacity=8,
            max_in_flight=8,
        )

        def scaled_run(chaos):
            cluster = ClusterService(
                16,
                4,
                k_initial=1,
                config=cfg,
                mode="inprocess",
                **crashes(chaos),
            )
            cluster.start()
            for i, spec in enumerate(specs):
                if i in steps:
                    cluster.scale_to(steps[i], t=spec.arrival)
                cluster.submit(spec, t=spec.arrival)
            return cluster.finish()

        clean = scaled_run(None)
        faulted = scaled_run(f"crash:0:{at}")
        moved = [event.moved for event in faulted.extra["scale_events"]]
        assert len(moved) == 3 and all(moved)
        assert len(faulted.recoveries) == 1
        assert faulted.records == clean.records
        assert faulted.total_profit == clean.total_profit

    def test_dead_shard_rejects_submissions(self):
        cluster = ClusterService(8, 2, config=CFG, mode="inprocess")
        cluster.start()
        cluster.kill_shard(0)
        assert not cluster.shards[0].alive
        with pytest.raises(ClusterError):
            cluster.shards[0].submit(workload(n_jobs=1)[0], t=0)
        cluster.recover_shard(0, t=0)
        assert cluster.shards[0].alive
        cluster.finish()

    def test_process_mode_kill_terminates_worker(self):
        cluster = ClusterService(8, 2, config=CFG, mode="process")
        cluster.start()
        proc = cluster.shards[0]._process
        assert proc.is_alive()
        cluster.kill_shard(0)
        assert not proc.is_alive()
        cluster.recover_shard(0, t=0)
        assert cluster.shards[0].alive
        cluster.finish()
