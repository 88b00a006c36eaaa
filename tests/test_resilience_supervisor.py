"""Supervisor tests: liveness detection, restart budget, degradation."""

import hashlib
import json
import os
import time

import pytest

from repro.cluster import ClusterService, ShardConfig, ShardStats, coordinate
from repro.cluster import shard as shard_module
from repro.cluster.shard import fan_out
from repro.errors import (
    ClusterError,
    RestartBudgetExhausted,
    ShardFailedError,
    ShardTimeoutError,
)
from repro.gateway.load import LoadConfig, LoadGenerator
from repro.resilience import (
    DEFAULT_RPC_POLICY,
    RpcPolicy,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.workloads import WorkloadConfig, generate_workload

CFG = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})
FAST_RPC = RpcPolicy(call_timeout=1.0, retries=0)


def workload(n_jobs=80, m=8, seed=3):
    return generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=m, load=2.5, epsilon=1.0, seed=seed)
    )


def build(mode, *, k=2, m=8, supervisor=None, heartbeat_every=1,
          heartbeat_timeout=0.25, max_restarts=8, on_exhausted="raise"):
    if supervisor is None:
        supervisor = SupervisorConfig(
            heartbeat_timeout=heartbeat_timeout,
            heartbeat_every=heartbeat_every,
            max_restarts=max_restarts,
            backoff_base=0.001,
            backoff_max=0.01,
            on_exhausted=on_exhausted,
        )
    return ClusterService(
        m, k, config=CFG, mode=mode, supervisor=supervisor, rpc=FAST_RPC
    )


def mid_time(specs):
    arrivals = sorted(sp.arrival for sp in specs)
    return arrivals[len(arrivals) // 2]


class TestConfig:
    def test_rejects_bad_cadence(self):
        with pytest.raises(ClusterError):
            SupervisorConfig(heartbeat_every=0)

    def test_rejects_bad_policy(self):
        with pytest.raises(ClusterError):
            SupervisorConfig(on_exhausted="panic")

    def test_rejects_negative_budget(self):
        with pytest.raises(ClusterError):
            SupervisorConfig(max_restarts=-1)


@pytest.mark.parametrize("mode", ["inprocess", "process"])
class TestCrashRecovery:
    def test_crash_restart_is_bit_identical(self, mode):
        specs = sorted(workload(), key=lambda sp: (sp.arrival, sp.job_id))
        fault_t = mid_time(specs)

        clean = build(mode).run_stream(specs)

        cluster = build(mode)
        cluster.start()
        for spec in specs:
            if spec.arrival >= fault_t and not cluster.supervisor.events:
                cluster.inject_crash(0)
            cluster.submit(spec, t=spec.arrival)
        chaos = cluster.finish()

        assert cluster.supervisor.events, "the crash was never detected"
        assert cluster.supervisor.events[0].reason == "crash"
        assert chaos.records == clean.records
        assert chaos.total_profit == clean.total_profit

    def test_hang_detected_within_deadline(self, mode):
        specs = sorted(workload(), key=lambda sp: (sp.arrival, sp.job_id))
        fault_t = mid_time(specs)
        deadline = 0.25

        cluster = build(mode, heartbeat_timeout=deadline)
        cluster.start()
        injected = False
        for spec in specs:
            if spec.arrival >= fault_t and not injected:
                cluster.inject_hang(0, 2.0)
                injected = True
            cluster.submit(spec, t=spec.arrival)
        result = cluster.finish()

        events = cluster.supervisor.events
        assert any(e.reason == "hang" for e in events)
        hang = next(e for e in events if e.reason == "hang")
        # detection latency is bounded by the probe deadline (plus
        # rpc-level noise: one call_timeout if a fence hit it first)
        assert hang.detection_seconds <= deadline + FAST_RPC.call_timeout
        # and the run still matches the fault-free one
        clean = build(mode).run_stream(specs)
        assert result.records == clean.records


class TestBudget:
    def test_exhausted_budget_raises_with_summary(self):
        specs = sorted(workload(), key=lambda sp: (sp.arrival, sp.job_id))
        fault_t = mid_time(specs)
        cluster = build("inprocess", max_restarts=0, on_exhausted="raise")
        cluster.start()
        with pytest.raises(RestartBudgetExhausted) as excinfo:
            for spec in specs:
                if spec.arrival >= fault_t:
                    cluster.inject_crash(0)
                cluster.submit(spec, t=spec.arrival)
            cluster.finish()
        exc = excinfo.value
        summary = exc.summary()
        assert summary["error"] == "recovery-exhausted"
        assert summary["shard"] == 0
        assert summary["fault"] == "crash"
        assert summary["last_checkpoint_log_index"] >= 0

    def test_budget_counts_restarts(self):
        specs = sorted(workload(), key=lambda sp: (sp.arrival, sp.job_id))
        fault_t = mid_time(specs)
        cluster = build("inprocess", max_restarts=2, on_exhausted="raise")
        cluster.start()
        fired = 0
        with pytest.raises(RestartBudgetExhausted):
            for spec in specs:
                if spec.arrival >= fault_t and fired < 3:
                    cluster.inject_crash(0)
                    fired += 1
                cluster.submit(spec, t=spec.arrival)
            cluster.finish()
        assert cluster.supervisor.restarts[0] == 2


class TestDegrade:
    def test_degraded_shard_is_served_around(self):
        specs = sorted(workload(n_jobs=120), key=lambda sp: (sp.arrival, sp.job_id))
        fault_t = mid_time(specs)
        cluster = build("inprocess", k=4, max_restarts=0, on_exhausted="degrade")
        cluster.start()
        injected = False
        for spec in specs:
            if spec.arrival >= fault_t and not injected:
                cluster.inject_crash(1)
                injected = True
            assert cluster.submit(spec, t=spec.arrival) != 1 or not injected
        result = cluster.finish()

        assert cluster.supervisor.degraded == {1}
        assert result.extra["degraded_shards"] == [1]
        # the degraded shard reports an empty stand-in result
        assert result.shard_results[1].result.records == {}
        # the cluster as a whole kept serving and completing work
        assert result.total_profit > 0
        assert cluster.supervisor.events[-1].action == "degrade"

    def test_degrade_events_are_recorded_once(self):
        specs = sorted(workload(), key=lambda sp: (sp.arrival, sp.job_id))
        fault_t = mid_time(specs)
        cluster = build("inprocess", k=2, max_restarts=0, on_exhausted="degrade")
        cluster.start()
        for spec in specs:
            if spec.arrival >= fault_t and not cluster.supervisor.degraded:
                cluster.inject_crash(0)
            cluster.submit(spec, t=spec.arrival)
        cluster.finish()
        degrades = [e for e in cluster.supervisor.events if e.action == "degrade"]
        assert len(degrades) == 1


class TestSupervisorObject:
    def test_existing_supervisor_instance_is_used(self):
        supervisor = ShardSupervisor(SupervisorConfig(max_restarts=1))
        cluster = ClusterService(
            4, 2, config=CFG, mode="inprocess", supervisor=supervisor
        )
        assert cluster.supervisor is supervisor

    def test_tick_respects_cadence(self):
        cluster = build("inprocess", heartbeat_every=1000)
        cluster.start()
        specs = workload(n_jobs=10)
        for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
            cluster.submit(spec, t=spec.arrival)
        # far below the cadence: no heartbeat round ever ran
        assert cluster.supervisor.events == []
        cluster.finish()


# ----------------------------------------------------------------------
# Scatter-gather fences
# ----------------------------------------------------------------------
#: SHA-256 of a durable 300-job run (records, shed, cluster_shed,
#: steal_txns counts, repr(total_profit)), computed with the one-shard-
#: at-a-time fence loops that fan_out replaced.  Both modes give it.
DURABLE_DIGEST = (
    "951d723aca48239233befe68cb5fa9d559eb0bb1e4da04d212feef492afb45d4"
)


def durable_digest(mode, tmp_path):
    specs = LoadGenerator(
        LoadConfig(n_jobs=300, m=16, load=2.0, seed=5, process="flash-crowd")
    ).specs()
    cluster = ClusterService(
        16,
        2,
        config=ShardConfig(
            m=1,
            scheduler="sns",
            scheduler_kwargs={"epsilon": 1.0},
            capacity=24,
            max_in_flight=12,
            shed_policy="reject-lowest-density",
        ),
        router="band-aware",
        mode=mode,
        supervisor=SupervisorConfig(),
        rpc=DEFAULT_RPC_POLICY,
        wal_dir=str(tmp_path / "wal"),
        wal_fsync_every=8,
        checkpoint_every=16,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    coordinate(
        cluster,
        refresh_every=16,
        steal_batch=8,
        steal_margin=1.5,
        max_displaced=2,
        max_moves_per_job=8,
    )
    for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
        cluster.submit(spec, t=spec.arrival)
    result = cluster.finish()
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
        "shed": [(s.job_id, s.time, s.reason) for s in result.shed],
        "cluster_shed": [
            (s.job_id, s.reason) for s in result.extra["cluster_shed"]
        ],
        "steals": result.extra["steal_txns"],
        "profit": repr(result.total_profit),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    # the run exercised what the digest is meant to cover
    assert result.shed and result.extra["steal_txns"]["committed"] > 0
    assert cluster.cluster_metrics.counter("checkpoints_total").value > 10
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", ["inprocess", "process"])
def test_fan_out_keeps_durable_run_pinned(mode, tmp_path):
    assert durable_digest(mode, tmp_path) == DURABLE_DIGEST


def started(mode, *, rpc=FAST_RPC, n_jobs=40, heartbeat_timeout=0.25):
    """A 2-shard cluster with some work on both shards; heartbeats only
    run when a test ticks the supervisor itself."""
    cluster = ClusterService(
        8,
        2,
        config=CFG,
        mode=mode,
        router="round-robin",
        rpc=rpc,
        supervisor=SupervisorConfig(
            heartbeat_timeout=heartbeat_timeout,
            heartbeat_every=10**6,
            backoff_base=0.001,
            backoff_max=0.01,
        ),
    )
    cluster.start()
    for spec in sorted(workload(n_jobs=n_jobs), key=lambda sp: (sp.arrival, sp.job_id)):
        cluster.submit(spec, t=spec.arrival)
    return cluster


def heartbeat_round(cluster):
    """Run one heartbeat round now, whatever the cadence."""
    supervisor = cluster.supervisor
    supervisor._ticks = supervisor.config.heartbeat_every - 1
    return supervisor.tick(cluster, cluster.now)


@pytest.mark.parametrize("mode", ["inprocess", "process"])
class TestFanOutFaults:
    def test_hung_shard_in_heartbeat_round(self, mode):
        deadline = 0.25
        cluster = started(mode, heartbeat_timeout=deadline)
        try:
            cluster.inject_hang(0, 2.0)
            events = heartbeat_round(cluster)
            assert [(e.shard, e.reason, e.action) for e in events] == [
                (0, "hang", "restart")
            ]
            assert cluster.supervisor.restarts == {0: 1}
            # detection is measured from shard 0's own send
            assert events[0].detection_seconds <= deadline + 0.1
            if mode == "process":
                assert events[0].detection_seconds >= deadline * 0.9
                # shard 1's ping reply was read in the round: nothing is
                # left in its pipe to confuse its next call
                assert not cluster.shards[1]._conn.poll(0)
            stats = cluster.shards[1].stats()
            assert stats.index == 1 and stats.alive
            assert stats.now == cluster.now
            assert heartbeat_round(cluster) == []
        finally:
            cluster.finish()

    def test_killed_shard_does_not_delay_the_others(self, mode):
        cluster = started(mode)
        try:
            cluster.inject_crash(0)
            began = time.monotonic()
            replies = fan_out(cluster.shards, "stats")
            assert time.monotonic() - began < FAST_RPC.call_timeout / 2
            assert isinstance(replies[0], ShardFailedError)
            assert replies[0].reason == "crash"
            assert replies[0].waited == 0.0
            assert isinstance(replies[1], ShardStats)
            assert replies[1].index == 1
            events = heartbeat_round(cluster)
            assert [(e.shard, e.reason) for e in events] == [(0, "crash")]
        finally:
            cluster.finish()


def test_organically_dead_worker_is_reported_at_send():
    cluster = started("process")
    try:
        worker = cluster.shards[0]._process
        worker.terminate()
        worker.join(5)
        replies = fan_out(cluster.shards, "ping", 0.5)
        assert isinstance(replies[0], ShardFailedError)
        assert replies[0].reason == "crash"
        assert isinstance(replies[1], float) and replies[1] < 0.5
    finally:
        cluster.finish()


def test_timed_out_snapshot_retries_from_the_reply_cache(
    tmp_path, monkeypatch
):
    """A fanned-out snapshot that times out once is re-sent under the
    same sequence number; the worker answers the retry from its reply
    cache instead of snapshotting twice."""
    if shard_module._mp_context().get_start_method() != "fork":
        pytest.skip("counting worker-side calls needs fork")
    log = tmp_path / "snapshots.log"
    to_dict = shard_module.service_to_dict

    def counted(service):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return to_dict(service)

    monkeypatch.setattr(shard_module, "service_to_dict", counted)
    cluster = started(
        "process", rpc=RpcPolicy(call_timeout=0.3, retries=2, backoff_base=0.01)
    )
    try:
        pids = [shard._process.pid for shard in cluster.shards]
        before = log.read_text().split()
        cluster.inject_slow(0, 0.5)
        cluster.checkpoint_all()
        after = log.read_text().split()[len(before):]
        # one snapshot per shard, though shard 0's call was sent twice
        assert sorted(after) == sorted(str(pid) for pid in pids)
        assert cluster.supervisor.events == []
        # shard 1's reply sat in its pipe past its deadline while the
        # gather waited on shard 0: it was read, not re-requested
        assert not cluster.shards[1]._conn.poll(0.2)
        # the retry's cached duplicate reply arrives, and the next call
        # skips it
        assert cluster.shards[0]._conn.poll(1.0)
        assert cluster.shards[0].stats().index == 0
    finally:
        cluster.finish()


def stall_at_next_fence(shard, seconds):
    """Buffer a worker stall behind the shard's pending submissions: it
    reaches the worker only when the next fence flushes the buffer, as
    a backlog does."""
    shard._enqueue(("sleep", seconds))


def test_fence_waits_for_the_slowest_shard_not_the_sum():
    cluster = started("process", rpc=RpcPolicy(call_timeout=2.0, retries=0))
    try:
        stall_at_next_fence(cluster.shards[0], 0.4)
        stall_at_next_fence(cluster.shards[1], 0.4)
        began = time.monotonic()
        cluster.checkpoint_all()
        # both workers drain at once; one after the other takes 0.8 s
        assert time.monotonic() - began < 0.7
        assert cluster.supervisor.events == []
    finally:
        cluster.finish()


def test_slow_shard_does_not_stretch_the_next_shards_deadline():
    deadline = 0.25
    cluster = started("process", heartbeat_timeout=deadline)
    try:
        stall_at_next_fence(cluster.shards[0], 0.15)
        stall_at_next_fence(cluster.shards[1], 2.0)
        began = time.monotonic()
        replies = fan_out(cluster.shards, "ping", deadline)
        elapsed = time.monotonic() - began
        assert isinstance(replies[0], float)
        assert isinstance(replies[1], ShardTimeoutError)
        assert deadline * 0.9 <= replies[1].waited <= deadline + 0.1
        # shard 1's deadline ran while the gather waited on shard 0:
        # the round lasts one deadline, not 0.15 s plus one
        assert elapsed < deadline + 0.1
        events = heartbeat_round(cluster)
        assert [(e.shard, e.reason) for e in events] == [(1, "hang")]
    finally:
        cluster.finish()
