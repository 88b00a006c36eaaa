"""Replay idempotency pins: keyed replay admits each job exactly once.

Recovery in the resilient cluster is *at-least-once* delivery (a
replayed tail may overlap retried sends), made exactly-once by
idempotency keys derived from log positions.  These tests pin the
sharp version: replaying a recovered shard's log tail **twice** yields
results bit-identical to replaying it once, in both cluster modes.
"""

import pytest

from repro.cluster import ClusterService, ShardConfig
from repro.cluster.shard import make_shard
from repro.resilience import DEFAULT_RPC_POLICY, SupervisorConfig
from repro.workloads import WorkloadConfig, generate_workload

CFG = ShardConfig(m=4, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})


def workload(n_jobs=60, m=8, seed=9):
    specs = generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=m, load=2.5, epsilon=1.0, seed=seed)
    )
    specs.sort(key=lambda sp: (sp.arrival, sp.job_id))
    return specs


def mid_time(specs):
    arrivals = sorted(sp.arrival for sp in specs)
    return arrivals[len(arrivals) // 2]


@pytest.mark.parametrize("mode", ["inprocess", "process"])
class TestShardKeyDedupe:
    def test_duplicate_keys_admit_once(self, mode):
        specs = workload(n_jobs=20)
        once = make_shard(0, CFG, mode)
        once.start()
        for i, spec in enumerate(specs):
            once.submit(spec, spec.arrival, key=f"k{i}")
        single = once.finish()

        twice = make_shard(0, CFG, mode)
        twice.start()
        for i, spec in enumerate(specs):
            twice.submit(spec, spec.arrival, key=f"k{i}")
            twice.submit(spec, spec.arrival, key=f"k{i}")  # duplicate send
        double = twice.finish()

        assert double.result.records == single.result.records
        assert double.total_profit == single.total_profit

    def test_unkeyed_submissions_match_keyed(self, mode):
        # key=None preserves PR 3 semantics and keys never perturb a
        # duplicate-free stream: both runs are bit-identical
        specs = workload(n_jobs=20)
        unkeyed = make_shard(0, CFG, mode)
        unkeyed.start()
        for spec in specs:
            unkeyed.submit(spec, spec.arrival)
        plain = unkeyed.finish()

        keyed = make_shard(0, CFG, mode)
        keyed.start()
        for i, spec in enumerate(specs):
            keyed.submit(spec, spec.arrival, key=f"k{i}")
        with_keys = keyed.finish()
        assert with_keys.result.records == plain.result.records
        assert with_keys.total_profit == plain.total_profit

    def test_restore_clears_seen_keys(self, mode):
        # a restored shard must accept the replayed tail even though the
        # same keys were delivered to the previous incarnation
        specs = workload(n_jobs=12)
        shard = make_shard(0, CFG, mode)
        shard.start()
        for i, spec in enumerate(specs[:6]):
            shard.submit(spec, spec.arrival, key=f"k{i}")
        snapshot = shard.snapshot()
        shard.kill()
        shard.restore(None)
        # fresh incarnation, same keys: all must land
        for i, spec in enumerate(specs[:6]):
            shard.submit(spec, spec.arrival, key=f"k{i}")
        replayed = shard.finish()

        clean = make_shard(0, CFG, mode)
        clean.start()
        for spec in specs[:6]:
            clean.submit(spec, spec.arrival)
        baseline = clean.finish()
        assert replayed.result.records == baseline.result.records
        assert snapshot is not None


@pytest.mark.parametrize("mode", ["inprocess", "process"])
class TestDoubleReplayPin:
    def test_replaying_log_tail_twice_is_identical(self, mode):
        """Kill a shard, recover it, then replay the same tail again:
        the keyed second replay must change nothing."""
        specs = workload()
        fault_t = mid_time(specs)

        def run(extra_replays):
            cluster = ClusterService(
                8,
                2,
                config=ShardConfig(
                    m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0}
                ),
                mode=mode,
                supervisor=SupervisorConfig(
                    heartbeat_every=1,
                    heartbeat_timeout=0.25,
                    max_restarts=8,
                    backoff_base=0.001,
                    backoff_max=0.01,
                ),
                rpc=DEFAULT_RPC_POLICY,
            )
            cluster.start()
            injected = False
            replay_pending = False
            for spec in specs:
                if spec.arrival >= fault_t and not injected:
                    cluster.inject_crash(0)
                    injected = True
                    replay_pending = True
                cluster.submit(spec, t=spec.arrival)
                if replay_pending and cluster.recoveries:
                    replay_pending = False  # recovered: replay again
                    for _ in range(extra_replays):
                        event = cluster.recoveries[-1]
                        log_index, _ = cluster._load_checkpoint(event.shard)
                        tail = cluster.logs[event.shard].entries[log_index:]
                        for offset, (entry_t, tail_spec) in enumerate(
                            tail, start=log_index
                        ):
                            cluster.shards[event.shard].submit(
                                tail_spec,
                                entry_t,
                                key=cluster._submit_key(event.shard, offset),
                            )
            return cluster.finish()

        once = run(extra_replays=0)
        twice = run(extra_replays=2)
        assert twice.records == once.records
        assert twice.total_profit == once.total_profit
        assert twice.num_shed == once.num_shed

    def test_inprocess_admission_counter_unchanged(self, mode):
        """The dedupe happens before admission: the shard's engine sees
        each replayed job exactly once (pinned via completion totals)."""
        if mode != "inprocess":
            pytest.skip("counter introspection is in-process only")
        specs = workload(n_jobs=30)
        shard = make_shard(0, CFG, "inprocess")
        shard.start()
        for i, spec in enumerate(specs):
            for _ in range(3):  # triple delivery, one key
                shard.submit(spec, spec.arrival, key=f"k{i}")
        service = shard.service
        total = (
            service.queue.depth
            + service.in_flight
            + service.sim.counters.completions
            + service.sim.counters.expiries
            + len(service.shed_log)
        )
        assert total == len(specs)
        shard.finish()
