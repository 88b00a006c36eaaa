"""Queued-job migration and crash recovery on a supervised cluster.

A migration tick moves queued jobs between shards.  Recovery restores
a shard's latest checkpoint and replays the submission log recorded
after it, so the latest checkpoint must postdate every migration, or
replay would put migrated jobs back on the shard they left.  That
invariant must hold for every cluster that logs submissions -- a
supervised cluster without a fault injector included.
"""

import pytest

from repro.cluster import ClusterService, QueueBalancer, ShardConfig
from repro.resilience import SupervisorConfig, audit_run
from repro.workloads import WorkloadConfig, generate_workload


def _specs():
    jobs = generate_workload(WorkloadConfig(n_jobs=400, m=8, load=1.2, seed=3))
    return sorted(jobs, key=lambda sp: (sp.arrival, sp.job_id))


def _run(crash_shard, crash_after_migration=1):
    """Serve the stream; crash ``crash_shard`` right after the
    submission that raises ``migrations_total`` for the
    ``crash_after_migration``-th time."""
    specs = _specs()
    cluster = ClusterService(
        8,
        2,
        config=ShardConfig(m=1, capacity=64, max_in_flight=2),
        mode="inprocess",
        migration=QueueBalancer(),
        migrate_every=20,
        supervisor=SupervisorConfig(heartbeat_every=1),
    )
    cluster.start()
    migrations = 0
    seen = 0
    crashed = False
    for spec in specs:
        cluster.submit(spec, t=spec.arrival)
        now = int(cluster.cluster_metrics.values().get("migrations_total", 0))
        if not crashed and now > migrations:
            seen += 1
            if seen == crash_after_migration:
                cluster.inject_crash(crash_shard)
                crashed = True
        migrations = now
    result = cluster.finish()
    assert crashed, "the stream never migrated a job"
    return result, specs


class TestMigrationThenCrash:
    def test_no_job_is_accounted_twice(self):
        result, specs = _run(crash_shard=1)
        assert result.recoveries
        assert audit_run(result, specs).violations == []

    @pytest.mark.parametrize("shard", [0, 1])
    @pytest.mark.parametrize("nth", [1, 2, 3])
    def test_crash_after_any_migration_accounts_cleanly(self, shard, nth):
        result, specs = _run(crash_shard=shard, crash_after_migration=nth)
        assert audit_run(result, specs).violations == []
