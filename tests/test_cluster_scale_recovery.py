"""Scale-time queue moves and crash recovery on a supervised cluster.

An elastic cluster's resize step moves queued jobs between shards: a
scale-up splits the deepest queue into the new unit, a scale-down
re-routes the drained unit's queue over the remainder.  Recovery
restores a shard's latest checkpoint and replays the submission log
recorded after it, so the latest checkpoint must postdate every move,
or replay would put moved jobs back on the shard they left.  That
invariant must hold for every cluster that logs submissions -- a
supervised cluster without a fault injector included.
"""

import pytest

from repro.cluster import ClusterService, ShardConfig
from repro.resilience import SupervisorConfig, audit_run
from repro.workloads import WorkloadConfig, generate_workload

#: submission index -> target active count; every step moves queued
#: jobs, and the first three moves drain shard 0, then shard 1 (a
#: scale-down victim), then shard 0 again
SCALE_STEPS = {40: 2, 80: 1, 120: 3, 160: 4, 200: 3, 240: 2, 280: 1}


def _specs():
    jobs = generate_workload(WorkloadConfig(n_jobs=400, m=8, load=1.2, seed=3))
    return sorted(jobs, key=lambda sp: (sp.arrival, sp.job_id))


def _run(crash_shard, crash_after_move=1, mode="inprocess"):
    """Serve the stream under :data:`SCALE_STEPS`; crash
    ``crash_shard`` right after the ``crash_after_move``-th scale step
    that moved queued jobs."""
    specs = _specs()
    cluster = ClusterService(
        8,
        4,
        k_initial=1,
        config=ShardConfig(m=1, capacity=64, max_in_flight=2),
        mode=mode,
        supervisor=SupervisorConfig(heartbeat_every=1),
    )
    cluster.start()
    moves = 0
    crashed = False
    for i, spec in enumerate(specs):
        if i in SCALE_STEPS:
            for event in cluster.scale_to(SCALE_STEPS[i], t=spec.arrival):
                if event.moved and not crashed:
                    moves += 1
                    if moves == crash_after_move:
                        cluster.inject_crash(crash_shard)
                        crashed = True
        cluster.submit(spec, t=spec.arrival)
    result = cluster.finish()
    assert crashed, "the scale sequence never moved a queued job"
    return result, specs


class TestScaleMoveThenCrash:
    def test_no_job_is_accounted_twice(self):
        # the scale-down victim of the second move, its queue taken
        # over a worker pipe
        result, specs = _run(crash_shard=1, crash_after_move=2, mode="process")
        assert result.recoveries
        assert audit_run(result, specs).violations == []

    @pytest.mark.parametrize("shard", [0, 1])
    @pytest.mark.parametrize("nth", [1, 2, 3])
    def test_crash_after_any_scale_move_accounts_cleanly(self, shard, nth):
        result, specs = _run(crash_shard=shard, crash_after_move=nth)
        assert result.recoveries
        assert audit_run(result, specs).violations == []
