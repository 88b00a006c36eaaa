"""Differential pin: tracing on vs off is bit-identical.

The observability layer's core contract is that recorders *read*
engine/service/cluster state but never influence it.  These tests run
the same workload with no recorder, with the disabled
:data:`~repro.observability.NULL_RECORDER`, and with a live
:class:`~repro.observability.TraceRecorder` (plus profiler), and demand
bit-identical observables everywhere:

* engine batch and streaming sessions, across DAG families and seeds
  (per-job completion records, counters, end time, total profit);
* the scheduling service under backpressure and shedding;
* an in-process sharded cluster;
* a 4-shard process-mode cluster (parent-side tracing only -- worker
  engines run untraced, so the pin is on results, not trace content).
"""

import os
from dataclasses import asdict

import pytest

from repro.cluster import ClusterService, ShardConfig
from repro.core import SNSScheduler
from repro.observability import NULL_RECORDER, Profiler, TraceRecorder
from repro.service import SchedulingService, make_shed_policy
from repro.sim import Simulator
from repro.workloads import WorkloadConfig, generate_workload

SNS_CFG = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})


def record_tuple(rec):
    return (
        rec.job_id,
        rec.arrival,
        rec.deadline,
        rec.completion_time,
        rec.profit,
        rec.processor_steps,
        rec.expired,
        rec.abandoned,
        rec.assigned_deadline,
    )


def result_fingerprint(result):
    """Every observable of a simulation result, bitwise."""
    return (
        [record_tuple(r) for r in result.records.values()],
        asdict(result.counters),
        result.end_time,
        result.total_profit,
    )


def workload(n_jobs, m, family, seed, load=2.5):
    return generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs, m=m, load=load, family=family,
            epsilon=1.0, seed=seed,
        )
    )


class TestEngineEquivalence:
    """A live recorder must not change a single observable bit of an
    engine run."""

    @pytest.mark.parametrize("family", ["chain", "fork_join", "mixed"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batch_run_identical(self, family, seed):
        specs = workload(60, 8, family, seed)

        def run(recorder=None, profiler=None):
            return Simulator(
                m=8,
                scheduler=SNSScheduler(epsilon=1.0),
                recorder=recorder,
                profiler=profiler,
            ).run(list(specs))

        baseline = result_fingerprint(run())
        assert result_fingerprint(run(NULL_RECORDER)) == baseline
        assert result_fingerprint(run(TraceRecorder(), Profiler())) == baseline

    @pytest.mark.parametrize("seed", [1, 5])
    def test_streaming_session_identical(self, seed):
        specs = sorted(
            workload(50, 4, "mixed", seed),
            key=lambda sp: (sp.arrival, sp.job_id),
        )

        def run_stream(recorder=None):
            sim = Simulator(
                m=4,
                scheduler=SNSScheduler(epsilon=1.0),
                recorder=recorder,
            )
            sim.start()
            for spec in specs:
                sim.submit(spec, t=spec.arrival)
            return sim.finish()

        baseline = result_fingerprint(run_stream())
        assert result_fingerprint(run_stream(NULL_RECORDER)) == baseline
        assert result_fingerprint(run_stream(TraceRecorder())) == baseline

    def test_batch_equals_stream_traced(self):
        """Tracing must not break the engine's batch/stream equivalence."""
        specs = workload(40, 4, "mixed", 3)

        def build():
            return Simulator(
                m=4,
                scheduler=SNSScheduler(epsilon=1.0),
                recorder=TraceRecorder(),
            )

        batch = build().run(list(specs))
        sim = build()
        sim.start()
        for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
            sim.submit(spec, t=spec.arrival)
        stream = sim.finish()
        assert result_fingerprint(batch) == result_fingerprint(stream)


class TestServiceEquivalence:
    @pytest.mark.parametrize("seed", [2, 9])
    def test_shedding_service_identical(self, seed):
        specs = workload(80, 4, "mixed", seed, load=4.0)

        def run(tracer=None):
            service = SchedulingService(
                4,
                SNSScheduler(epsilon=1.0),
                capacity=8,
                shed_policy=make_shed_policy("reject-lowest-density"),
                max_in_flight=4,
                tracer=tracer,
            )
            result = service.run_stream(specs)
            return (
                result_fingerprint(result.result),
                result.num_shed,
                result.total_profit,
                result.profit_shed,
            )

        baseline = run()
        assert run(NULL_RECORDER) == baseline
        assert run(TraceRecorder()) == baseline


class TestClusterEquivalence:
    def _fingerprint(self, result):
        return (
            sorted(result.records),
            result.total_profit,
            result.num_shed,
            result.end_time,
        )

    @pytest.mark.parametrize("seed", [4, 11])
    def test_inprocess_cluster_identical(self, seed):
        specs = workload(80, 8, "mixed", seed)

        def run(tracer=None):
            return ClusterService(
                8, 2, config=SNS_CFG, router="consistent-hash",
                mode="inprocess", tracer=tracer,
            ).run_stream(specs)

        baseline = self._fingerprint(run())
        assert self._fingerprint(run(TraceRecorder())) == baseline

    @pytest.mark.skipif(
        os.environ.get("REPRO_SKIP_PROCESS_TESTS") == "1",
        reason="process-mode tests disabled",
    )
    def test_process_cluster_4_shards_identical(self):
        specs = workload(100, 8, "mixed", 6)

        def run(tracer=None):
            return ClusterService(
                8, 4, config=SNS_CFG, router="consistent-hash",
                mode="process", tracer=tracer,
            ).run_stream(specs)

        baseline = self._fingerprint(run())
        tracer = TraceRecorder()
        assert self._fingerprint(run(tracer)) == baseline
        # parent-side lifecycle only: every job was routed exactly once
        routes = [ev for ev in tracer.events if ev[3] == "route"]
        assert sorted(ev[4] for ev in routes) == sorted(
            sp.job_id for sp in specs
        )
