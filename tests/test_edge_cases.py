"""Remaining edge cases across metrics, traces and scheduler state."""

import math

import pytest

from repro.analysis import summarize
from repro.core import GeneralProfitScheduler, SNSScheduler
from repro.dag import chain
from repro.profit import StepProfit
from repro.observability import TraceRecorder
from repro.sim import JobSpec, Simulator
from repro.workloads import WorkloadConfig, generate_workload


class TestMetricsEdges:
    def test_summarize_empty_run(self):
        from repro.baselines import FIFOScheduler

        result = Simulator(m=2, scheduler=FIFOScheduler()).run([])
        summary = summarize(result)
        assert summary.jobs == 0
        assert summary.total_profit == 0.0
        assert summary.on_time_fraction == 0.0
        assert math.isnan(summary.mean_response)

    def test_summarize_all_expired(self):
        from repro.baselines import FIFOScheduler

        specs = [JobSpec(0, chain(50), arrival=0, deadline=5)]
        result = Simulator(m=1, scheduler=FIFOScheduler()).run(specs)
        summary = summarize(result)
        assert summary.expired == 1
        assert summary.completed == 0
        assert math.isnan(summary.mean_response)


class TestDeadlineAssignedEvent:
    def test_trace_records_assignment(self):
        spec = JobSpec(0, chain(6), arrival=0, profit_fn=StepProfit(1.0, 40.0))
        recorder = TraceRecorder()
        result = Simulator(
            m=2,
            scheduler=GeneralProfitScheduler(epsilon=1.0),
            recorder=recorder,
        ).run([spec])
        admission = next(ev for ev in recorder.events if ev[3] == "admission")
        assert admission[4] == 0
        assert result.records[0].assigned_deadline is not None
        assert (
            admission[5]["assigned_deadline"]
            == result.records[0].assigned_deadline
        )


class TestSNSStateConsistency:
    def test_bands_track_exactly_started_set(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=40, m=8, load=4.0, epsilon=1.0, seed=17)
        )
        sched = SNSScheduler(epsilon=1.0)

        class Watch:
            """Assert bands == Q after every event."""

            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                attr = getattr(self.inner, name)
                if name in ("on_arrival", "on_completion", "on_expiry"):
                    def wrapped(job, t):
                        attr(job, t)
                        q_ids = {
                            s.job_id for s in self.inner.started_states()
                        }
                        band_ids = {
                            jid for jid, _, _ in self.inner.bands.items()
                        }
                        assert q_ids == band_ids
                    return wrapped
                return attr

        Simulator(m=8, scheduler=Watch(sched)).run(specs)

    def test_started_ids_superset_of_completions(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=30, m=8, load=2.0, epsilon=1.0, seed=18)
        )
        sched = SNSScheduler(epsilon=1.0)
        result = Simulator(m=8, scheduler=sched).run(specs)
        completed = {
            jid for jid, rec in result.records.items() if rec.completed
        }
        assert completed <= sched.started_ids


class TestProfitSchedulerEdges:
    def test_all_jobs_rejected_run_terminates(self):
        # zero-peak functions: everything rejected, engine must not hang
        specs = [
            JobSpec(i, chain(4), arrival=i, profit_fn=StepProfit(0.0, 50.0))
            for i in range(5)
        ]
        result = Simulator(
            m=2, scheduler=GeneralProfitScheduler(epsilon=1.0)
        ).run(specs)
        assert result.total_profit == 0.0
        assert all(r.expired or r.abandoned for r in result.records.values())

    def test_sequential_arrival_chain_of_assignments(self):
        # many identical jobs: assigned deadlines must be non-decreasing
        # (later arrivals find earlier slots taken)
        fn = StepProfit(1.0, 200.0)
        specs = [
            JobSpec(i, chain(8), arrival=0, profit_fn=fn) for i in range(4)
        ]
        sched = GeneralProfitScheduler(epsilon=1.0)
        Simulator(m=2, scheduler=sched).run(specs)
        deadlines = [
            sched.states[i].assigned_relative_deadline
            for i in range(4)
            if not sched.states[i].rejected
        ]
        assert deadlines == sorted(deadlines)
