"""Unit tests for the simulation engine."""

import pytest

from repro.baselines import FIFOScheduler, GlobalEDF
from repro.dag import block, chain, fork_join
from repro.errors import AllocationError, SimulationError
from repro.observability import TraceRecorder, allocation_slices
from repro.profit import FlatThenLinear, StepProfit
from repro.sim import (
    JobSpec,
    SchedulerBase,
    Simulator,
)


def run_one(dag, m=2, deadline=1000, speed=1.0, **kw):
    spec = JobSpec(0, dag, arrival=0, deadline=deadline, profit=1.0)
    result = Simulator(m=m, scheduler=FIFOScheduler(), speed=speed, **kw).run([spec])
    return result.records[0], result


class TestTimingExactness:
    def test_chain_takes_its_span(self):
        rec, _ = run_one(chain(7), m=4)
        assert rec.completion_time == 7

    def test_block_perfectly_parallel(self):
        rec, _ = run_one(block(8), m=4)
        assert rec.completion_time == 2  # 8 unit nodes on 4 procs

    def test_block_uneven_waves(self):
        rec, _ = run_one(block(9), m=4)
        assert rec.completion_time == 3

    def test_fork_join(self):
        rec, _ = run_one(fork_join(4), m=4)
        assert rec.completion_time == 3  # fork, middle wave, join

    def test_speed_two_halves_node_time(self):
        rec, _ = run_one(chain(4, node_work=8.0), m=1, speed=2.0)
        assert rec.completion_time == 16  # 4 nodes * ceil(8/2)

    def test_fractional_speed_ceil_semantics(self):
        rec, _ = run_one(chain(1, node_work=8.0), m=1, speed=3.0)
        assert rec.completion_time == 3  # ceil(8/3)

    def test_unit_nodes_cannot_speed_up(self):
        rec, _ = run_one(chain(5), m=1, speed=4.0)
        assert rec.completion_time == 5


class TestDeadlines:
    def test_on_time_earns_profit(self):
        rec, res = run_one(chain(4), m=1, deadline=4)
        assert rec.completion_time == 4
        assert rec.profit == 1.0
        assert rec.on_time
        assert res.total_profit == 1.0

    def test_expiry_removes_job(self):
        rec, res = run_one(chain(10), m=1, deadline=5)
        assert rec.expired
        assert rec.completion_time is None
        assert rec.profit == 0.0
        assert res.counters.expiries == 1

    def test_expired_job_stops_consuming(self):
        # after job 0 expires, job 1 gets the machine
        specs = [
            JobSpec(0, chain(100), arrival=0, deadline=5, profit=1.0),
            JobSpec(1, chain(10), arrival=0, deadline=100, profit=1.0),
        ]
        result = Simulator(m=1, scheduler=GlobalEDF()).run(specs)
        assert result.records[0].expired
        assert result.records[1].completed
        assert result.records[1].completion_time == 15  # 5 wasted + 10

    def test_arrival_before_deadline_event_order(self):
        # two jobs, second arrives exactly at first's deadline
        specs = [
            JobSpec(0, chain(3), arrival=0, deadline=3, profit=1.0),
            JobSpec(1, chain(3), arrival=3, deadline=6, profit=1.0),
        ]
        result = Simulator(m=1, scheduler=GlobalEDF()).run(specs)
        assert result.total_profit == 2.0


class TestProfitFunctions:
    def test_flat_then_linear_profit(self):
        fn = FlatThenLinear(peak=2.0, x_star=4.0, decay_span=8.0)
        spec = JobSpec(0, chain(8), arrival=0, profit_fn=fn)
        result = Simulator(m=1, scheduler=FIFOScheduler()).run([spec])
        # completes at 8 => profit 2 * (1 - (8-4)/8) = 1.0
        assert result.records[0].completion_time == 8
        assert result.records[0].profit == pytest.approx(1.0)

    def test_step_profit_zero_after_knee(self):
        fn = StepProfit(peak=3.0, x_star=4.0)
        spec = JobSpec(0, chain(8), arrival=0, profit_fn=fn)
        result = Simulator(m=1, scheduler=FIFOScheduler()).run([spec])
        assert result.records[0].profit == 0.0


class TestHorizonAndAbandon:
    def test_horizon_abandons_unfinished(self):
        rec, res = run_one(chain(100), m=1, horizon=10)
        assert rec.abandoned
        assert res.counters.abandons == 1
        assert res.end_time <= 10

    def test_horizon_before_arrival(self):
        spec = JobSpec(0, chain(2), arrival=50, deadline=60, profit=1.0)
        res = Simulator(m=1, scheduler=FIFOScheduler(), horizon=10).run([spec])
        assert res.records[0].abandoned

    def test_no_deadline_no_allocation_terminates(self):
        class LazyScheduler(SchedulerBase):
            def allocate(self, t):
                return {}

        spec = JobSpec(0, chain(2), arrival=0, profit_fn=StepProfit(1, 100))
        res = Simulator(m=1, scheduler=LazyScheduler()).run([spec])
        assert res.records[0].abandoned


class TestValidationErrors:
    def test_duplicate_job_ids(self):
        specs = [
            JobSpec(0, chain(1), arrival=0, deadline=5),
            JobSpec(0, chain(1), arrival=1, deadline=5),
        ]
        with pytest.raises(SimulationError, match="duplicate"):
            Simulator(m=1, scheduler=FIFOScheduler()).run(specs)

    def test_over_allocation_rejected(self):
        class GreedyBad(SchedulerBase):
            def __init__(self):
                self.ids = []

            def on_arrival(self, job, t):
                self.ids.append(job.job_id)

            def allocate(self, t):
                return {jid: 5 for jid in self.ids}  # 5 > m=2

        spec = JobSpec(0, chain(2), arrival=0, deadline=10)
        with pytest.raises(AllocationError, match="> m"):
            Simulator(m=2, scheduler=GreedyBad()).run([spec])

    def test_unknown_job_rejected(self):
        class Phantom(SchedulerBase):
            def allocate(self, t):
                return {99: 1}

        spec = JobSpec(0, chain(2), arrival=0, deadline=10)
        with pytest.raises(AllocationError, match="inactive"):
            Simulator(m=2, scheduler=Phantom()).run([spec])

    def test_non_int_count_rejected(self):
        class Fractional(SchedulerBase):
            def __init__(self):
                self.ids = []

            def on_arrival(self, job, t):
                self.ids.append(job.job_id)

            def allocate(self, t):
                return {jid: 0.5 for jid in self.ids}

        spec = JobSpec(0, chain(2), arrival=0, deadline=10)
        with pytest.raises(AllocationError, match="int"):
            Simulator(m=2, scheduler=Fractional()).run([spec])

    def test_bad_machine_params(self):
        with pytest.raises(ValueError):
            Simulator(m=0, scheduler=FIFOScheduler())
        with pytest.raises(ValueError):
            Simulator(m=1, scheduler=FIFOScheduler(), speed=0.0)
        with pytest.raises(ValueError):
            Simulator(m=1, scheduler=FIFOScheduler(), horizon=-1)


class TestTrace:
    def test_trace_events(self):
        spec = JobSpec(0, chain(3), arrival=2, deadline=10, profit=1.0)
        recorder = TraceRecorder()
        Simulator(m=1, scheduler=FIFOScheduler(), recorder=recorder).run([spec])
        kinds = [ev[3] for ev in recorder.events]
        assert "arrival" in kinds
        assert "completion" in kinds

    def test_trace_slices_cover_execution(self):
        spec = JobSpec(0, chain(3), arrival=0, deadline=10, profit=1.0)
        recorder = TraceRecorder()
        Simulator(m=2, scheduler=FIFOScheduler(), recorder=recorder).run([spec])
        slices = allocation_slices(recorder.events)
        processor_steps = sum(
            alloc * (t1 - t0)
            for t0, t1, entries in slices
            for jid, alloc, _ in entries
            if jid == 0
        )
        busy = sum(
            execing * (t1 - t0)
            for t0, t1, entries in slices
            for _, _, execing in entries
        )
        assert processor_steps >= 3
        assert busy / (2 * (slices[-1][1] - slices[0][0])) > 0

    def test_no_trace_by_default(self):
        sim = Simulator(m=2, scheduler=FIFOScheduler())
        assert sim.recorder is None
        res = sim.run([JobSpec(0, chain(2), arrival=0, deadline=10, profit=1.0)])
        assert not hasattr(res, "trace")


class TestCounters:
    def test_busy_steps_accounting(self):
        rec, res = run_one(block(8), m=4)
        assert res.counters.busy_steps == 8  # one busy step per unit node
        assert res.counters.allocated_steps >= res.counters.busy_steps

    def test_processor_steps_per_job(self):
        rec, _ = run_one(chain(5), m=3)
        # FIFO allocates min(free, ready)=1 processor to the chain
        assert rec.processor_steps == 5

    def test_completion_counter(self):
        _, res = run_one(chain(2))
        assert res.counters.completions == 1


class TestMultiJob:
    def test_two_jobs_share_machine(self):
        specs = [
            JobSpec(0, block(4), arrival=0, deadline=100, profit=1.0),
            JobSpec(1, block(4), arrival=0, deadline=100, profit=1.0),
        ]
        res = Simulator(m=4, scheduler=FIFOScheduler()).run(specs)
        assert res.total_profit == 2.0
        assert res.end_time == 2

    def test_late_arrival_waits(self):
        specs = [
            JobSpec(0, chain(4), arrival=0, deadline=100, profit=1.0),
            JobSpec(1, chain(4), arrival=2, deadline=100, profit=1.0),
        ]
        res = Simulator(m=2, scheduler=FIFOScheduler()).run(specs)
        assert res.records[0].completion_time == 4
        assert res.records[1].completion_time == 6

    def test_idle_gap_between_arrivals(self):
        specs = [
            JobSpec(0, chain(2), arrival=0, deadline=100, profit=1.0),
            JobSpec(1, chain(2), arrival=50, deadline=100, profit=1.0),
        ]
        res = Simulator(m=1, scheduler=FIFOScheduler()).run(specs)
        assert res.records[1].completion_time == 52

    def test_empty_workload(self):
        res = Simulator(m=2, scheduler=FIFOScheduler()).run([])
        assert res.total_profit == 0.0
        assert res.num_jobs == 0
