"""A finished job's runtime objects are freed when it leaves the run.

Scheduler S fixes ``n_i``, ``x_i`` and ``v_i`` at arrival and never
reads a job's DAG state once the job has left Q and P, so the engine
retires every job at its terminal event (:meth:`ActiveJob.retire`).
With the cycle collector disabled, nothing of a finished job -- its
:class:`ActiveJob`, :class:`JobView` or :class:`DAGJob` -- may stay
alive: reference counting alone must free them.  A view someone kept
still answers (the released-view contract).
"""

from __future__ import annotations

import dataclasses
import gc

from repro.core import SNSScheduler
from repro.dag import DAGJob, chain
from repro.profit import StepProfit
from repro.service import SchedulingService
from repro.sim import JobSpec, SchedulerBase, Simulator
from repro.sim.jobs import ActiveJob, JobView
from repro.workloads import WorkloadConfig, generate_workload

RUNTIME_TYPES = (ActiveJob, JobView, DAGJob)
M = 16


def _specs(seed: int = 4) -> list[JobSpec]:
    return generate_workload(
        WorkloadConfig(n_jobs=400, m=M, load=2.0, family="mixed", seed=seed)
    )


def _live_runtime_objects() -> list:
    return [o for o in gc.get_objects() if type(o) in RUNTIME_TYPES]


def _run_without_collector(drive) -> tuple:
    """Run ``drive()`` with the cycle collector off; return its result
    and the runtime objects it left alive (those alive before excluded)."""
    gc.collect()
    before = _live_runtime_objects()
    seen = {id(o) for o in before}
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = drive()
        leaked = [o for o in _live_runtime_objects() if id(o) not in seen]
    finally:
        if enabled:
            gc.enable()
    del before
    return out, leaked


def _numbers(state) -> tuple:
    return (
        state.job_id,
        state.deadline,
        state.allotment,
        state.x,
        state.density,
        state.delta_good,
        state.allotment_real,
    )


def _assert_states_released(sched: SNSScheduler, specs) -> None:
    """Every finished job's S state dropped its view and kept the
    numbers S computed at arrival."""
    fresh = SNSScheduler()
    fresh.on_start(sched.m, sched.speed)
    assert set(sched.all_states) == {spec.job_id for spec in specs}
    for spec in specs:
        state = sched.all_states[spec.job_id]
        assert state.view is None
        expected = fresh.compute_state(ActiveJob(spec).view)
        assert _numbers(state) == _numbers(expected)


class TestNothingLeftBehind:
    def test_batch_run(self):
        specs = _specs()
        sched = SNSScheduler()

        result, leaked = _run_without_collector(
            lambda: Simulator(m=M, scheduler=sched).run(specs)
        )

        assert leaked == []
        assert result.num_jobs == len(specs)
        assert result.counters.completions > 0 and result.counters.expiries > 0
        _assert_states_released(sched, specs)

    def test_streaming_service(self):
        specs = sorted(_specs(seed=5), key=lambda s: (s.arrival, s.job_id))
        sched = SNSScheduler()

        def drive():
            service = SchedulingService(m=M, scheduler=sched, capacity=len(specs))
            for spec in specs:
                service.submit(spec, t=spec.arrival)
            return service.finish()

        out, leaked = _run_without_collector(drive)

        assert leaked == []
        assert out.result.num_jobs == len(specs)
        _assert_states_released(sched, specs)

    def test_steal_between_engines(self):
        specs = sorted(_specs(seed=6), key=lambda s: (s.arrival, s.job_id))
        donor_sched, thief_sched = SNSScheduler(), SNSScheduler()
        stolen: list = []

        def drive():
            donor = Simulator(m=M, scheduler=donor_sched)
            thief = Simulator(m=M, scheduler=thief_sched)
            donor.start()
            thief.start()
            for i, spec in enumerate(specs):
                donor.submit(spec, t=spec.arrival)
                if i == len(specs) // 2:
                    donor.advance_to(spec.arrival + 1)
                    victim = donor_sched.started_states()[0].job_id
                    payload = donor.extract_active(victim)
                    assert payload is not None
                    thief.inject_active(payload, t=donor.now)
                    stolen.append((victim, donor.now))
            return donor.finish(), thief.finish()

        (donor_result, thief_result), leaked = _run_without_collector(drive)

        assert leaked == []
        ((victim, t_steal),) = stolen
        assert victim not in donor_result.records
        assert set(thief_result.records) == {victim}
        assert donor_sched.all_states[victim].view is None
        kept = [spec for spec in specs if spec.job_id != victim]
        assert set(donor_result.records) == {spec.job_id for spec in kept}
        # the donor's entry for the victim is its pre-steal state
        _assert_states_released(donor_sched, specs)
        # the thief judged the job as arriving at the steal time
        (spec,) = [spec for spec in specs if spec.job_id == victim]
        _assert_states_released(
            thief_sched, [dataclasses.replace(spec, arrival=t_steal)]
        )


# ----------------------------------------------------------------------
# The released-view contract
# ----------------------------------------------------------------------
class Greedy(SchedulerBase):
    """Run every job on all its ready nodes, oldest first; keep every
    view it is handed and note ``work_completed`` at the job's
    terminal callback (the last moment the DAG state is live)."""

    def __init__(self, assign_after=None):
        self.live: dict[int, JobView] = {}
        self.held: dict[int, JobView] = {}
        self.final_work: dict[int, float] = {}
        self.assign_after = assign_after

    def on_arrival(self, job, t):
        self.live[job.job_id] = self.held[job.job_id] = job

    def assign_deadline(self, job, t):
        if job.deadline is None and self.assign_after is not None:
            return t + self.assign_after
        return None

    def on_completion(self, job, t):
        self.final_work[job.job_id] = job.work_completed
        del self.live[job.job_id]

    on_expiry = on_completion

    def allocate(self, t):
        alloc, free = {}, self.m
        for job_id in sorted(self.live):
            k = min(free, self.live[job_id].num_ready)
            if k > 0:
                alloc[job_id] = k
                free -= k
        return alloc


def _static(view: JobView) -> tuple:
    return (
        view.job_id,
        view.arrival,
        view.deadline,
        view.relative_deadline,
        view.profit,
        view.profit_fn,
        view.work,
        view.span,
    )


def _check_released(view: JobView, spec: JobSpec, final_work: float) -> None:
    assert _static(view) == _static(ActiveJob(spec).view)
    assert view.num_ready == 0
    assert view.work_completed == final_work


class TestReleasedView:
    def test_completion_and_expiry(self):
        fn = StepProfit(2.0, 40.0)
        specs = [
            # finishes: the view reads complete, all work done
            JobSpec(0, chain(3, node_work=2.0), arrival=0, deadline=20),
            # expires two units into its second node: partial progress
            JobSpec(1, chain(3, node_work=5.0), arrival=0, deadline=7),
            # general-profit job with a scheduler-assigned deadline
            JobSpec(2, chain(2, node_work=1.5), arrival=1, profit_fn=fn),
        ]
        sched = Greedy(assign_after=30)
        result = Simulator(m=4, scheduler=sched).run(specs)

        assert result.records[0].completion_time is not None
        assert result.records[1].expired
        done, expired, general = (sched.held[i] for i in range(3))
        _check_released(done, specs[0], sched.final_work[0])
        assert done.is_complete and done.work_completed == 6.0
        _check_released(expired, specs[1], sched.final_work[1])
        assert not expired.is_complete
        assert expired.work_completed == 7.0  # 5 done + 2 of the next node
        _check_released(general, specs[2], sched.final_work[2])
        assert general.is_complete
        assert general.assigned_deadline == 31
        assert result.records[2].assigned_deadline == 31

    def test_horizon_abandon(self):
        spec = JobSpec(0, chain(4, node_work=3.0), arrival=0, deadline=50)
        sched = Greedy()
        sim = Simulator(m=2, scheduler=sched, horizon=8)
        sim.start()
        sim.submit(spec)
        sim.advance_to(8)
        view = sched.held[0]
        final = view.work_completed
        assert final == 8.0 and view.num_ready == 1

        result = sim.finish()

        assert result.records[0].abandoned
        _check_released(view, spec, final)
        assert not view.is_complete
        assert view.assigned_deadline is None

    def test_steal_extraction(self):
        spec = JobSpec(7, chain(5, node_work=2.0), arrival=0, deadline=40)
        sched = Greedy()
        donor = Simulator(m=2, scheduler=sched)
        donor.start()
        donor.submit(spec)
        donor.advance_to(5)
        view = sched.held[7]
        before = view.work_completed
        assert before == 5.0

        payload = donor.extract_active(7)

        assert payload is not None
        assert sched.final_work[7] == before
        _check_released(view, spec, before)
        assert not view.is_complete
        # the payload still carries the live DAG state
        thief_sched = Greedy()
        thief = Simulator(m=2, scheduler=thief_sched)
        thief.start()
        moved = thief.inject_active(payload, t=5)
        assert moved.work_completed == before and moved.num_ready == 1
        assert thief.finish().records[7].completion_time == 10

    def test_expired_in_transit(self):
        spec = JobSpec(3, chain(5, node_work=2.0), arrival=0, deadline=40)
        donor = Simulator(m=2, scheduler=Greedy())
        donor.start()
        donor.submit(spec)
        donor.advance_to(5)
        payload = donor.extract_active(3)
        thief = Simulator(m=2, scheduler=Greedy())
        thief.start()

        late = thief.inject_active(payload, t=45)

        _check_released(late, spec, 5.0)
        assert thief.finish().records[3].expired
