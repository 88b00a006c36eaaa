"""Property-based integration tests of the engine + schedulers.

Random workloads under every scheduler must keep the accounting
invariants: profits match the spec oracle, processor-step conservation
holds, deadlines are respected, and runs are deterministic.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    verify_profits,
    verify_trace_consistency,
    verify_work_accounting,
)
from repro.baselines import (
    FIFOScheduler,
    GlobalEDF,
    GreedyDensity,
    LeastLaxityFirst,
)
from repro.core import GeneralProfitScheduler, SNSScheduler
from repro.observability import TraceRecorder
from repro.sim import JobSpec, RandomPicker, Simulator
from repro.workloads import WorkloadConfig, generate_workload

SCHEDULER_FACTORIES = [
    GlobalEDF,
    LeastLaxityFirst,
    GreedyDensity,
    FIFOScheduler,
    lambda: SNSScheduler(epsilon=1.0),
]


@st.composite
def workload_configs(draw):
    return WorkloadConfig(
        n_jobs=draw(st.integers(min_value=1, max_value=25)),
        m=draw(st.integers(min_value=1, max_value=12)),
        load=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
        family=draw(st.sampled_from(["chain", "block", "fork_join", "mixed"])),
        epsilon=draw(st.sampled_from([0.25, 1.0, 2.0])),
        deadline_policy=draw(st.sampled_from(["slack", "tight"])),
        profit=draw(st.sampled_from(["unit", "uniform", "heavy_tailed"])),
        seed=draw(st.integers(min_value=0, max_value=10 ** 6)),
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload_configs(),
    st.integers(min_value=0, max_value=len(SCHEDULER_FACTORIES) - 1),
)
def test_run_invariants_hold(config, sched_idx):
    specs = generate_workload(config)
    recorder = TraceRecorder()
    sim = Simulator(
        m=config.m,
        scheduler=SCHEDULER_FACTORIES[sched_idx](),
        picker=RandomPicker(config.seed),
        recorder=recorder,
        validate=True,
    )
    result = sim.run(specs)
    assert verify_profits(result, specs) == []
    assert verify_work_accounting(result, specs) == []
    assert verify_trace_consistency(result, recorder.events) == []
    # every job is accounted for exactly once
    assert set(result.records) == {sp.job_id for sp in specs}


@settings(max_examples=10, deadline=None)
@given(workload_configs())
def test_determinism(config):
    def once():
        sim = Simulator(
            m=config.m,
            scheduler=SNSScheduler(epsilon=1.0),
            picker=RandomPicker(config.seed),
        )
        result = sim.run(generate_workload(config))
        return {
            jid: (rec.completion_time, rec.profit)
            for jid, rec in result.records.items()
        }

    assert once() == once()


@settings(max_examples=10, deadline=None)
@given(workload_configs())
def test_sns_observation2_property(config):
    """Every job S completes used at most ceil(x_i)*n_i processor-steps."""
    from repro.analysis import verify_sns_observation2

    specs = generate_workload(config)
    sched = SNSScheduler(epsilon=1.0)
    result = Simulator(m=config.m, scheduler=sched).run(specs)
    assert verify_sns_observation2(result, sched) == []


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_profit_scheduler_invariants(n_jobs, m, seed):
    from repro.workloads.profits import make_profit_fn_sampler

    config = WorkloadConfig(
        n_jobs=n_jobs,
        m=m,
        load=2.0,
        family="fork_join",
        epsilon=1.0,
        profit_fn_sampler=make_profit_fn_sampler("linear"),
        seed=seed,
    )
    specs = generate_workload(config)
    recorder = TraceRecorder()
    result = Simulator(
        m=m, scheduler=GeneralProfitScheduler(epsilon=1.0), recorder=recorder
    ).run(specs)
    assert verify_profits(result, specs) == []
    assert verify_work_accounting(result, specs) == []
    assert verify_trace_consistency(result, recorder.events) == []
