"""Edge cases pinning the event engine against the legacy stepper.

The engines' bit-identity contract leans on specific float64 facts;
this file stresses the places where they could plausibly break:

* **empty and degenerate runs** -- empty workloads, schedulers that
  allocate nothing, and *explicit zero allocations* (a job keyed in
  the dict with 0 processors must hold no processors and lose no
  progress);
* **reduction order** -- profit sums and ``done_work`` accumulate in
  the exact per-node order, so decimal-unrepresentable values
  (0.1-like) must agree bit-for-bit across engines and across
  batch/stream chunk splits;
* **large magnitudes** -- node works near 2**50 and wide ``k * dt``
  processor-step products stay below 2**53 where float64 arithmetic
  on integers is exact; nothing overflows into inf.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from repro.core import SNSScheduler
from repro.dag import DAGStructure
from repro.sim import SchedulerBase
from repro.sim.jobs import JobSpec
from repro.workloads import WorkloadConfig, generate_workload
from tests.conftest import ENGINES

BACKENDS = ("legacy", "event")


def observables(result):
    return (
        {
            jid: (
                rec.arrival,
                rec.deadline,
                rec.completion_time,
                rec.profit,
                rec.processor_steps,
                rec.expired,
                rec.abandoned,
                rec.assigned_deadline,
            )
            for jid, rec in result.records.items()
        },
        asdict(result.counters),
        result.end_time,
        result.total_profit,
    )


def chain_spec(job_id, works, profit=1.0, arrival=0, deadline=10**9):
    edges = [(i, i + 1) for i in range(len(works) - 1)]
    return JobSpec(
        job_id=job_id,
        structure=DAGStructure([float(w) for w in works], edges, name="chain"),
        arrival=arrival,
        profit=profit,
        deadline=deadline,
    )


def wide_spec(job_id, works, profit=1.0, arrival=0, deadline=10**9):
    """Independent nodes: maximally parallel."""
    return JobSpec(
        job_id=job_id,
        structure=DAGStructure([float(w) for w in works], [], name="wide"),
        arrival=arrival,
        profit=profit,
        deadline=deadline,
    )


def run_all_backends(specs, m, scheduler_factory, **kw):
    return {
        backend: observables(
            ENGINES[backend](m=m, scheduler=scheduler_factory(), **kw).run(specs)
        )
        for backend in BACKENDS
    }


def assert_backends_agree(specs, m, scheduler_factory, **kw):
    results = run_all_backends(specs, m, scheduler_factory, **kw)
    assert results["legacy"] == results["event"]


class StarveScheduler(SchedulerBase):
    """Allocates nothing, ever: no job may make progress and the
    engine must abandon cleanly."""

    def allocate(self, t):
        return {}

    def snapshot_state(self):
        return {}

    def restore_state(self, data, views):
        return None


class ZeroKeyScheduler(SchedulerBase):
    """Round-robins one processor, keeping *every* live job keyed in
    the allocation dict -- benched jobs explicitly at 0.

    Regression pin: an engine must treat jobs with k > 0 as running,
    not every dict entry; an explicit 0 once kept a benched job's
    nodes executing and double-processed its completed nodes.
    """

    def __init__(self) -> None:
        self.live: list[int] = []
        self.turn = 0

    def on_arrival(self, job, t):
        self.live.append(job.job_id)

    def on_completion(self, job, t):
        self.live.remove(job.job_id)

    def on_expiry(self, job, t):
        self.live.remove(job.job_id)

    def allocate(self, t):
        if not self.live:
            return {}
        self.turn += 1
        chosen = self.live[self.turn % len(self.live)]
        return {job_id: (1 if job_id == chosen else 0) for job_id in self.live}


class TestEmptyAndDegenerate:
    def test_empty_workload(self):
        for backend in BACKENDS:
            result = ENGINES[backend](
                m=4, scheduler=SNSScheduler(epsilon=1.0)
            ).run([])
            assert result.records == {}
            assert result.total_profit == 0.0

    def test_starving_scheduler_abandons_cleanly(self):
        specs = [chain_spec(j, [3, 2], deadline=50) for j in range(4)]
        assert_backends_agree(specs, 4, StarveScheduler)

    def test_explicit_zero_allocations(self):
        # chains long enough that jobs are benched (k=0, entry keyed)
        # and re-picked across many completions
        specs = [chain_spec(j, [2] * 6) for j in range(5)]
        assert_backends_agree(specs, 4, ZeroKeyScheduler)

    def test_single_node_single_processor(self):
        specs = [wide_spec(0, [1])]
        assert_backends_agree(specs, 1, lambda: SNSScheduler(epsilon=1.0))


class TestReductionOrderDeterminism:
    def test_profit_sum_bitwise_across_backends(self):
        # 0.1 is not representable in binary; a different summation
        # order (e.g. a vectorized reduction) would change the low bits
        profits = [0.1, 0.2, 0.3, 0.7, 1.1, 0.1, 0.3]
        specs = [
            wide_spec(j, [1, 1], profit=p, arrival=j)
            for j, p in enumerate(profits)
        ]
        results = run_all_backends(specs, 4, lambda: SNSScheduler(epsilon=1.0))
        assert results["event"] == results["legacy"]
        # and these values really do expose summation differences: the
        # naive left-to-right sum disagrees with the exact (fsum) one
        assert sum(profits) != math.fsum(profits)

    def test_fractional_works_batch_equals_stream(self):
        # chunk boundaries differ between batch and stream; remaining
        # work drains through the same subtraction sequence regardless
        specs = [
            chain_spec(j, [0.1, 0.3, 0.7], arrival=j, deadline=200)
            for j in range(6)
        ]
        sim = ENGINES["event"](m=2, scheduler=SNSScheduler(epsilon=1.0))
        batch = sim.run(specs)
        sim2 = ENGINES["event"](m=2, scheduler=SNSScheduler(epsilon=1.0))
        sim2.start()
        for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
            sim2.submit(spec, t=spec.arrival)
        stream = sim2.finish()
        assert observables(batch)[0] == observables(stream)[0]
        assert batch.total_profit == stream.total_profit

    def test_done_work_order_under_simultaneous_completions(self):
        # equal works across parallel chains complete whole bands at
        # once; done_work accumulates per node in pick order, which an
        # order-changing batched update would permute
        works = [0.1] * 8
        specs = [wide_spec(j, works, profit=0.1) for j in range(3)]
        assert_backends_agree(specs, 8, lambda: SNSScheduler(epsilon=1.0))


class TestLargeMagnitudes:
    def test_huge_works_stay_exact(self):
        big = float(2**50)
        specs = [
            wide_spec(0, [big, big - 1, big + 1024], deadline=2**53),
            chain_spec(1, [big / 2, big / 4], deadline=2**53),
        ]
        results = run_all_backends(
            specs, 4, lambda: SNSScheduler(epsilon=1.0)
        )
        assert results["event"] == results["legacy"]
        records = results["event"][0]
        # processor-steps landed finite and exact (k * dt products are
        # integers below 2**53, where float64 arithmetic is exact)
        for rec in records.values():
            assert rec[4] == int(rec[4])

    def test_wide_k_times_dt_products(self):
        # 64 processors x ~2**45-step chunks: allocated/busy-step
        # counters and psteps reach ~2**51 without losing integrality
        big = float(2**45)
        specs = [wide_spec(j, [big] * 32, deadline=2**53) for j in range(2)]
        results = run_all_backends(
            specs, 64, lambda: SNSScheduler(epsilon=1.0)
        )
        assert results["event"] == results["legacy"]
        counters = results["event"][1]
        assert counters["busy_steps"] == int(counters["busy_steps"])
        assert counters["busy_steps"] > 0

    def test_mixed_magnitudes_with_expiry(self):
        # a tiny job next to a huge one: the next-completion minimum
        # must stay exact while values 2**40 apart are live together
        specs = [
            wide_spec(0, [float(2**40)] * 4, deadline=2**42),
            chain_spec(1, [1.0, 2.0], deadline=10),
            wide_spec(2, [0.5] * 3, deadline=2**42),
        ]
        assert_backends_agree(specs, 4, lambda: SNSScheduler(epsilon=1.0))

    def test_generated_workload_large_scale_spot(self):
        specs = generate_workload(
            WorkloadConfig(
                n_jobs=20, m=8, load=3.0, family="fork_join", epsilon=1.0,
                seed=123,
            )
        )
        assert_backends_agree(specs, 8, lambda: SNSScheduler(epsilon=1.0))
