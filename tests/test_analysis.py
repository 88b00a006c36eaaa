"""Unit tests for the analysis package (metrics, OPT bounds, stats,
tables, verification)."""

import math

import pytest

from repro.analysis import (
    Aggregate,
    best_effort_lower_bound,
    compare_schedulers,
    empirical_competitive_ratio,
    feasible_profit_bound,
    format_markdown,
    format_table,
    geometric_mean,
    interval_lp_upper_bound,
    opt_bound,
    profit_fraction,
    replicate,
    summarize,
    verify_profits,
    verify_trace_consistency,
    verify_work_accounting,
)
from repro.baselines import FIFOScheduler, GlobalEDF, GreedyDensity
from repro.core import SNSScheduler
from repro.dag import block, chain
from repro.observability import TraceRecorder
from repro.profit import FlatThenLinear, StepProfit
from repro.sim import JobSpec, Simulator
from repro.workloads import WorkloadConfig, generate_workload


class TestLPBound:
    def test_single_feasible_job(self):
        spec = JobSpec(0, chain(4), arrival=0, deadline=10, profit=3.0)
        assert interval_lp_upper_bound([spec], 2) == pytest.approx(3.0)

    def test_single_infeasible_job(self):
        # window 3 < span 4: no schedule can finish it
        spec = JobSpec(0, chain(4), arrival=0, deadline=3, profit=3.0)
        assert interval_lp_upper_bound([spec], 2) == 0.0

    def test_capacity_constrains_selection(self):
        # two block jobs, each work 8, same window of 8 steps, m=1:
        # capacity 8 allows exactly one
        specs = [
            JobSpec(i, block(8), arrival=0, deadline=8, profit=1.0)
            for i in range(2)
        ]
        assert interval_lp_upper_bound(specs, 1) == pytest.approx(1.0)

    def test_fractional_relaxation_can_split(self):
        # capacity 12 over the window; 2 jobs of work 8: LP packs 1.5
        specs = [
            JobSpec(i, block(8), arrival=0, deadline=12, profit=1.0)
            for i in range(2)
        ]
        assert interval_lp_upper_bound(specs, 1) == pytest.approx(1.5)

    def test_disjoint_windows_both_fit(self):
        specs = [
            JobSpec(0, block(8), arrival=0, deadline=8, profit=1.0),
            JobSpec(1, block(8), arrival=8, deadline=16, profit=1.0),
        ]
        assert interval_lp_upper_bound(specs, 1) == pytest.approx(2.0)

    def test_profit_fn_variants(self):
        fn = FlatThenLinear(2.0, 8.0, decay_span=8.0)
        spec = JobSpec(0, chain(4), arrival=0, profit_fn=fn)
        bound = interval_lp_upper_bound([spec], 2)
        # the job can finish by 8 (well within flat region): bound = peak
        assert bound == pytest.approx(2.0, abs=1e-6)

    def test_empty(self):
        assert interval_lp_upper_bound([], 4) == 0.0

    def test_bound_dominates_any_schedule(self):
        specs = generate_workload(WorkloadConfig(n_jobs=30, m=4, load=2.0, seed=7))
        bound = interval_lp_upper_bound(specs, 4)
        for factory in (GlobalEDF, GreedyDensity, FIFOScheduler,
                        lambda: SNSScheduler(epsilon=1.0)):
            profit = Simulator(m=4, scheduler=factory()).run(specs).total_profit
            assert profit <= bound + 1e-6


class TestOtherBounds:
    def test_feasible_bound_dominates_lp(self):
        specs = generate_workload(WorkloadConfig(n_jobs=30, m=4, load=2.0, seed=7))
        assert feasible_profit_bound(specs, 4) >= interval_lp_upper_bound(
            specs, 4
        ) - 1e-9

    def test_feasible_bound_drops_impossible(self):
        specs = [
            JobSpec(0, chain(4), arrival=0, deadline=3, profit=5.0),
            JobSpec(1, chain(4), arrival=0, deadline=10, profit=2.0),
        ]
        assert feasible_profit_bound(specs, 2) == 2.0

    def test_feasible_bound_profit_fn(self):
        fn = StepProfit(3.0, 10.0)
        spec = JobSpec(0, chain(4), arrival=0, profit_fn=fn)
        assert feasible_profit_bound([spec], 2) == 3.0

    def test_lower_bound_below_upper(self):
        specs = generate_workload(WorkloadConfig(n_jobs=25, m=4, load=2.0, seed=3))
        lower = best_effort_lower_bound(specs, 4)
        upper = interval_lp_upper_bound(specs, 4)
        assert lower <= upper + 1e-6

    def test_opt_bound_dispatch(self):
        specs = generate_workload(WorkloadConfig(n_jobs=10, m=4, seed=1))
        assert opt_bound(specs, 4, method="lp") <= opt_bound(
            specs, 4, method="feasible"
        ) + 1e-9
        with pytest.raises(ValueError):
            opt_bound(specs, 4, method="nope")


class TestMetrics:
    def _result(self):
        specs = [
            JobSpec(0, chain(4), arrival=0, deadline=10, profit=2.0),
            JobSpec(1, chain(40), arrival=0, deadline=10, profit=5.0),
        ]
        return Simulator(m=1, scheduler=GlobalEDF()).run(specs), specs

    def test_summarize(self):
        result, _ = self._result()
        summary = summarize(result)
        assert summary.total_profit == 2.0
        assert summary.jobs == 2
        assert summary.on_time == 1
        assert summary.expired == 1
        assert summary.on_time_fraction == 0.5
        assert 0 < summary.utilization <= 1

    def test_profit_fraction(self):
        result, _ = self._result()
        assert profit_fraction(result, 4.0) == 0.5
        assert profit_fraction(result, 0.0) == float("inf")

    def test_empirical_ratio(self):
        result, _ = self._result()
        assert empirical_competitive_ratio(result, 4.0) == 2.0


class TestVerification:
    def test_clean_run_verifies(self):
        specs = generate_workload(WorkloadConfig(n_jobs=20, m=4, load=2.0, seed=2))
        recorder = TraceRecorder()
        result = Simulator(
            m=4, scheduler=GlobalEDF(), recorder=recorder
        ).run(specs)
        assert verify_profits(result, specs) == []
        assert verify_work_accounting(result, specs) == []
        assert verify_trace_consistency(result, recorder.events) == []

    def test_corrupted_profit_detected(self):
        specs = [JobSpec(0, chain(4), arrival=0, deadline=10, profit=2.0)]
        result = Simulator(m=1, scheduler=GlobalEDF()).run(specs)
        result.records[0].profit = 99.0
        assert verify_profits(result, specs)

    def test_missing_trace_reported(self):
        specs = [JobSpec(0, chain(4), arrival=0, deadline=10)]
        result = Simulator(m=1, scheduler=GlobalEDF()).run(specs)
        assert verify_trace_consistency(result, []) == ["no trace recorded"]


class TestCompare:
    def test_compare_schedulers(self):
        specs = generate_workload(WorkloadConfig(n_jobs=15, m=4, load=2.0, seed=1))
        rows = compare_schedulers(
            specs,
            4,
            {"edf": GlobalEDF, "fifo": FIFOScheduler},
            bound_method="feasible",
        )
        assert [r.name for r in rows] == ["edf", "fifo"]
        for row in rows:
            assert 0 <= row.fraction_of_bound <= 1 + 1e-9
            assert row.jobs == 15


class TestStats:
    def test_aggregate(self):
        agg = Aggregate.of([1.0, 2.0, 3.0])
        assert agg.mean == 2.0
        assert agg.n == 3
        assert agg.lo < 2.0 < agg.hi

    def test_aggregate_singleton(self):
        agg = Aggregate.of([5.0])
        assert agg.mean == 5.0
        assert agg.std == 0.0

    def test_aggregate_empty_and_nan(self):
        agg = Aggregate.of([float("nan")])
        assert agg.n == 0
        assert math.isnan(agg.mean)

    def test_replicate(self):
        agg = replicate(lambda seed: float(seed), [1, 2, 3])
        assert agg.mean == 2.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert math.isnan(geometric_mean([]))
        assert math.isnan(geometric_mean([0.0, 1.0]))


class TestTables:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.34567], [10, 3]], title="T")
        assert "T" in text
        assert "2.346" in text
        lines = text.splitlines()
        assert len(lines) == 6  # title, rule, header, separator, 2 rows

    def test_format_markdown(self):
        md = format_markdown(["x", "y"], [[1, 2]])
        assert md.splitlines()[0] == "| x | y |"
        assert md.splitlines()[2] == "| 1 | 2 |"
