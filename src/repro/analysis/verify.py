"""Post-hoc verification of finished runs against model invariants.

These checks are the oracles the integration tests and the invariant
experiment (E8) use: they consume a :class:`SimulationResult` (plus the
workload and, for scheduler-specific checks, the scheduler) and return
human-readable violation lists (empty = all good).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.sns import SNSScheduler
from repro.observability.spans import allocation_slices
from repro.sim.engine import SimulationResult
from repro.sim.jobs import JobSpec


def verify_profits(result: SimulationResult, specs: Sequence[JobSpec]) -> list[str]:
    """Each job's earned profit matches its completion time and spec."""
    problems: list[str] = []
    by_id = {sp.job_id: sp for sp in specs}
    for rec in result.records.values():
        spec = by_id.get(rec.job_id)
        if spec is None:
            problems.append(f"record for unknown job {rec.job_id}")
            continue
        if rec.completion_time is None:
            if rec.profit != 0.0:
                problems.append(f"job {rec.job_id}: profit without completion")
            continue
        expected = spec.profit_at(rec.completion_time - spec.arrival)
        if abs(rec.profit - expected) > 1e-9:
            problems.append(
                f"job {rec.job_id}: profit {rec.profit} != expected {expected}"
            )
        if spec.deadline is not None and rec.completion_time > spec.deadline:
            problems.append(
                f"job {rec.job_id}: completed at {rec.completion_time} past "
                f"deadline {spec.deadline} (engine should have expired it)"
            )
    return problems


def verify_work_accounting(
    result: SimulationResult, specs: Sequence[JobSpec]
) -> list[str]:
    """Processor-step accounting is conservative and sufficient.

    * A completed job must have received at least ``W/speed``
      processor-steps (whole-step occupancy can only add);
    * no job received more dedicated steps than ``m`` times its
      residence time;
    * machine-wide busy steps never exceed ``m * elapsed``.
    """
    problems: list[str] = []
    by_id = {sp.job_id: sp for sp in specs}
    start = min((sp.arrival for sp in specs), default=0)
    elapsed = max(result.end_time - start, 0)
    for rec in result.records.values():
        spec = by_id[rec.job_id]
        if rec.completion_time is not None:
            needed = spec.work / result.speed
            if rec.processor_steps + 1e-6 < needed - spec.structure.num_nodes:
                problems.append(
                    f"job {rec.job_id}: completed with only "
                    f"{rec.processor_steps} processor-steps "
                    f"(needs >= {needed:.6g} minus per-node rounding)"
                )
            residence = rec.completion_time - spec.arrival
            if rec.processor_steps > result.m * residence + 1e-6:
                problems.append(
                    f"job {rec.job_id}: {rec.processor_steps} processor-steps "
                    f"in residence {residence} on {result.m} processors"
                )
    if result.counters.busy_steps > result.m * elapsed + 1e-6:
        problems.append(
            f"busy steps {result.counters.busy_steps} exceed machine capacity "
            f"{result.m * elapsed}"
        )
    if result.counters.busy_steps > result.counters.allocated_steps + 1e-6:
        problems.append("busy steps exceed allocated steps")
    return problems


def verify_sns_observation2(
    result: SimulationResult, scheduler: SNSScheduler
) -> list[str]:
    """Observation 2: a job S completed received at most
    ``ceil(x_i) * n_i`` dedicated processor-steps.

    (S always hands a job exactly ``n_i`` processors, and Observation 2
    bounds the number of such steps before completion by ``x_i``.)
    """
    problems: list[str] = []
    for rec in result.records.values():
        state = scheduler.all_states.get(rec.job_id)
        if state is None or rec.completion_time is None:
            continue
        import math

        cap = math.ceil(state.x) * state.allotment
        if rec.processor_steps > cap + 1e-6:
            problems.append(
                f"job {rec.job_id}: {rec.processor_steps} processor-steps > "
                f"ceil(x)*n = {cap}"
            )
    return problems


def verify_trace_consistency(
    result: SimulationResult, events: Sequence[Any]
) -> list[str]:
    """Trace slices respect machine capacity and never overlap in time.

    ``events`` is the run's recorder trace, read through
    :func:`~repro.observability.spans.allocation_slices`.
    """
    if not events and result.records:
        return ["no trace recorded"]
    problems: list[str] = []
    prev_end = None
    for t0, t1, entries in allocation_slices(events):
        if prev_end is not None and t0 < prev_end:
            problems.append(f"overlapping slice at t={t0}")
        prev_end = t1
        allocated = sum(a for _, a, _ in entries)
        if allocated > result.m:
            problems.append(f"slice [{t0},{t1}): allocated {allocated} > m")
        if sum(e for _, _, e in entries) > allocated:
            problems.append(f"slice [{t0},{t1}): busy > allocated")
    return problems
