#!/usr/bin/env python
"""Recurring real-time DAG tasks, with an ASCII Gantt chart.

Scenario: an embedded vision pipeline runs recurring parallel tasks
(sensor fusion, detection, tracking) as periodic DAG jobs on an 8-core
board -- the workload model of the real-time literature the paper
builds on (federated / global scheduling of DAG tasks).  Every instance
must finish by its period; we sweep the task-set utilization and
compare the paper's scheduler S with online federated scheduling and
the fully non-clairvoyant doubling variant, then draw the schedule S
produces at moderate utilization.

Run:  python examples/realtime_periodic_tasks.py
"""

import numpy as np

from repro import SNSScheduler, Simulator
from repro.analysis import format_table, render_gantt, render_utilization
from repro.baselines import DoublingNonClairvoyant, FederatedScheduler
from repro.dag import fork_join, recursive_fork_join
from repro.observability import TraceRecorder
from repro.workloads import harmonic_taskset, taskset_utilization, unroll_periodic

SCHEDULERS = {
    "S(eps=0.5)": lambda: SNSScheduler(epsilon=0.5),
    "Federated": FederatedScheduler,
    "NC-doubling": lambda: DoublingNonClairvoyant(epsilon=0.5),
}


def pipeline_structures():
    """Three task shapes of the vision pipeline."""
    return [
        fork_join(8, node_work=2.0, name="fusion"),
        recursive_fork_join(3, branching=2, node_work=1.0, name="detect"),
        fork_join(4, node_work=4.0, name="track"),
    ]


def utilization_sweep(m: int = 8) -> None:
    print(f"== Utilization sweep: on-time instance fraction (m={m}) ==\n")
    rows = []
    for target in (0.3, 0.5, 0.7, 0.9):
        tasks = harmonic_taskset(
            pipeline_structures() * 2, base_period=48, m=m,
            target_utilization=target,
        )
        specs = unroll_periodic(tasks, horizon=1024)
        row = [f"{taskset_utilization(tasks) / m:.2f}"]
        for factory in SCHEDULERS.values():
            result = Simulator(m=m, scheduler=factory()).run(list(specs))
            row.append(f"{result.completed_on_time / len(specs):.3f}")
        rows.append(row)
    print(
        format_table(
            ["utilization/m"] + list(SCHEDULERS),
            rows,
            title="On-time fraction of periodic DAG instances",
        )
    )


def gantt_demo(m: int = 8) -> None:
    print("\n== The schedule S builds (one hyperperiod) ==\n")
    # Implicit deadlines (D = period) get tight as utilization rises;
    # Theorem 2 needs D >= (1+eps)((W-L)/m + L), so the drawing uses a
    # utilization where every task keeps that slack.
    tasks = harmonic_taskset(
        pipeline_structures(), base_period=48, m=m, target_utilization=0.35
    )
    specs = unroll_periodic(tasks, horizon=256)
    recorder = TraceRecorder()
    result = Simulator(
        m=m, scheduler=SNSScheduler(epsilon=0.5), recorder=recorder
    ).run(specs)
    print(render_gantt(result, recorder.events, width=72, max_jobs=16))
    print(render_utilization(result, recorder.events, width=72))
    print(
        "\nGlyph intensity = fraction of the machine a job holds;"
        " '|' marks a met deadline bin, 'x' an expiry."
        "\nAt high utilization the implicit deadlines violate Theorem 2's"
        "\nslack assumption and S (rightly) declines those instances --"
        "\nthe utilization sweep above quantifies the resulting misses."
    )


if __name__ == "__main__":
    utilization_sweep()
    gantt_demo()
