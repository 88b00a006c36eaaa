"""One-call run reports: workload stats, scheduler comparison, Gantt.

``scheduler_report`` is the library's "show me everything" entry point
for interactive use: it characterizes the workload, runs a scheduler
portfolio against an OPT bound, and optionally renders the winning
schedule.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.gantt import render_gantt, render_utilization
from repro.analysis.metrics import summarize
from repro.analysis.opt import opt_bound
from repro.analysis.ratios import compare_schedulers
from repro.analysis.tables import format_table
from repro.observability.recorder import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.jobs import JobSpec
from repro.sim.scheduler import Scheduler


def workload_summary(specs: Sequence[JobSpec], m: int) -> str:
    """Characterize a workload: sizes, parallelism, load, slack."""
    if not specs:
        return "(empty workload)"
    works = np.array([sp.work for sp in specs])
    spans = np.array([sp.span for sp in specs])
    arrivals = np.array([sp.arrival for sp in specs])
    horizon = max(int(arrivals.max()) + 1, 1)
    rows = [
        ["jobs", len(specs)],
        ["arrival window", f"[{arrivals.min()}, {arrivals.max()}]"],
        ["work (mean/max)", f"{works.mean():.4g} / {works.max():.4g}"],
        ["span (mean/max)", f"{spans.mean():.4g} / {spans.max():.4g}"],
        ["parallelism (mean)", f"{(works / spans).mean():.4g}"],
        ["offered load", f"{works.sum() / (m * horizon):.4g} x capacity"],
    ]
    deadline_specs = [sp for sp in specs if sp.deadline is not None]
    if deadline_specs:
        slack = np.array(
            [
                (sp.deadline - sp.arrival) / sp.sequential_bound(m)
                for sp in deadline_specs
            ]
        )
        rows.append(["slack (min/mean)", f"{slack.min():.4g} / {slack.mean():.4g}"])
    return format_table(["property", "value"], rows, title="Workload")


def scheduler_report(
    specs: Sequence[JobSpec],
    m: int,
    schedulers: Mapping[str, Callable[[], Scheduler]],
    speed: float = 1.0,
    bound_method: str = "lp",
    gantt_for: Optional[str] = None,
    gantt_width: int = 72,
) -> str:
    """Full text report: workload stats + comparison + optional Gantt.

    ``gantt_for`` names the scheduler whose schedule to draw (requires a
    second, traced run).
    """
    parts = [workload_summary(specs, m)]
    bound = opt_bound(specs, m, method=bound_method)
    rows = compare_schedulers(
        specs, m, schedulers, speed=speed, bound=bound
    )
    table_rows = []
    for row in rows:
        summary = summarize(row.result)
        table_rows.append(
            [
                row.name,
                round(row.profit, 3),
                round(row.fraction_of_bound, 4),
                f"{summary.on_time}/{summary.jobs}",
                round(summary.utilization, 3),
                summary.preemptions,
            ]
        )
    parts.append("")
    parts.append(
        format_table(
            ["scheduler", "profit", "vs bound", "on-time", "util", "preempts"],
            table_rows,
            title=f"Comparison (OPT bound = {bound:.4g}, method = {bound_method})",
        )
    )
    if gantt_for is not None:
        if gantt_for not in schedulers:
            raise KeyError(f"unknown scheduler {gantt_for!r} for gantt_for")
        recorder = TraceRecorder()
        traced = Simulator(
            m=m, scheduler=schedulers[gantt_for](), speed=speed,
            recorder=recorder,
        ).run(list(specs))
        parts.append("")
        parts.append(f"Schedule of {gantt_for}:")
        parts.append(render_gantt(traced, recorder.events, width=gantt_width))
        parts.append(
            render_utilization(traced, recorder.events, width=gantt_width)
        )
    return "\n".join(parts)
