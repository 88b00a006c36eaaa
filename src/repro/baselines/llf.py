"""Global Least-Laxity-First for DAG jobs.

Laxity estimates how much slack a job has before its deadline becomes
unmeetable.  With DAG jobs and semi-non-clairvoyance the true remaining
time is unknowable, so we use the optimistic estimate
``remaining_work / (m * speed)`` (all processors, full parallelism);
jobs whose estimated laxity is most negative are most urgent.
"""

from __future__ import annotations

from repro.baselines.base import ListScheduler
from repro.sim.jobs import JobView


class LeastLaxityFirst(ListScheduler):
    """Smallest estimated laxity first; deadline-less jobs last."""

    # laxity reads work_completed at every decision
    reads_progress = True

    def priority(self, job: JobView, t: int) -> tuple[float, int]:
        deadline = job.deadline
        if deadline is None:
            return (float("inf"), job.job_id)
        remaining_work = job.work - job.work_completed
        estimate = remaining_work / (self.m * self.speed)
        laxity = (deadline - t) - estimate
        return (laxity, job.job_id)
