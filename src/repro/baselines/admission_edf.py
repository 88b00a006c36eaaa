"""EDF with utilization-based admission control.

Ablation isolating *what kind* of admission matters: this scheduler
pairs EDF execution with a simple capacity admission test (no density
bands, no fixed allotments).  An arriving job is admitted iff the total
remaining committed work of admitted jobs plus its own fits in the
machine capacity up to every affected deadline — the single-machine
demand-bound test lifted to ``m`` processors (necessary, not
sufficient, for DAG jobs; the span side is checked per job).

Comparing ``S`` vs ``AdmissionEDF`` vs plain ``GlobalEDF`` (experiment
E13) separates the value of *any* admission control from the value of
the paper's density-band machinery.
"""

from __future__ import annotations

from repro.baselines.base import ListScheduler
from repro.sim.jobs import JobView


class AdmissionEDF(ListScheduler):
    """EDF execution + demand-bound admission at arrival."""

    # the admission test sums work_completed over admitted jobs inside
    # on_arrival
    reads_progress = True

    def __init__(self, utilization_cap: float = 1.0) -> None:
        super().__init__()
        if not 0 < utilization_cap <= 1.0:
            raise ValueError("utilization_cap must be in (0, 1]")
        self.utilization_cap = float(utilization_cap)
        self.admitted: set[int] = set()

    def _fits(self, job: JobView, t: int) -> bool:
        deadline = job.deadline
        if deadline is None:
            return True
        # per-job feasibility: window must cover span and W/m
        window = deadline - t
        if window * self.speed < max(job.span, job.work / self.m) - 1e-9:
            return False
        # demand bound against every admitted deadline >= this job's:
        # work due by time d must fit in m * (d - t) * speed
        capacity_scale = self.m * self.speed * self.utilization_cap
        admitted = [self.jobs[j] for j in self.admitted if j in self.jobs]
        deadlines = sorted(
            {deadline}
            | {v.deadline for v in admitted if v.deadline is not None}
        )
        for d in deadlines:
            demand = sum(
                v.work - v.work_completed
                for v in admitted
                if v.deadline is not None and v.deadline <= d
            )
            if deadline <= d:
                demand += job.work
            if demand > capacity_scale * (d - t) + 1e-9:
                return False
        return True

    def on_arrival(self, job: JobView, t: int) -> None:
        super().on_arrival(job, t)
        if self._fits(job, t):
            self.admitted.add(job.job_id)

    def on_completion(self, job: JobView, t: int) -> None:
        super().on_completion(job, t)
        self.admitted.discard(job.job_id)

    def on_expiry(self, job: JobView, t: int) -> None:
        super().on_expiry(job, t)
        self.admitted.discard(job.job_id)

    def priority(self, job: JobView, t: int) -> tuple[float, int]:
        deadline = job.deadline
        return (float("inf") if deadline is None else float(deadline), job.job_id)

    def eligible(self, job: JobView, t: int) -> bool:
        """Only admitted jobs receive processors."""
        return job.job_id in self.admitted

    def snapshot_state(self) -> dict:
        """Extend the base snapshot with the admitted set."""
        data = super().snapshot_state()
        data["admitted"] = sorted(self.admitted)
        return data

    def restore_state(self, data: dict, views) -> None:
        """Rebuild the live-job and admitted sets."""
        super().restore_state(data, views)
        self.admitted = {int(i) for i in data["admitted"]}
