"""Bounded ingest queue with pluggable shed policies.

The service puts this queue in front of the scheduler: submissions
enter here and are released into the engine as in-flight capacity
allows.  When the queue is full, a :class:`ShedPolicy` picks a *victim*
to drop -- overload degrades by shedding the least valuable work
instead of growing memory without bound (the serving-layer analogue of
the paper's admission condition, which only bounds *started* jobs).

Two policies ship:

* :class:`RejectNewest` -- classic bounded-buffer tail drop;
* :class:`RejectLowestDensity` -- drop the job with the smallest
  density ``v_i = p_i / (x_i n_i)``, the exact quantity scheduler S
  orders its queues by (:mod:`repro.core.sns`), so overload sheds the
  work S values least.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.theory import Constants
from repro.errors import WorkloadError
from repro.sim.jobs import JobSpec


def sns_density(
    spec: JobSpec, m: int, constants: Constants, speed: float = 1.0
) -> float:
    """Scheduler S's density ``v_i = p_i/(x_i n_i)`` for a job spec.

    Mirrors :meth:`repro.core.sns.SNSScheduler.compute_state` (work and
    span divided by the machine speed).  General-profit jobs have no
    relative deadline; they fall back to profit per unit work, the
    natural density when the allotment is unknown.
    """
    work = spec.work / speed
    span = spec.span / speed
    rel = spec.relative_deadline
    if rel is None or work <= 0:
        return spec.profit / max(work, 1e-12)
    n = constants.allotment(work, span, rel, m)
    x = constants.execution_bound(work, span, n)
    return constants.density(spec.profit, x, n)


@dataclass
class QueuedJob:
    """One buffered submission: the spec plus queue-time metadata."""

    spec: JobSpec
    #: simulated time the job entered the queue
    enqueued_at: int
    #: S's density of the job (see :func:`sns_density`)
    density: float

    @property
    def job_id(self) -> int:
        """The spec's job id."""
        return self.spec.job_id


class ShedPolicy:
    """Chooses the victim when a full queue receives a new job."""

    #: registry name (see :data:`SHED_POLICIES`)
    name = "abstract"

    def victim(
        self, queued: "IngestQueue", incoming: QueuedJob
    ) -> QueuedJob:
        """Return the job to drop: ``incoming`` or a currently queued one."""
        raise NotImplementedError


class RejectNewest(ShedPolicy):
    """Tail drop: the incoming job is rejected, the queue is untouched."""

    name = "reject-newest"

    def victim(self, queued: "IngestQueue", incoming: QueuedJob) -> QueuedJob:
        """Always shed the incoming job."""
        return incoming


class RejectLowestDensity(ShedPolicy):
    """Shed the lowest-density job among queued + incoming.

    Ties break toward the later enqueue (keep the job that has waited
    longer), then the larger id -- fully deterministic.
    """

    name = "reject-lowest-density"

    def victim(self, queued: "IngestQueue", incoming: QueuedJob) -> QueuedJob:
        """Return the minimum-density entry of queue + incoming."""
        candidates = list(queued.entries()) + [incoming]
        return min(
            candidates, key=lambda e: (e.density, -e.enqueued_at, -e.job_id)
        )


#: Shed-policy registry by name, for CLI flags and snapshots.
SHED_POLICIES: dict[str, type[ShedPolicy]] = {
    RejectNewest.name: RejectNewest,
    RejectLowestDensity.name: RejectLowestDensity,
}


def make_shed_policy(name: str) -> ShedPolicy:
    """Instantiate a shed policy by registry name."""
    try:
        return SHED_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown shed policy {name!r}; known: {sorted(SHED_POLICIES)}"
        ) from None


class IngestQueue:
    """Bounded FIFO buffer between submission and the scheduler.

    Jobs are released (popped) in enqueue order; when :meth:`offer` is
    called on a full queue the policy selects a victim, which is
    returned to the caller for accounting.  Depth never exceeds
    ``capacity``.
    """

    def __init__(
        self, capacity: int, policy: Optional[ShedPolicy] = None
    ) -> None:
        if capacity < 1:
            raise WorkloadError("queue capacity must be >= 1")
        self.capacity = int(capacity)
        self.policy = policy if policy is not None else RejectNewest()
        self._entries: deque[QueuedJob] = deque()
        #: total jobs ever accepted into the queue
        self.accepted = 0
        #: total jobs ever shed (incoming or displaced)
        self.shed = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[QueuedJob, ...]:
        """Current entries in release (FIFO) order."""
        return tuple(self._entries)

    @property
    def depth(self) -> int:
        """Current number of buffered jobs."""
        return len(self._entries)

    # ------------------------------------------------------------------
    def offer(self, entry: QueuedJob) -> Optional[QueuedJob]:
        """Add ``entry``, shedding a victim if the queue is full.

        Returns the shed :class:`QueuedJob` (possibly ``entry`` itself),
        or ``None`` when the queue had room.
        """
        if len(self._entries) < self.capacity:
            self._entries.append(entry)
            self.accepted += 1
            return None
        victim = self.policy.victim(self, entry)
        self.shed += 1
        if victim is entry:
            return victim
        self._entries.remove(victim)
        self._entries.append(entry)
        self.accepted += 1
        return victim

    def pop(self) -> QueuedJob:
        """Release the oldest buffered job."""
        return self._entries.popleft()

    def peek(self) -> Optional[QueuedJob]:
        """The next job to be released, or ``None`` when empty."""
        return self._entries[0] if self._entries else None

    def take_newest(self, n: int) -> list[QueuedJob]:
        """Remove and return up to ``n`` entries from the *tail* (newest
        first).

        An elastic cluster's resize uses this to move queued-but-unstarted
        jobs off a shard: taking from the tail preserves the FIFO
        release order of everything that stays, and the newest jobs have
        waited least, so moving them forfeits the least accumulated
        queue position.
        """
        taken: list[QueuedJob] = []
        while self._entries and len(taken) < n:
            taken.append(self._entries.pop())
        return taken

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestQueue(depth={self.depth}/{self.capacity}, "
            f"policy={self.policy.name}, shed={self.shed})"
        )
