"""Bounded ingest buffering between the traffic front and the cluster.

The gateway never hands an unbounded burst straight to the cluster: due
arrivals first land in an :class:`IngestBuffer`, a bounded FIFO, and the
dispatch stage drains it in per-tick batches.  The bound is the
gateway's *backpressure* mechanism -- when an open-loop flash crowd
outruns dispatch, `offer` starts refusing and the refused submissions
are recorded as :class:`DroppedSubmission` gateway sheds (distinct from
the scheduler's *admission-control* sheds, which are decisions about
jobs the cluster actually saw).  Keeping the two shed kinds separate is
what lets the KPI feed say "the front door turned users away" vs "S
declined unprofitable work".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.errors import GatewayError
from repro.sim.jobs import JobSpec


@dataclass(frozen=True)
class DroppedSubmission:
    """One job the full ingest buffer refused at the front door."""

    job_id: int
    #: the job's intended arrival time (simulated steps)
    arrival: int
    #: gateway tick on which the drop happened
    tick: int
    #: forgone profit
    profit: float


class IngestBuffer:
    """Bounded FIFO of :class:`JobSpec` awaiting dispatch.

    Single-threaded by design: the gateway loop is the only producer
    and the only consumer, so there is no locking -- determinism comes
    for free.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise GatewayError("ingest buffer capacity must be >= 1")
        self.capacity = capacity
        self._queue: deque[JobSpec] = deque()

    @property
    def depth(self) -> int:
        """Jobs currently buffered."""
        return len(self._queue)

    def offer(self, spec: JobSpec) -> bool:
        """Accept ``spec`` if there is room; return ``False`` on overflow."""
        if len(self._queue) >= self.capacity:
            return False
        self._queue.append(spec)
        return True

    def drain(self, max_n: Optional[int] = None) -> list[JobSpec]:
        """Pop up to ``max_n`` buffered jobs in FIFO order (all if None)."""
        n = len(self._queue) if max_n is None else min(max_n, len(self._queue))
        return [self._queue.popleft() for _ in range(n)]

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IngestBuffer(depth={self.depth}/{self.capacity})"
