"""The scheduler protocol the simulation engine drives.

A scheduler is an event-driven object.  The engine notifies it of job
arrivals, completions and expiries, and between events repeatedly asks
for a processor *allocation*: a mapping ``job_id -> processor count``
whose values sum to at most ``m``.  The engine then picks ready nodes
(via the configured :mod:`~repro.sim.picker` policy -- never the
scheduler) and advances time.

Semi-non-clairvoyance is structural: schedulers receive
:class:`~repro.sim.jobs.JobView` objects only.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Protocol, runtime_checkable

from repro.errors import SchedulingError
from repro.sim.jobs import JobView


@runtime_checkable
class Scheduler(Protocol):
    """Protocol every scheduler must implement."""

    def on_start(self, m: int, speed: float) -> None:
        """Called once before the run with the machine configuration."""
        ...

    def on_arrival(self, job: JobView, t: int) -> None:
        """Job released at time ``t``."""
        ...

    def on_completion(self, job: JobView, t: int) -> None:
        """Job finished all DAG nodes at time ``t``."""
        ...

    def on_expiry(self, job: JobView, t: int) -> None:
        """Job removed unfinished at its (effective) deadline ``t``."""
        ...

    def allocate(self, t: int) -> dict[int, int]:
        """Return the processor allocation for the step starting at ``t``."""
        ...


class SchedulerBase:
    """Convenience base with no-op event handlers and machine capture.

    Subclasses get ``self.m`` and ``self.speed`` after :meth:`on_start`
    and may override only the hooks they need.  ``wakeup_after`` lets
    time-slot-driven schedulers (the paper's general-profit algorithm)
    bound the engine's fast-forward so allocation changes at slot
    boundaries are not skipped.
    """

    m: int = 0
    speed: float = 1.0

    #: Declare ``True`` when *any* scheduler hook -- :meth:`allocate`,
    #: :meth:`wakeup_after`, arrival/completion/expiry handlers,
    #: :meth:`assign_deadline`, or a priority/eligibility helper they
    #: call -- reads *execution progress*
    #: (:attr:`~repro.sim.jobs.JobView.work_completed` or anything else
    #: derived from node ``remaining`` values).  The flag is a
    #: declaration only: the engine keeps progress current at every
    #: hook and never branches on it, but tools that wrap or classify
    #: schedulers may read it.  DAG *structure* (``num_ready``,
    #: ``is_complete``) is not progress and needs no declaration.
    reads_progress: bool = False

    def on_start(self, m: int, speed: float) -> None:
        """Record machine configuration; override to add setup."""
        self.m = m
        self.speed = speed

    def on_arrival(self, job: JobView, t: int) -> None:
        """No-op; override in subclasses."""

    def on_completion(self, job: JobView, t: int) -> None:
        """No-op; override in subclasses."""

    def on_expiry(self, job: JobView, t: int) -> None:
        """No-op; override in subclasses."""

    def allocate(self, t: int) -> dict[int, int]:  # pragma: no cover - abstract
        """Override: return ``{job_id: processors}`` with total <= m."""
        raise NotImplementedError

    def wakeup_after(self, t: int) -> Optional[int]:
        """Next time > ``t`` at which the allocation may change without an
        arrival/completion/expiry event, or ``None`` if only events can
        change it.  Default: only events."""
        return None

    def assign_deadline(self, job: JobView, t: int) -> Optional[int]:
        """Absolute deadline this scheduler imposes on ``job`` (general-
        profit setting), or ``None``.  Called right after ``on_arrival``;
        the engine expires the job past the returned time."""
        return None

    # ------------------------------------------------------------------
    # Checkpointing (opt-in; see repro.service.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, Any]:
        """Serialize scheduler state to a JSON-compatible dict.

        Schedulers that support service checkpointing override this
        together with :meth:`restore_state`; the default refuses, so a
        checkpoint of an unsupported scheduler fails loudly instead of
        restoring silently-wrong state.
        """
        raise SchedulingError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def restore_state(
        self, data: dict[str, Any], views: Mapping[int, JobView]
    ) -> None:
        """Rebuild scheduler state from :meth:`snapshot_state` output.

        ``views`` maps live job ids to the engine's restored
        :class:`~repro.sim.jobs.JobView` objects; called after
        :meth:`on_start` on a freshly constructed scheduler of the same
        type and configuration.
        """
        raise SchedulingError(
            f"{type(self).__name__} does not support state snapshots"
        )
