"""Job specifications, runtime records and the semi-non-clairvoyant view.

Three layers:

* :class:`JobSpec` -- the immutable description a workload generator
  produces: DAG structure, arrival time, and either a deadline+profit
  pair (throughput setting, paper Section 3) or a general profit function
  (Section 5).
* :class:`ActiveJob` -- the engine's runtime record: the mutable
  :class:`~repro.dag.job.DAGJob` plus bookkeeping (executing nodes,
  completion time, scheduler-assigned deadline).
* :class:`JobView` -- what a scheduler is allowed to see.  The paper's
  algorithms are *semi-non-clairvoyant*: on arrival they learn only the
  total work ``W`` and span ``L``, and afterwards only how many nodes are
  ready.  The view enforces that boundary by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.dag.graph import DAGStructure
from repro.dag.job import DAGJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.profit.functions import ProfitFunction


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one job in a workload.

    Parameters
    ----------
    job_id:
        Unique identifier within the workload.
    structure:
        The job's DAG.
    arrival:
        Release time :math:`r_i` (integer time step).
    deadline:
        Absolute deadline :math:`d_i` (throughput setting), or ``None``
        in the general-profit setting where ``profit_fn`` governs.
    profit:
        Profit :math:`p_i` for on-time completion (throughput setting).
    profit_fn:
        Non-increasing profit function :math:`p_i(t)` of the *relative*
        completion time (general-profit setting).  Mutually exclusive
        with ``deadline``.
    """

    job_id: int
    structure: DAGStructure
    arrival: int
    deadline: Optional[int] = None
    profit: float = 1.0
    profit_fn: Optional["ProfitFunction"] = None

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        if self.deadline is None and self.profit_fn is None:
            raise ValueError("job needs a deadline or a profit function")
        if self.deadline is not None and self.profit_fn is not None:
            raise ValueError("deadline and profit_fn are mutually exclusive")
        if self.deadline is not None and self.deadline <= self.arrival:
            raise ValueError("deadline must be after arrival")
        if self.profit_fn is not None:
            # expose the flat-region value as the scalar profit so
            # profit-aware baselines see something meaningful
            object.__setattr__(self, "profit", float(self.profit_fn.peak))
        if self.profit < 0:
            raise ValueError("profit must be non-negative")

    # ------------------------------------------------------------------
    @property
    def work(self) -> float:
        """Total work :math:`W_i`."""
        return self.structure.total_work

    @property
    def span(self) -> float:
        """Critical-path length :math:`L_i`."""
        return self.structure.span

    @property
    def relative_deadline(self) -> Optional[int]:
        """:math:`D_i = d_i - r_i`, or ``None`` for general-profit jobs."""
        if self.deadline is None:
            return None
        return self.deadline - self.arrival

    def min_execution_time(self, m: int) -> float:
        """Lower bound ``max(L, W/m)`` on any 1-speed completion time."""
        return max(self.span, self.work / m)

    def sequential_bound(self, m: int) -> float:
        """The semi-non-clairvoyant bound ``(W - L)/m + L`` on ``m`` cores.

        Greedily running the job alone on ``m`` unit-speed processors
        always finishes within this time regardless of ready-node choice
        (Graham's bound); the paper's deadline-slack assumption is stated
        relative to it.
        """
        return (self.work - self.span) / m + self.span

    def profit_at(self, completion_offset: float) -> float:
        """Profit obtained if the job finishes ``completion_offset`` after
        arrival (dispatches on the throughput/general-profit setting)."""
        if self.profit_fn is not None:
            return float(self.profit_fn(completion_offset))
        assert self.deadline is not None
        return self.profit if completion_offset <= self.deadline - self.arrival else 0.0


class ActiveJob:
    """Engine-side runtime record of a released job."""

    __slots__ = (
        "spec",
        "dag",
        "executing",
        "completion_time",
        "assigned_deadline",
        "expired",
        "abandoned",
        "processor_steps",
        "earned_profit",
        "view",
        "_pick_version",
        "_pick_k",
        "_pick_nodes",
        "_assign",
        "_min_rem",
    )

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.dag = DAGJob(spec.structure)
        #: node ids currently holding a processor
        self.executing: tuple[int, ...] = ()
        #: absolute completion time, or None while unfinished
        self.completion_time: Optional[int] = None
        #: deadline assigned by the scheduler (general-profit setting);
        #: overrides nothing, but the engine expires the job past it
        self.assigned_deadline: Optional[int] = None
        self.expired = False
        self.abandoned = False
        #: total processor-steps consumed so far
        self.processor_steps = 0.0
        self.earned_profit = 0.0
        #: the scheduler-facing view; ``None`` once the job is retired
        self.view: Optional[JobView] = JobView(self)
        # FIFO-pick memo (engine-internal, never snapshotted): the last
        # pick is reusable while the ready set and requested width are
        # unchanged and the job stayed allocated.
        self._pick_version = -1
        self._pick_k = -1
        self._pick_nodes: list[int] = []
        #: the engine's (job, nodes, k, dag) assignment entry, built once
        #: per memo write and re-appended on every memo hit
        self._assign: tuple = ()
        # Smallest remaining work among the executing nodes, maintained
        # decrementally while the pick memo holds (-1.0 = recompute).
        # IEEE subtraction is monotone, so depleting every executing node
        # by the same amount keeps the argmin fixed and this value equals
        # min(remaining) bit-for-bit.
        self._min_rem = -1.0

    @property
    def job_id(self) -> int:
        """The spec's job id."""
        return self.spec.job_id

    def effective_deadline(self) -> Optional[int]:
        """The absolute time past which the engine expires this job.

        The spec deadline if present, else the scheduler-assigned one
        (general-profit setting), else ``None`` (never expires).
        """
        if self.spec.deadline is not None:
            return self.spec.deadline
        return self.assigned_deadline

    def is_complete(self) -> bool:
        """Whether all DAG nodes are done."""
        return self.dag.is_complete()

    def is_live(self) -> bool:
        """Whether the job can still earn profit in this run."""
        return not (self.is_complete() or self.expired or self.abandoned)

    def retire(self) -> None:
        """Free the runtime state of a job that reached its terminal event.

        The engine calls this once per job, after the scheduler's
        callback: it releases the DAG's per-node state
        (:meth:`~repro.dag.job.DAGJob.release`), clears the pick memo
        (whose assignment entry points back at this job) and drops
        :attr:`view`, breaking the job <-> view cycle, so the job is
        freed by reference counting instead of by the cycle collector.
        A view kept elsewhere still answers (see :class:`JobView`).
        """
        self.dag.release()
        self._pick_nodes = self._assign = ()
        self.view = None


class JobView:
    """The scheduler-facing, information-restricted view of a job.

    Exposes exactly the paper's semi-non-clairvoyant interface: identity,
    arrival, deadline/profit data, ``W``, ``L``, and the current number
    of ready nodes.  It deliberately has no accessor for the DAG
    topology or for node identities.

    A view stays valid after its job leaves the run (the engine retires
    the job, see :meth:`ActiveJob.retire`): the static fields,
    :attr:`assigned_deadline` and :attr:`is_complete` answer as before,
    :attr:`num_ready` reads 0 and :attr:`work_completed` keeps its
    final value.
    """

    __slots__ = ("_job",)

    def __init__(self, job: ActiveJob) -> None:
        self._job = job

    # -- identity / static data ---------------------------------------
    @property
    def job_id(self) -> int:
        """Unique job identifier."""
        return self._job.spec.job_id

    @property
    def arrival(self) -> int:
        """Release time :math:`r_i`."""
        return self._job.spec.arrival

    @property
    def deadline(self) -> Optional[int]:
        """Absolute spec deadline :math:`d_i` (``None`` in general-profit)."""
        return self._job.spec.deadline

    @property
    def relative_deadline(self) -> Optional[int]:
        """:math:`D_i = d_i - r_i`."""
        return self._job.spec.relative_deadline

    @property
    def profit(self) -> float:
        """On-time profit :math:`p_i` (throughput setting)."""
        return self._job.spec.profit

    @property
    def profit_fn(self) -> Optional["ProfitFunction"]:
        """General profit function :math:`p_i(t)`, when present."""
        return self._job.spec.profit_fn

    @property
    def work(self) -> float:
        """Total work :math:`W_i` (known at arrival per the paper)."""
        return self._job.spec.work

    @property
    def span(self) -> float:
        """Span :math:`L_i` (known at arrival per the paper)."""
        return self._job.spec.span

    # -- dynamic, permitted data --------------------------------------
    @property
    def num_ready(self) -> int:
        """Number of currently ready nodes (the scheduler may know this)."""
        return self._job.dag.num_ready()

    @property
    def is_complete(self) -> bool:
        """Whether the job has finished."""
        return self._job.dag.is_complete()

    @property
    def work_completed(self) -> float:
        """Work processed so far.

        A real scheduler can observe this from its own execution trace;
        the paper's algorithm never uses it (its allotments are fixed at
        arrival), but laxity-based baselines do.
        """
        return self._job.spec.work - self._job.dag.remaining_work()

    @property
    def assigned_deadline(self) -> Optional[int]:
        """Deadline assigned by a general-profit scheduler, if any."""
        return self._job.assigned_deadline

    # -- derived helpers ----------------------------------------------
    def sequential_bound(self, m: int) -> float:
        """``(W - L)/m + L`` -- see :meth:`JobSpec.sequential_bound`."""
        return self._job.spec.sequential_bound(m)

    def slack_factor(self, m: int) -> float:
        """``D / ((W-L)/m + L)`` -- how much the deadline exceeds the
        semi-non-clairvoyant bound; the paper assumes this is >= 1+eps."""
        rel = self.relative_deadline
        if rel is None:
            return math.inf
        return rel / self.sequential_bound(m)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobView(id={self.job_id}, r={self.arrival}, d={self.deadline}, "
            f"W={self.work:.6g}, L={self.span:.6g})"
        )


@dataclass
class CompletionRecord:
    """Outcome of one job in a finished simulation."""

    job_id: int
    arrival: int
    deadline: Optional[int]
    completion_time: Optional[int]
    profit: float
    #: total processor-steps the engine spent on this job
    processor_steps: float = 0.0
    #: True when the job was removed at its deadline without finishing
    expired: bool = False
    #: True when the run ended (or scheduler gave up) before completion
    abandoned: bool = False
    #: scheduler-assigned deadline (general-profit setting)
    assigned_deadline: Optional[int] = None
    extra: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """Whether the job finished (regardless of earning profit)."""
        return self.completion_time is not None

    @property
    def on_time(self) -> bool:
        """Whether the job finished by its effective deadline."""
        if self.completion_time is None:
            return False
        deadline = self.deadline if self.deadline is not None else self.assigned_deadline
        return deadline is None or self.completion_time <= deadline
