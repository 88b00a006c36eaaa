"""Exception hierarchy for the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class AllocationError(ReproError):
    """A scheduler returned an invalid processor allocation."""


class SchedulingError(ReproError):
    """A scheduler violated its protocol (unknown job, bad event order)."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class WorkloadError(ReproError):
    """A workload specification is invalid or infeasible to generate."""


class ClusterError(ReproError):
    """A cluster operation failed (dead shard, bad router, protocol)."""


class ShardFailedError(ClusterError):
    """A shard RPC failed fail-stop (dead worker, broken pipe).

    Attributes
    ----------
    shard:
        Index of the failing shard, or ``None`` when unknown.
    reason:
        Failure class the supervisor keys its handling on:
        ``"crash"`` (process dead / pipe broken) or ``"hang"``
        (no reply within the deadline; see :class:`ShardTimeoutError`).
    waited:
        Seconds from the failing call's latest send until the failure
        surfaced; ``0.0`` when it failed before anything was sent.
    """

    def __init__(
        self,
        message: str,
        shard: int = None,
        reason: str = "crash",
        waited: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.reason = reason
        self.waited = waited


class ShardTimeoutError(ShardFailedError):
    """A shard RPC exceeded its deadline (liveness, not fail-stop)."""

    def __init__(self, message: str, shard: int = None, waited: float = 0.0) -> None:
        super().__init__(message, shard=shard, reason="hang", waited=waited)


class RestartBudgetExhausted(ClusterError):
    """A shard failed more times than the supervisor's restart budget.

    Carries the structured summary ``repro-serve`` prints before
    exiting nonzero: the shard, the last fault class, how many restarts
    were spent, and where the last good checkpoint was.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int,
        fault: str,
        restarts: int,
        last_checkpoint_time: int = 0,
        last_checkpoint_log_index: int = 0,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.fault = fault
        self.restarts = restarts
        self.last_checkpoint_time = last_checkpoint_time
        self.last_checkpoint_log_index = last_checkpoint_log_index

    def summary(self) -> dict:
        """JSON-compatible structured error summary."""
        return {
            "error": "recovery-exhausted",
            "shard": self.shard,
            "fault": self.fault,
            "restarts": self.restarts,
            "last_checkpoint_time": self.last_checkpoint_time,
            "last_checkpoint_log_index": self.last_checkpoint_log_index,
        }


class GatewayError(ReproError):
    """A gateway configuration or pacing-loop operation is invalid."""


class WALError(ReproError):
    """A write-ahead log file is unusable (bad magic, wrong version)."""


class ScenarioError(ReproError):
    """A scenario spec is invalid or names an unknown component.

    Attributes
    ----------
    location:
        Dotted spec location of the offending entry (e.g.
        ``"scheduler.name"``), or ``None`` for spec-level failures.
    suggestions:
        Nearest registered names when an unknown component/key was
        named (what the CLI's "did you mean" line prints).
    """

    def __init__(
        self,
        message: str,
        *,
        location: str = None,
        suggestions: list = None,
    ) -> None:
        super().__init__(message)
        self.location = location
        self.suggestions = list(suggestions) if suggestions else []


class SweepError(ReproError):
    """A sweep failed; carries the failing cell for diagnosis.

    Attributes
    ----------
    point:
        The parameter-grid point whose evaluation raised, or ``None``
        for sweep-level failures (e.g. an invalid worker count) that
        have no associated cell.
    seed:
        The replication seed of the failing cell, or ``None``.
    """

    def __init__(self, message: str, point: dict = None, seed: int = None) -> None:
        super().__init__(message)
        self.point = point
        self.seed = seed
