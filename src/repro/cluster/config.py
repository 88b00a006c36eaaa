"""Shard configuration: picklable recipes for building shard services.

A cluster shard may live in another process, so a shard cannot hold a
live scheduler object -- it holds a :class:`ShardConfig`, a plain
JSON/pickle-compatible recipe (scheduler *name* plus constructor
kwargs, machine count, queue bound, shed policy, ...) from which the
shard -- wherever it runs -- builds its own
:class:`~repro.service.service.SchedulingService`.  The same recipe is
reused verbatim when a killed shard is restored, which is what makes
checkpoint recovery deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.errors import ClusterError, ScenarioError
from repro.service.queue import SHED_POLICIES, make_shed_policy
from repro.service.service import SchedulingService
from repro.service.telemetry import MetricsRegistry
from repro.sim.scheduler import Scheduler

class _SchedulerRegistryView:
    """Lazy ``{name: factory}`` view over the shared component registry.

    Kept for compatibility with older call sites that iterate
    ``SCHEDULER_REGISTRY`` for the scheduler name list; resolution
    itself goes through :data:`repro.scenarios.registry.REGISTRY`, so
    every registered scheduler (S, the baselines, the ablations) is
    buildable in a shard worker process by name.
    """

    def _registry(self):
        # deferred so repro.cluster does not import the scheduler stack
        # at module-import time in worker processes that never use it
        from repro.scenarios.components import install_default_components
        from repro.scenarios.registry import REGISTRY

        install_default_components()
        return REGISTRY

    def __getitem__(self, name: str) -> Callable[..., Scheduler]:
        try:
            return self._registry().get("scheduler", name).factory
        except ScenarioError:
            raise KeyError(name) from None

    def __contains__(self, name: object) -> bool:
        return self._registry().has("scheduler", str(name))

    def __iter__(self):
        return iter(self._registry().names("scheduler"))

    def __len__(self) -> int:
        return len(self._registry().names("scheduler"))

    def keys(self):
        return self._registry().names("scheduler")


#: Scheduler factories buildable from a ``(name, kwargs)`` recipe in a
#: shard worker process.  Keys are the spec's ``scheduler.name`` values.
SCHEDULER_REGISTRY = _SchedulerRegistryView()


def make_scheduler(name: str, **kwargs: Any) -> Scheduler:
    """Build a scheduler from its registry name and constructor kwargs."""
    from repro.scenarios.components import install_default_components
    from repro.scenarios.registry import REGISTRY

    install_default_components()
    try:
        return REGISTRY.create("scheduler", name, **kwargs)
    except ScenarioError as exc:
        raise ClusterError(str(exc)) from None


@dataclass(frozen=True)
class ShardConfig:
    """Everything needed to (re)build one shard's service, picklable.

    ``scheduler`` / ``scheduler_kwargs`` name a
    :data:`SCHEDULER_REGISTRY` entry; ``keep_samples`` is the
    shard registry's :class:`~repro.service.telemetry.MetricsRegistry`
    flag; the remaining fields mirror the
    :class:`~repro.service.service.SchedulingService` constructor.

    A shard keeps no telemetry samples by default: only a run's
    metrics log reads them (``repro-scenario run --metrics`` in
    cluster mode sets ``keep_samples``), and without them the shard
    service builds no sample and syncs its gauges when read.
    """

    m: int
    scheduler: str = "sns"
    scheduler_kwargs: dict[str, Any] = field(default_factory=dict)
    capacity: int = 1024
    shed_policy: str = "reject-newest"
    max_in_flight: Optional[int] = None
    speed: float = 1.0
    horizon: Optional[int] = None
    preemption_overhead: float = 0.0
    sample_every: Optional[int] = None
    keep_samples: bool = False

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ClusterError("shard machine count must be >= 1")
        if self.shed_policy not in SHED_POLICIES:
            raise ClusterError(
                f"unknown shed policy {self.shed_policy!r}; "
                f"known: {sorted(SHED_POLICIES)}"
            )

    def with_machines(self, m: int) -> "ShardConfig":
        """Copy of this config for a shard of ``m`` machines."""
        return replace(self, m=m)

    def build_scheduler(self) -> Scheduler:
        """Fresh scheduler instance from the recipe."""
        return make_scheduler(self.scheduler, **self.scheduler_kwargs)

    def build_registry(self) -> MetricsRegistry:
        """Fresh shard registry: samples kept iff ``keep_samples``."""
        return MetricsRegistry(keep_samples=self.keep_samples)

    def build_service(
        self,
        *,
        metrics: Optional[MetricsRegistry] = None,
        recorder: Optional[Any] = None,
    ) -> SchedulingService:
        """Fresh :class:`SchedulingService` from the recipe, with
        ``metrics`` or else :meth:`build_registry`'s registry."""
        if metrics is None:
            metrics = self.build_registry()
        return SchedulingService(
            m=self.m,
            scheduler=self.build_scheduler(),
            capacity=self.capacity,
            shed_policy=make_shed_policy(self.shed_policy),
            max_in_flight=self.max_in_flight,
            speed=self.speed,
            horizon=self.horizon,
            preemption_overhead=self.preemption_overhead,
            metrics=metrics,
            sample_every=self.sample_every,
            recorder=recorder,
        )


def partition_machines(m: int, k: int) -> list[int]:
    """Split ``m`` machines into ``k`` shard sizes, as even as possible.

    The first ``m % k`` shards get the extra machine, so the split is
    deterministic and every shard has at least one machine.

    >>> partition_machines(10, 4)
    [3, 3, 2, 2]
    """
    if k < 1:
        raise ClusterError("shard count must be >= 1")
    if m < k:
        raise ClusterError(f"cannot split {m} machines into {k} shards")
    base, extra = divmod(m, k)
    return [base + 1 if i < extra else base for i in range(k)]
