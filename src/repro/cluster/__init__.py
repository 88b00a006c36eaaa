"""Sharded multi-process serving: routed admission, stealing, recovery.

Scales the single-process :mod:`repro.service` layer out: ``m``
machines split into ``k`` independent machine-pool shards, each running
its own scheduler-S service, with jobs placed by a pluggable router at
submit time, running jobs moved between shards only by the
coordinator's steals (and queued jobs only by an elastic resize), and
crashed shards of a supervised cluster restored from checkpoints plus
submission-log replay (faults are injected by
:mod:`repro.resilience.chaos`).

Package map
-----------
* :mod:`repro.cluster.config` -- picklable shard recipes + partitioning.
* :mod:`repro.cluster.router` -- placement policies (round-robin,
  least-loaded, density-aware, consistent-hash).
* :mod:`repro.cluster.shard` -- in-process and worker-process shard
  handles over one command protocol, and the encoded
  :class:`ShardCheckpoint` a shard snapshot travels as.
* :mod:`repro.cluster.service` -- the one :class:`ClusterService`
  (fixed or elastic shard count, unsupervised or supervised) and the
  merged :class:`ClusterResult`, with its :class:`RecoveryEvent`
  reports.
* :mod:`repro.cluster.elastic` -- the :func:`ElasticCluster` constructor
  shim (an elastic ``ClusterService`` with a least-loaded router).
* :mod:`repro.cluster.coordinator` -- cluster-wide band-aware
  scheduling: the :class:`BandLedger` merged admission view, density-
  aware work-stealing of parked/starved *running* jobs
  (:class:`StealPlanner`).  See ``docs/SCHEDULING.md``.
"""

from repro.cluster.config import (
    SCHEDULER_REGISTRY,
    ShardConfig,
    make_scheduler,
    partition_machines,
)
from repro.cluster.coordinator import (
    BandLedger,
    Coordinator,
    StealMove,
    StealPlanner,
    coordinate,
)
from repro.cluster.elastic import ElasticCluster
from repro.cluster.router import (
    BandAwareRouter,
    ConsistentHashRouter,
    DensityAwareRouter,
    LeastLoadedRouter,
    ROUTERS,
    RoundRobinRouter,
    Router,
    ShardStats,
    make_router,
)
from repro.cluster.service import (
    ClusterResult,
    ClusterService,
    RecoveryEvent,
    ScaleEvent,
)
from repro.cluster.shard import (
    InProcessShard,
    ProcessShard,
    SHARD_ENV_FLAG,
    ShardCheckpoint,
    ShardHandle,
    make_shard,
)

__all__ = [
    "BandAwareRouter",
    "BandLedger",
    "ClusterResult",
    "ClusterService",
    "ConsistentHashRouter",
    "Coordinator",
    "DensityAwareRouter",
    "ElasticCluster",
    "InProcessShard",
    "LeastLoadedRouter",
    "ProcessShard",
    "ROUTERS",
    "RecoveryEvent",
    "RoundRobinRouter",
    "Router",
    "ScaleEvent",
    "SCHEDULER_REGISTRY",
    "SHARD_ENV_FLAG",
    "ShardCheckpoint",
    "ShardConfig",
    "ShardHandle",
    "ShardStats",
    "StealMove",
    "StealPlanner",
    "coordinate",
    "make_router",
    "make_scheduler",
    "make_shard",
    "partition_machines",
]
