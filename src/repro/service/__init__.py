"""Online scheduling service layer over the simulation engine.

Turns the batch simulator into a long-running system: incremental
stepping (:class:`SchedulingService`), bounded-queue admission with shed
policies, JSON checkpoint/restore, and telemetry with JSONL export.
From the shell, ``repro-scenario run examples/scenarios/service.toml``
runs it.
"""

from repro.service.queue import (
    IngestQueue,
    QueuedJob,
    RejectLowestDensity,
    RejectNewest,
    SHED_POLICIES,
    ShedPolicy,
    make_shed_policy,
    sns_density,
)
from repro.service.replay import SubmissionLog, checkpoint_roundtrip, drive, replay
from repro.service.service import (
    Admission,
    SchedulingService,
    ServiceResult,
    ShedRecord,
)
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    load_snapshot,
    save_snapshot,
    service_from_dict,
    service_to_dict,
)
from repro.service.telemetry import Counter, Gauge, MetricsRegistry

__all__ = [
    "Admission",
    "Counter",
    "Gauge",
    "IngestQueue",
    "MetricsRegistry",
    "QueuedJob",
    "RejectLowestDensity",
    "RejectNewest",
    "SHED_POLICIES",
    "SNAPSHOT_VERSION",
    "SchedulingService",
    "ServiceResult",
    "ShedPolicy",
    "ShedRecord",
    "SubmissionLog",
    "checkpoint_roundtrip",
    "drive",
    "load_snapshot",
    "make_shed_policy",
    "replay",
    "save_snapshot",
    "service_from_dict",
    "service_to_dict",
    "sns_density",
]
