"""Resilient serving: supervision, breakers, durable logs, chaos.

This package hardens the sharded cluster (:mod:`repro.cluster`) for
hostile conditions while keeping the repo's core guarantee intact --
determinism.  Every mechanism here is engineered so that a faulted run
*converges back to the fault-free run bit-for-bit*: submissions are
logged before delivery, recovery replays under stable idempotency
keys, and the chaos harness (:mod:`repro.resilience.chaos`) pins the
equivalence for every core fault class.  Where bit-identity is too
strong a claim -- an elastic, autoscaled gateway under coordination
faults -- the post-run auditor (:mod:`repro.resilience.audit`)
recomputes the books and asserts the invariants that must survive any
degradation: jobs conserved, exactly-once completion, WAL-before-
deliver, steal transactions settled, profit within a gated floor.

Modules
-------
:mod:`~repro.resilience.wal`
    Durable write-ahead submission log (CRC32 frames, fsync batching,
    torn-tail truncation).
:mod:`~repro.resilience.checkpoints`
    Digest-verified generational checkpoint store with corruption
    fallback.
:mod:`~repro.resilience.rpc`
    Deadline/retry policy for shard command pipes (at-most-once sync
    RPC, idempotent submits).
:mod:`~repro.resilience.supervisor`
    Heartbeat liveness (crash *and* hang detection) with bounded,
    jittered auto-restart.
:mod:`~repro.resilience.breaker`
    Per-shard circuit breakers and the routing decorator that sheds
    traffic around open circuits.
:mod:`~repro.resilience.transactions`
    Transactional cross-shard steals: intent/transfer/commit journal
    with torn-tail recovery and exactly-one-placement replay.
:mod:`~repro.resilience.cluster`
    :func:`ResilientClusterService` -- constructor shim for a
    :class:`~repro.cluster.service.ClusterService` with the whole stack
    switched on (``supervisor=``); the cluster itself wires the
    building blocks above together and hosts the chaos-injection
    surface.
:mod:`~repro.resilience.audit`
    Post-run invariant auditing for chaos and gateway runs.
:mod:`~repro.resilience.chaos`
    Deterministic fault schedules and the chaos harness: a faulted
    scenario against its fault-free twin, identity-checked for a
    cluster and audited for a gateway.
"""

# repro.cluster.service builds on the modules below: load the cluster
# package first, so either package can be imported first
import repro.cluster  # noqa: F401
from repro.resilience.audit import (
    INVARIANTS,
    AuditReport,
    AuditViolation,
    audit_run,
)
from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerRouter,
)
from repro.resilience.chaos import (
    COORDINATION_FAULT_KINDS,
    CORE_FAULT_KINDS,
    FAULT_KINDS,
    ChaosEvent,
    ChaosInjector,
    ChaosReport,
    ChaosSchedule,
    run_chaos,
)
from repro.resilience.checkpoints import CheckpointStore
from repro.resilience.cluster import ResilientClusterService
from repro.resilience.rpc import DEFAULT_RPC_POLICY, RpcPolicy
from repro.resilience.supervisor import (
    ShardSupervisor,
    SupervisionEvent,
    SupervisorConfig,
)
from repro.resilience.transactions import (
    TXN_STATES,
    StealJournal,
    StealTxn,
    reconcile_shard,
    resolve_pending,
)
from repro.resilience.wal import WAL_MAGIC, WriteAheadLog, open_wal

__all__ = [
    "INVARIANTS",
    "AuditReport",
    "AuditViolation",
    "audit_run",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CircuitBreakerRouter",
    "COORDINATION_FAULT_KINDS",
    "CORE_FAULT_KINDS",
    "FAULT_KINDS",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosReport",
    "ChaosSchedule",
    "run_chaos",
    "CheckpointStore",
    "ResilientClusterService",
    "DEFAULT_RPC_POLICY",
    "RpcPolicy",
    "ShardSupervisor",
    "SupervisionEvent",
    "SupervisorConfig",
    "TXN_STATES",
    "StealJournal",
    "StealTxn",
    "reconcile_shard",
    "resolve_pending",
    "WAL_MAGIC",
    "WriteAheadLog",
    "open_wal",
]
