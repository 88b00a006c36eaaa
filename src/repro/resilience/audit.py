"""Post-run invariant auditing for chaos and gateway runs.

The chaos harness (:mod:`repro.resilience.chaos`) pins *bit-identity*
for supervised cluster runs, but a degraded or elastic run is allowed
to differ from the fault-free one -- jobs may be shed, retried, or
lost with a shard that spent its restart budget.  What must **never**
vary is the accounting.  :func:`audit_run` replays a finished run's
books and asserts the invariants the resilience stack promises even
while degraded:

``conservation``
    Every submitted job ends in *exactly one* terminal state --
    a completion record (completed or expired in place), a shard-level
    shed, a cluster-level shed, or a gateway front-door drop.  Zero
    terminal states is a lost job; two is a duplicate.
``exactly-once``
    No job completes on more than one shard (a resurrected WAL replay
    or a mis-reconciled steal would show up here).
``wal-before-deliver``
    Every job that reached a scheduler is present in some shard's
    durable WAL -- the append-before-deliver ordering that makes
    recovery replay sound (checked when the run kept durable WALs).
``txn-settled``
    No steal transaction is left pending (``intent``/``transfer``)
    once the run has drained: every in-flight move was resolved to a
    commit, an abort, or a recorded expiry.
``profit-floor``
    The faulted run retained at least ``profit_floor`` of the
    fault-free baseline's profit (checked when a baseline is given).

The auditor is deliberately dumb: it recomputes everything from the
result object (and the WAL files on disk), trusting no counter the run
maintained about itself.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from glob import glob
from os.path import join
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from repro.resilience.wal import WriteAheadLog
from repro.sim.jobs import JobSpec

if TYPE_CHECKING:  # repro.cluster.service imports this package
    from repro.cluster.service import ClusterResult

#: Every invariant :func:`audit_run` checks, in reporting order.
INVARIANTS = (
    "conservation",
    "exactly-once",
    "wal-before-deliver",
    "txn-settled",
    "profit-floor",
)


@dataclass(frozen=True)
class AuditViolation:
    """One broken invariant, tied to the job that broke it (if any)."""

    invariant: str
    job_id: Optional[int]
    detail: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible violation record."""
        return {
            "invariant": self.invariant,
            "job_id": self.job_id,
            "detail": self.detail,
        }


@dataclass
class AuditReport:
    """Everything :func:`audit_run` verified about one finished run."""

    submitted: int
    completed: int
    expired: int
    shed: int
    cluster_shed: int
    dropped: int
    profit: float
    baseline_profit: Optional[float]
    profit_floor: float
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """All invariants held."""
        return not self.violations

    @property
    def profit_ratio(self) -> Optional[float]:
        """Faulted profit over baseline (``None`` without a baseline)."""
        if self.baseline_profit is None or self.baseline_profit <= 0:
            return None
        return self.profit / self.baseline_profit

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible report (the CI audit artifact)."""
        return {
            "ok": self.ok,
            "invariants": list(INVARIANTS),
            "submitted": self.submitted,
            "completed": self.completed,
            "expired": self.expired,
            "shed": self.shed,
            "cluster_shed": self.cluster_shed,
            "dropped": self.dropped,
            "profit": self.profit,
            "baseline_profit": self.baseline_profit,
            "profit_floor": self.profit_floor,
            "profit_ratio": self.profit_ratio,
            "violations": [v.to_dict() for v in self.violations],
        }

    def write(self, path: str) -> None:
        """Write the JSON report to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _logged_job_ids(wal_dir: str) -> Optional[set[int]]:
    """Job ids found across every shard WAL under ``wal_dir``.

    Returns ``None`` when the directory holds no shard WALs (in-memory
    run) -- the WAL invariant is then vacuous, not violated.
    """
    paths = sorted(glob(join(wal_dir, "shard-*.wal")))
    if not paths:
        return None
    logged: set[int] = set()
    for path in paths:
        wal = WriteAheadLog(path)
        try:
            logged.update(spec.job_id for _, spec in wal)
        finally:
            wal.close()
    return logged


def audit_run(
    result: Any,
    submitted: Sequence[Union[JobSpec, int]],
    *,
    baseline_profit: Optional[float] = None,
    profit_floor: float = 0.7,
    wal_dir: Optional[str] = None,
) -> AuditReport:
    """Audit one finished run against the resilience invariants.

    Parameters
    ----------
    result:
        A :class:`~repro.cluster.service.ClusterResult` or a
        :class:`~repro.gateway.gateway.GatewayResult` (recognised by
        its ``cluster`` attribute; its front-door drops then count as
        terminal states).
    submitted:
        Every job offered to the system -- :class:`JobSpec` objects or
        bare job ids.  For a gateway run this is the *generated*
        stream, drops included.
    baseline_profit:
        Fault-free profit to hold the run against (``None`` skips the
        profit-floor check).
    profit_floor:
        Minimum retained fraction of ``baseline_profit``.
    wal_dir:
        Directory of the run's durable shard WALs; when given (and
        populated) every delivered job must appear in one.
    """
    dropped: list[Any] = []
    cluster_result: ClusterResult = result
    if hasattr(result, "cluster"):  # GatewayResult
        dropped = list(result.dropped)
        cluster_result = result.cluster

    submitted_ids = [
        spec.job_id if isinstance(spec, JobSpec) else int(spec)
        for spec in submitted
    ]
    violations: list[AuditViolation] = []

    # -- conservation: exactly one terminal state per submission -------
    terminal: Counter[int] = Counter()
    states: dict[int, list[str]] = {}

    def note(job_id: int, state: str) -> None:
        terminal[job_id] += 1
        states.setdefault(job_id, []).append(state)

    completed = expired = 0
    completions: dict[int, list[int]] = {}
    for index, res in enumerate(cluster_result.shard_results):
        for job_id, rec in res.result.records.items():
            note(job_id, "record")
            if rec.completed:
                completed += 1
                completions.setdefault(job_id, []).append(index)
            elif rec.expired:
                expired += 1
        for shed_rec in res.shed:
            note(shed_rec.job_id, "shed")

    cluster_shed = cluster_result.extra.get("cluster_shed", [])
    for shed_rec in cluster_shed:
        note(shed_rec.job_id, "cluster-shed")
    for drop in dropped:
        note(drop.job_id, "dropped")

    submitted_set = set(submitted_ids)
    for job_id in submitted_ids:
        n = terminal.get(job_id, 0)
        if n == 0:
            violations.append(
                AuditViolation(
                    "conservation", job_id, "no terminal state (job lost)"
                )
            )
        elif n > 1:
            violations.append(
                AuditViolation(
                    "conservation",
                    job_id,
                    f"{n} terminal states: {states[job_id]}",
                )
            )
    for job_id in sorted(set(terminal) - submitted_set):
        violations.append(
            AuditViolation(
                "conservation",
                job_id,
                f"terminal state {states[job_id]} for a job never submitted",
            )
        )

    # -- exactly-once completion across shards -------------------------
    for job_id, shards in sorted(completions.items()):
        if len(shards) > 1:
            violations.append(
                AuditViolation(
                    "exactly-once",
                    job_id,
                    f"completed on shards {shards}",
                )
            )

    # -- WAL-append-before-deliver -------------------------------------
    if wal_dir is not None:
        logged = _logged_job_ids(wal_dir)
        if logged is not None:
            for res in cluster_result.shard_results:
                for job_id in res.result.records:
                    if job_id not in logged:
                        violations.append(
                            AuditViolation(
                                "wal-before-deliver",
                                job_id,
                                "reached a scheduler but is in no WAL",
                            )
                        )

    # -- steal transactions all settled --------------------------------
    txns = cluster_result.extra.get("steal_txns", {})
    unsettled = txns.get("intent", 0) + txns.get("transfer", 0)
    if unsettled:
        violations.append(
            AuditViolation(
                "txn-settled",
                None,
                f"{unsettled} steal transaction(s) still pending at finish",
            )
        )

    # -- profit floor ---------------------------------------------------
    profit = float(cluster_result.total_profit)
    if baseline_profit is not None and baseline_profit > 0:
        if profit < profit_floor * baseline_profit:
            violations.append(
                AuditViolation(
                    "profit-floor",
                    None,
                    f"retained {profit / baseline_profit:.3f} "
                    f"< floor {profit_floor}",
                )
            )

    return AuditReport(
        submitted=len(submitted_ids),
        completed=completed,
        expired=expired,
        shed=sum(len(res.shed) for res in cluster_result.shard_results),
        cluster_shed=len(cluster_shed),
        dropped=len(dropped),
        profit=profit,
        baseline_profit=baseline_profit,
        profit_floor=profit_floor,
        violations=violations,
    )
