"""Deterministic chaos injection for the supervised cluster.

The resilience stack's correctness claim is sharp: under any schedule
of injected faults, a supervised cluster's **completed records and
profit are bit-identical to the fault-free run**, with zero admitted
jobs lost or double-counted.  This module makes that claim executable:

* :class:`ChaosSchedule` -- a deterministic fault schedule, either
  generated from a seed (:meth:`ChaosSchedule.generate`) or parsed from
  a compact spec string (:meth:`ChaosSchedule.parse`, e.g.
  ``"crash:0:200,hang:1:450"``);
* :class:`ChaosInjector` -- the cluster's one fault path: plugged into
  ``ClusterService(fault_injector=...)`` (supervised clusters only), it
  fires each scheduled fault through the cluster's ``inject_*`` surface
  at its simulated time;
* :func:`run_chaos` -- builds a faulted
  :class:`~repro.scenarios.spec.ScenarioSpec` and its fault-free twin
  through :class:`~repro.scenarios.builder.ScenarioBuilder`, audits
  both and diffs them into a :class:`ChaosReport`.

Fault kinds (:data:`FAULT_KINDS`):

========================  ==============================================
kind                      what it does
========================  ==============================================
``crash``                 kill the shard outright (state lost)
``hang``                  shard alive but unresponsive (liveness bug)
``slow-rpc``              added latency, no state change
``pipe-drop``             command channel severed mid-run
``corrupt-checkpoint``    newest checkpoint corrupted, then a crash, so
                          recovery must fall back a generation (or to
                          an empty restore plus full-log replay)
``steal-interrupt``       crash the steal target *between* the extract
                          and inject phases of the next steal tick --
                          jobs exist only in transit, and the steal
                          journal is the sole source of truth
``scale-during-crash``    crash a shard and immediately drive an
                          elastic scale step while it is down (plain
                          crash on a non-elastic cluster)
``ledger-partition``      partition the coordinator's band ledger from
                          shard state: anchor-only degraded routing
                          until the window drains
``tick-stall``            stall the gateway loop for a tick while
                          arrivals keep buffering (no-op offline)
========================  ==============================================

The first five (:data:`CORE_FAULT_KINDS`) hold the identity claim --
bit-identity with the fault-free run -- on any supervised cluster,
under every router: the cluster's supervised stats fence recovers a
crashed shard before a routing decision reads it.
The last four (:data:`COORDINATION_FAULT_KINDS`) target the
coordinated/elastic stack, where the claim for a gateway scenario is
the :mod:`~repro.resilience.audit` invariants plus a gated profit
floor: degraded runs may shed, but the books must balance.

The CI gate is ``repro-scenario chaos SPEC`` (exit 0 iff the claim
holds)::

    repro-scenario chaos examples/scenarios/chaos_cluster.toml \\
        --set cluster.mode=process
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ClusterError, ScenarioError
from repro.resilience.audit import AuditReport, audit_run

if TYPE_CHECKING:  # repro.scenarios imports this module lazily
    from repro.scenarios.spec import ScenarioSpec

#: Fault classes every supervised cluster recovers from bit-identically.
CORE_FAULT_KINDS = (
    "crash", "hang", "slow-rpc", "pipe-drop", "corrupt-checkpoint",
)
#: Fault classes targeting the coordinated / elastic / gateway stack.
COORDINATION_FAULT_KINDS = (
    "steal-interrupt", "scale-during-crash", "ledger-partition", "tick-stall",
)
#: Every fault class the harness can inject.
FAULT_KINDS = CORE_FAULT_KINDS + COORDINATION_FAULT_KINDS


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: ``kind`` hits ``shard`` at simulated ``at``."""

    kind: str
    shard: int
    at: int

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ClusterError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.shard < 0 or self.at < 0:
            raise ClusterError(
                f"bad chaos event {self.kind}:{self.shard}:{self.at} "
                "(shard and time must be >= 0)"
            )


@dataclass
class ChaosSchedule:
    """An ordered, deterministic list of :class:`ChaosEvent`."""

    events: list[ChaosEvent] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        k: int,
        horizon: int,
        n_events: int = 3,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> "ChaosSchedule":
        """Seeded random schedule: ``n_events`` faults over ``kinds``,
        uniform over shards and the middle of the horizon (early/late
        edges excluded so every fault lands mid-traffic)."""
        rng = random.Random(seed)
        lo, hi = max(1, horizon // 10), max(2, (9 * horizon) // 10)
        events = [
            ChaosEvent(
                kind=rng.choice(list(kinds)),
                shard=rng.randrange(k),
                at=rng.randrange(lo, hi),
            )
            for _ in range(n_events)
        ]
        return cls(sorted(events, key=lambda e: (e.at, e.shard, e.kind)))

    @classmethod
    def parse(cls, text: str) -> "ChaosSchedule":
        """Parse ``"kind:shard:at[,kind:shard:at...]"``."""
        events = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) != 3:
                raise ClusterError(
                    f"bad chaos event {part!r} (want kind:shard:at)"
                )
            try:
                shard, at = int(pieces[1]), int(pieces[2])
            except ValueError:
                raise ClusterError(
                    f"bad chaos event {part!r} (shard and at must be "
                    "integers)"
                ) from None
            events.append(ChaosEvent(kind=pieces[0], shard=shard, at=at))
        return cls(sorted(events, key=lambda e: (e.at, e.shard, e.kind)))

    def spec(self) -> str:
        """The compact string :meth:`parse` round-trips."""
        return ",".join(f"{e.kind}:{e.shard}:{e.at}" for e in self.events)


class ChaosInjector:
    """Fires a :class:`ChaosSchedule` through a supervised cluster.

    Pass it as ``ClusterService(fault_injector=...)``: the cluster's
    decision-point hooks call :meth:`maybe_fire` with the cluster clock.
    """

    def __init__(
        self, schedule: ChaosSchedule, *, hang_seconds: float = 2.0
    ) -> None:
        self.schedule = schedule
        self.hang_seconds = hang_seconds
        self.fired: list[ChaosEvent] = []
        self._pending = list(schedule.events)
        self._checked = False

    def maybe_fire(self, cluster, t: int) -> None:
        """Fire every event scheduled at or before ``t`` (once each).

        The first call, at the cluster's first decision point and so
        before any job is served, rejects a schedule naming a shard
        the cluster does not have.
        """
        if not self._checked:
            self._checked = True
            for event in self._pending:
                if event.shard >= cluster.k:
                    raise ClusterError(
                        f"chaos event {event.kind}:{event.shard}:{event.at} "
                        f"targets shard {event.shard}, but the cluster has "
                        f"k={cluster.k} shard(s)"
                    )
        while self._pending and self._pending[0].at <= t:
            event = self._pending.pop(0)
            shard = event.shard
            if event.kind == "crash":
                cluster.inject_crash(shard)
            elif event.kind == "hang":
                cluster.inject_hang(shard, self.hang_seconds)
            elif event.kind == "slow-rpc":
                cluster.inject_slow(shard)
            elif event.kind == "pipe-drop":
                cluster.inject_pipe_drop(shard)
            elif event.kind == "corrupt-checkpoint":
                cluster.inject_corrupt_checkpoint(shard)
            elif event.kind == "steal-interrupt":
                cluster.inject_steal_interrupt(shard)
            elif event.kind == "scale-during-crash":
                cluster.inject_scale_during_crash(shard)
            elif event.kind == "ledger-partition":
                cluster.inject_ledger_partition()
            elif event.kind == "tick-stall":
                cluster.inject_tick_stall()
            self.fired.append(event)


@dataclass
class ChaosReport:
    """A faulted scenario run judged against its fault-free twin.

    A cluster scenario must reproduce the twin's completion records and
    profit bit for bit.  A gateway scenario -- elastic, coordinated,
    autoscaled -- may shed and rebalance differently under faults, so
    its claim is the :mod:`~repro.resilience.audit` invariants plus the
    profit floor.  Both runs of either mode must pass their audit.
    """

    scenario: str
    #: scenario mode: "cluster" (identity claim) or "gateway"
    mode: str
    #: the schedule the injector ran, resolved to explicit events
    schedule: str
    clean_profit: float
    chaos_profit: float
    #: job ids whose completion record differs between the two runs
    diverged_jobs: list[int]
    #: invariant audit of the fault-free twin
    clean_audit: AuditReport
    #: invariant audit of the faulted run, profit floor included
    audit: AuditReport
    faults_fired: int
    recoveries: int
    supervision_events: int
    degraded_shards: int
    clean_fingerprint: str
    chaos_fingerprint: str

    @property
    def identical(self) -> bool:
        """Same completion records and profit as the fault-free twin."""
        return not self.diverged_jobs and self.clean_profit == self.chaos_profit

    @property
    def ok(self) -> bool:
        """The resilience claim holds for this scenario."""
        audited = self.clean_audit.ok and self.audit.ok
        return audited and (self.mode == "gateway" or self.identical)

    def to_dict(self) -> dict:
        """JSON-compatible report (the CI artifact)."""
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "schedule": self.schedule,
            "ok": self.ok,
            "identical": self.identical,
            "clean_profit": self.clean_profit,
            "chaos_profit": self.chaos_profit,
            "profit_ratio": self.audit.profit_ratio,
            "diverged_jobs": self.diverged_jobs,
            "faults_fired": self.faults_fired,
            "recoveries": self.recoveries,
            "supervision_events": self.supervision_events,
            "degraded_shards": self.degraded_shards,
            "clean_fingerprint": self.clean_fingerprint,
            "chaos_fingerprint": self.chaos_fingerprint,
            "clean_audit": self.clean_audit.to_dict(),
            "audit": self.audit.to_dict(),
        }


def run_chaos(
    spec: "ScenarioSpec", *, workdir: Optional[str] = None
) -> ChaosReport:
    """Run ``spec`` and its fault-free twin; judge the faulted run.

    The twin is ``spec`` with ``faults.kind = "none"``, still
    supervised and always in memory (durability must not change
    results either).  Both runs go through
    :class:`~repro.scenarios.builder.ScenarioBuilder`.  ``workdir``,
    when given, roots the faulted run's durable WAL and checkpoints
    (``cluster.wal_dir`` / ``cluster.checkpoint_dir``).

    Raises :class:`~repro.errors.ScenarioError` for a spec without
    faults or outside cluster/gateway mode.
    """
    from repro.scenarios.builder import ScenarioBuilder

    if spec.mode not in ("cluster", "gateway"):
        raise ScenarioError(
            f"chaos needs a cluster or gateway scenario, got mode "
            f"{spec.mode!r}",
            location="scenario.mode",
        )
    if spec.faults.kind == "none":
        raise ScenarioError(
            "chaos needs faults: set faults.kind (e.g. 'chaos' with "
            "faults.chaos = 'seed:1')",
            location="faults.kind",
        )
    twin = spec.with_overrides(
        {
            "faults.kind": "none",
            "cluster.supervise": True,
            "cluster.wal_dir": "",
            "cluster.checkpoint_dir": "",
        }
    )
    if workdir is not None:
        spec = spec.with_overrides(
            {
                "cluster.wal_dir": f"{workdir}/wal",
                "cluster.checkpoint_dir": f"{workdir}/ckpt",
            }
        )
    clean_builder = ScenarioBuilder(twin)
    clean = clean_builder.execute()
    builder = ScenarioBuilder(spec)
    chaos = builder.execute()

    cluster = builder.runnable
    if spec.mode == "gateway":
        cluster = cluster.cluster
    injector = cluster.fault_injector
    chaos_cluster = getattr(chaos.raw, "cluster", chaos.raw)
    extra = chaos_cluster.extra
    a, b = clean.records, chaos.records
    diverged = sorted(j for j in a.keys() | b.keys() if a.get(j) != b.get(j))
    return ChaosReport(
        scenario=spec.name,
        mode=spec.mode,
        schedule=injector.schedule.spec(),
        clean_profit=clean.total_profit,
        chaos_profit=chaos.total_profit,
        diverged_jobs=diverged,
        clean_audit=audit_run(clean.raw, clean_builder.specs),
        audit=audit_run(
            chaos.raw,
            builder.specs,
            baseline_profit=clean.total_profit,
            wal_dir=spec.cluster.wal_dir or None,
        ),
        faults_fired=len(injector.fired),
        recoveries=len(chaos_cluster.recoveries),
        supervision_events=len(extra.get("supervision_events", [])),
        degraded_shards=len(extra.get("degraded_shards", [])),
        clean_fingerprint=clean.fingerprint(),
        chaos_fingerprint=chaos.fingerprint(),
    )


if __name__ == "__main__":  # pragma: no cover - guards stale CI lines
    import sys

    sys.stderr.write(
        "python -m repro.resilience.chaos was removed; run a chaos spec "
        "with: repro-scenario chaos SPEC [--set section.key=value ...] "
        "[-o report.json]\n"
    )
    sys.exit(2)
