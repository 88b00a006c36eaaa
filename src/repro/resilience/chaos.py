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
* :func:`run_chaos` -- drives the same workload through a fault-free
  and a fault-injected supervised :class:`~repro.cluster.service.
  ClusterService` and diffs them into a :class:`ChaosReport`.

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
coordinated/elastic stack, where the claim is the
:mod:`~repro.resilience.audit` invariants plus a gated profit floor
(:func:`run_gateway_chaos`): degraded runs may shed, but the books
must balance.

Run as a module for the CI smoke gate (exit 0 iff every seeded
schedule preserves bit-identity)::

    python -m repro.resilience.chaos --seed 1 --shards 2 --mode process

or, for the end-to-end gateway chaos gate (exit 0 iff the invariant
auditor passes)::

    python -m repro.resilience.chaos --gateway --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.cluster.config import ShardConfig
from repro.errors import ClusterError
from repro.resilience.rpc import RpcPolicy
from repro.resilience.supervisor import SupervisorConfig
from repro.sim.jobs import JobSpec

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

    def maybe_fire(self, cluster, t: int) -> None:
        """Fire every event scheduled at or before ``t`` (once each)."""
        while self._pending and self._pending[0].at <= t:
            event = self._pending.pop(0)
            shard = event.shard % cluster.k
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
    """Fault-free vs. faulted diff for one workload + schedule."""

    schedule: str
    mode: str
    clean_profit: float
    chaos_profit: float
    identical_records: bool
    #: job ids admitted in the clean run but missing from the chaos run
    lost_jobs: list[int]
    #: job ids with a completion record in the chaos run but not clean
    extra_jobs: list[int]
    #: job ids not accounted exactly once (records/shed/cluster-shed)
    unaccounted: list[int]
    recoveries: int
    supervision_events: int
    faults_fired: int

    @property
    def ok(self) -> bool:
        """The resilience claim holds for this run."""
        return (
            self.identical_records
            and self.clean_profit == self.chaos_profit
            and not self.lost_jobs
            and not self.extra_jobs
            and not self.unaccounted
        )

    def to_dict(self) -> dict:
        """JSON-compatible summary (CI artifact)."""
        return {
            "schedule": self.schedule,
            "mode": self.mode,
            "ok": self.ok,
            "clean_profit": self.clean_profit,
            "chaos_profit": self.chaos_profit,
            "identical_records": self.identical_records,
            "lost_jobs": self.lost_jobs,
            "extra_jobs": self.extra_jobs,
            "unaccounted": self.unaccounted,
            "recoveries": self.recoveries,
            "supervision_events": self.supervision_events,
            "faults_fired": self.faults_fired,
        }


def _accounting(result, specs: Sequence[JobSpec]) -> list[int]:
    """Job ids not accounted exactly once across completion records,
    shard shed records, and cluster-level sheds."""
    submitted = [spec.job_id for spec in specs]
    recorded = set(result.records)
    shed = [rec.job_id for rec in result.shed]
    shed += [rec.job_id for rec in result.extra.get("cluster_shed", [])]
    bad = []
    seen_shed = set()
    dup_shed = set()
    for job_id in shed:
        if job_id in seen_shed:
            dup_shed.add(job_id)
        seen_shed.add(job_id)
    for job_id in submitted:
        times = (job_id in recorded) + shed.count(job_id)
        if times != 1 or job_id in dup_shed:
            bad.append(job_id)
    return sorted(bad)


def _build(
    specs: Sequence[JobSpec],
    *,
    m: int,
    k: int,
    mode: str,
    config: Optional[ShardConfig],
    injector: Optional[ChaosInjector],
    workdir: Optional[str],
    heartbeat_timeout: float,
    call_timeout: float,
) -> Any:
    # repro.cluster.service imports this package's building blocks
    from repro.cluster.service import ClusterService

    wal_dir = f"{workdir}/wal" if workdir else None
    checkpoint_dir = f"{workdir}/ckpt" if workdir else None
    return ClusterService(
        m,
        k,
        config=config,
        mode=mode,
        fault_injector=injector,
        supervisor=SupervisorConfig(
            heartbeat_timeout=heartbeat_timeout,
            heartbeat_every=1,
            max_restarts=32,
            backoff_base=0.001,
            backoff_max=0.01,
        ),
        rpc=RpcPolicy(call_timeout=call_timeout, retries=0),
        wal_dir=wal_dir,
        checkpoint_dir=checkpoint_dir,
    )


def run_chaos(
    specs: Sequence[JobSpec],
    *,
    m: int,
    k: int,
    schedule: ChaosSchedule,
    mode: str = "inprocess",
    config: Optional[ShardConfig] = None,
    workdir: Optional[str] = None,
    heartbeat_timeout: float = 0.25,
    call_timeout: float = 1.0,
    hang_seconds: float = 2.0,
) -> ChaosReport:
    """Drive ``specs`` fault-free and under ``schedule``; diff the runs.

    ``workdir`` (optional) roots the chaos run's durable WAL and
    checkpoint store (the fault-free run always stays in memory --
    durability must not change results either).
    """
    if config is None:
        config = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})
    ordered = sorted(specs, key=lambda sp: (sp.arrival, sp.job_id))

    clean = _build(
        ordered, m=m, k=k, mode=mode, config=config, injector=None,
        workdir=None, heartbeat_timeout=heartbeat_timeout,
        call_timeout=call_timeout,
    ).run_stream(ordered)

    injector = ChaosInjector(schedule, hang_seconds=hang_seconds)
    chaos = _build(
        ordered, m=m, k=k, mode=mode, config=config, injector=injector,
        workdir=workdir, heartbeat_timeout=heartbeat_timeout,
        call_timeout=call_timeout,
    ).run_stream(ordered)

    clean_records, chaos_records = clean.records, chaos.records
    lost = sorted(set(clean_records) - set(chaos_records))
    extra = sorted(set(chaos_records) - set(clean_records))
    identical = not lost and not extra and all(
        clean_records[job_id] == chaos_records[job_id]
        for job_id in clean_records
    )
    return ChaosReport(
        schedule=schedule.spec(),
        mode=mode,
        clean_profit=clean.total_profit,
        chaos_profit=chaos.total_profit,
        identical_records=identical,
        lost_jobs=lost,
        extra_jobs=extra,
        unaccounted=_accounting(chaos, ordered),
        recoveries=len(chaos.recoveries),
        supervision_events=len(chaos.extra.get("supervision_events", [])),
        faults_fired=len(injector.fired),
    )


@dataclass
class GatewayChaosReport:
    """Invariant-audited gateway chaos run vs. its fault-free twin.

    Unlike :class:`ChaosReport`, bit-identity is *not* the claim here:
    an elastic, coordinated, autoscaled gateway under faults may shed,
    retry and rebalance differently from the fault-free run.  The claim
    is the :mod:`~repro.resilience.audit` invariants -- jobs conserved,
    exactly-once completion, WAL-before-deliver, steal transactions
    settled -- plus a profit floor relative to the fault-free run.
    """

    schedule: str
    seed: int
    clean_profit: float
    chaos_profit: float
    #: full invariant audit of the chaos run (carries the violations)
    audit: "AuditReport"
    faults_fired: int
    recoveries: int
    supervision_events: int
    degraded_shards: int
    retried: int
    clean_fingerprint: str
    chaos_fingerprint: str

    @property
    def ok(self) -> bool:
        """Every audited invariant held (profit floor included)."""
        return self.audit.ok

    def to_dict(self) -> dict:
        """JSON-compatible report (the CI audit artifact)."""
        return {
            "schedule": self.schedule,
            "seed": self.seed,
            "ok": self.ok,
            "clean_profit": self.clean_profit,
            "chaos_profit": self.chaos_profit,
            "profit_ratio": self.audit.profit_ratio,
            "faults_fired": self.faults_fired,
            "recoveries": self.recoveries,
            "supervision_events": self.supervision_events,
            "degraded_shards": self.degraded_shards,
            "retried": self.retried,
            "clean_fingerprint": self.clean_fingerprint,
            "chaos_fingerprint": self.chaos_fingerprint,
            "audit": self.audit.to_dict(),
        }


def run_gateway_chaos(
    *,
    seed: int,
    schedule: Optional[ChaosSchedule] = None,
    n_jobs: int = 160,
    m: int = 8,
    k_max: int = 4,
    k_initial: Optional[int] = None,
    load: float = 1.5,
    n_events: int = 3,
    kinds: Sequence[str] = FAULT_KINDS,
    workdir: Optional[str] = None,
    mode: str = "inprocess",
    autoscale: bool = True,
    coordinated: bool = True,
    retry: bool = True,
    steps_per_tick: int = 20,
    buffer_capacity: int = 512,
    profit_floor: float = 0.7,
    max_restarts: int = 32,
    on_exhausted: str = "degrade",
    heartbeat_timeout: float = 0.25,
    call_timeout: float = 1.0,
) -> GatewayChaosReport:
    """End-to-end gateway chaos: coordinated elastic serving under
    seeded faults, audited for the resilience invariants.

    Runs the same seeded open-loop traffic twice through a virtual-
    clock :class:`~repro.gateway.gateway.Gateway` over a coordinated
    supervised elastic :class:`~repro.cluster.service.ClusterService` --
    once fault-free, once under ``schedule`` -- then audits the chaos
    run with :func:`~repro.resilience.audit.audit_run` against the
    fault-free profit.  Both runs are deterministic: repeating the
    call reproduces both fingerprints bit for bit.
    """
    from repro.cluster.coordinator import coordinate
    from repro.cluster.service import ClusterService
    from repro.gateway.autoscale import Autoscaler
    from repro.gateway.clock import VirtualClock
    from repro.gateway.gateway import Gateway
    from repro.gateway.ingest import RetryQueue
    from repro.gateway.load import LoadConfig, LoadGenerator
    from repro.resilience.audit import audit_run

    load_config = LoadConfig(
        n_jobs=n_jobs, m=m, load=load, epsilon=1.0, seed=seed
    )
    specs = list(LoadGenerator(load_config))
    horizon = max((spec.arrival for spec in specs), default=0) or 1
    if schedule is None:
        schedule = ChaosSchedule.generate(
            seed, k=k_max, horizon=horizon, n_events=n_events, kinds=kinds
        )

    def one_run(injector, run_dir):
        cluster = ClusterService(
            m,
            k_max,
            k_initial=k_max if k_initial is None else k_initial,
            config=ShardConfig(
                m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0}
            ),
            router="band-aware" if coordinated else "least-loaded",
            mode=mode,
            fault_injector=injector,
            supervisor=SupervisorConfig(
                heartbeat_timeout=heartbeat_timeout,
                heartbeat_every=1,
                max_restarts=max_restarts,
                backoff_base=0.001,
                backoff_max=0.01,
                on_exhausted=on_exhausted,
            ),
            rpc=RpcPolicy(call_timeout=call_timeout, retries=0),
            wal_dir=f"{run_dir}/wal" if run_dir else None,
            checkpoint_dir=f"{run_dir}/ckpt" if run_dir else None,
        )
        if coordinated:
            coordinate(cluster)
        gateway = Gateway(
            cluster,
            LoadGenerator(load_config),
            clock=VirtualClock(),
            steps_per_tick=steps_per_tick,
            buffer_capacity=buffer_capacity,
            autoscaler=(
                Autoscaler(k_min=1, k_max=k_max) if autoscale else None
            ),
            retry=RetryQueue(seed=seed) if retry else None,
        )
        return gateway.run()

    clean = one_run(None, None)
    injector = ChaosInjector(schedule)
    chaos = one_run(injector, workdir)

    audit = audit_run(
        chaos,
        specs,
        baseline_profit=clean.total_profit,
        profit_floor=profit_floor,
        wal_dir=f"{workdir}/wal" if workdir else None,
    )
    extra = chaos.cluster.extra
    return GatewayChaosReport(
        schedule=schedule.spec(),
        seed=seed,
        clean_profit=clean.total_profit,
        chaos_profit=chaos.total_profit,
        audit=audit,
        faults_fired=len(injector.fired),
        recoveries=len(chaos.cluster.recoveries),
        supervision_events=len(extra.get("supervision_events", [])),
        degraded_shards=len(extra.get("degraded_shards", [])),
        retried=chaos.retried,
        clean_fingerprint=clean.fingerprint(),
        chaos_fingerprint=chaos.fingerprint(),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CI smoke entry point: one seeded schedule, exit 0 iff ``ok``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Chaos-inject a supervised cluster and verify "
        "bit-identity with the fault-free run.",
    )
    parser.add_argument("--seed", type=int, default=1, help="schedule seed")
    parser.add_argument("--n-jobs", type=int, default=120)
    parser.add_argument("--m", type=int, default=8, help="total machines")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--mode", choices=("inprocess", "process"), default="inprocess"
    )
    parser.add_argument(
        "--kinds",
        default=",".join(FAULT_KINDS),
        help="comma-separated fault kinds to draw from",
    )
    parser.add_argument("--events", type=int, default=3)
    parser.add_argument(
        "--schedule", default=None, help="explicit kind:shard:at,... spec"
    )
    parser.add_argument("--out", default=None, help="write the report JSON here")
    parser.add_argument(
        "--gateway", action="store_true",
        help="run the end-to-end gateway chaos gate instead: virtual "
        "clock, coordinated supervised elastic cluster, autoscaling, "
        "retrying ingest; exit 0 iff the invariant audit passes",
    )
    parser.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="run this scenario spec (.toml/.json) instead of the flags",
    )
    parser.add_argument(
        "--dump-scenario", action="store_true",
        help="print the chaos-injected run as a canonical scenario TOML "
        "and exit (the clean reference run is this CLI's own job)",
    )
    args = parser.parse_args(argv)
    if args.gateway:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        with tempfile.TemporaryDirectory(prefix="repro-chaos-gw-") as workdir:
            report = run_gateway_chaos(
                seed=args.seed,
                schedule=(
                    ChaosSchedule.parse(args.schedule)
                    if args.schedule
                    else None
                ),
                n_jobs=args.n_jobs,
                m=args.m,
                k_max=max(2, args.shards),
                n_events=args.events,
                kinds=kinds,
                workdir=workdir,
                mode=args.mode,
            )
        payload = report.to_dict()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0 if report.ok else 1
    if args.scenario:
        from repro.scenarios.cli import main as scenario_main

        return scenario_main(["run", args.scenario])
    if args.dump_scenario:
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec.from_dict(
            {
                "scenario": {
                    "name": "chaos-smoke",
                    "mode": "cluster",
                    "seed": args.seed,
                },
                "workload": {
                    "n_jobs": args.n_jobs,
                    "m": args.m,
                    "load": 2.0,
                    "epsilon": 1.0,
                },
                "cluster": {
                    "shards": args.shards,
                    "mode": args.mode,
                    "supervise": True,
                },
                "faults": {
                    "kind": "chaos",
                    "chaos": args.schedule or f"seed:{args.seed}",
                },
            }
        )
        sys.stdout.write(spec.to_toml())
        return 0

    from repro.workloads import WorkloadConfig, generate_workload

    specs = generate_workload(
        WorkloadConfig(
            n_jobs=args.n_jobs, m=args.m, load=2.0, epsilon=1.0, seed=args.seed
        )
    )
    horizon = max(spec.arrival for spec in specs) or 1
    if args.schedule:
        schedule = ChaosSchedule.parse(args.schedule)
    else:
        schedule = ChaosSchedule.generate(
            args.seed,
            k=args.shards,
            horizon=horizon,
            n_events=args.events,
            kinds=[k.strip() for k in args.kinds.split(",") if k.strip()],
        )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        report = run_chaos(
            specs,
            m=args.m,
            k=args.shards,
            schedule=schedule,
            mode=args.mode,
            workdir=workdir,
        )
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
