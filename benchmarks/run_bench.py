#!/usr/bin/env python
"""Benchmark-regression runner: emits a ``BENCH_engine.json`` snapshot.

Measures the four quantities future PRs must defend (see
docs/PERFORMANCE.md):

* ``engine_scale`` -- the event engine against the frozen legacy
  stepper on growing SNS workloads: wall-clock, speedups, jobs/sec
  and decisions/sec, with a bit-identity check of
  records/counters/profit on every config.
* ``engine_wave`` -- peak job throughput: a spread-arrival wave of
  unit-work jobs on the event engine, bit-identity checked against the
  legacy stepper.  Full mode gates it at >= 100k jobs/sec.
* ``sweep`` -- serial vs multi-worker wall-clock of a small E3-style
  grid through :func:`repro.analysis.sweep.run_sweep`, with
  cell-for-cell equality.  The worker count comes from
  :func:`repro.analysis.sweep.adaptive_workers`: on a 1-CPU host the
  section runs serial-only and *claims no parallel speedup* (the
  ``parallel_speedup`` field is ``null`` and never gates).
* ``service`` -- streaming pass-through overhead of
  :class:`repro.service.SchedulingService` relative to batch
  ``Simulator.run`` on the same workload.
* ``scenario_overhead`` -- spec-driven construction through
  :mod:`repro.scenarios` (canonical spec -> registry -> builder) vs
  hand-wiring the identical batch run on the engine acceptance config,
  gated at <= 2% wall-clock overhead and fingerprint bit-identity
  under ``--check``.

A second snapshot, ``BENCH_cluster.json``, covers the sharded cluster
(:mod:`repro.cluster`): process-mode throughput at shard counts
1/2/4/8 (the k=4 point must clear 1.5x over k=1 -- on a single-CPU
host the speedup comes from subproblem scaling, since per-decision
scheduler cost grows with the active set each shard holds), profit
with and without the coordinator, and the wall-clock cost of a
supervised crash-and-recover cycle with its fault-free-equality check.

A third snapshot, ``BENCH_resilience.json``, covers the supervised
cluster (:mod:`repro.resilience`): hang detection and restart latency
under heartbeat supervision, bit-identity of a seeded chaos schedule
against the fault-free run, the fraction of profit retained when
1 of 4 shards degrades out early (gated at >= 70% under ``--check``),
and the coordinated gateway chaos gates: a seeded coordination-fault
schedule must pass the invariant audit at >= 70% of fault-free profit,
and the fault-free supervised gateway must fingerprint identically to
the plain elastic one.

A fourth snapshot, ``BENCH_observability.json``, prices the tracing
layer (:mod:`repro.observability`): engine wall-clock with no recorder
at all, with the disabled :data:`~repro.observability.NULL_RECORDER`
(the always-installed fast path), and with a live
:class:`~repro.observability.TraceRecorder` plus profiler.  Under
``--check`` the best-of-repeats times must satisfy
``noop <= 1.02 x baseline + 5 ms`` and ``traced <= 1.10 x baseline + 5 ms``,
and all three runs must stay bit-identical.  At ``--quick`` size (a
~25 ms run) the 5 ms slack is a fifth of the baseline, so the traced
gate admits about +30%; docs/PERFORMANCE.md records the measured
overhead.

A fifth snapshot, ``BENCH_gateway.json``, covers the real-time gateway
(:mod:`repro.gateway`) under a :class:`~repro.gateway.VirtualClock`:
open-loop Poisson load at 0.8x/1.0x/1.2x saturation against a fixed
4-shard cluster (gated at or below saturation on p99 admission latency
<= 50 steps and near-zero shed), autoscaled profit on a flash-crowd
trace vs every fixed shard count (gated at >= 95% of the best fixed k
in full mode), and fingerprint bit-identity of two repeated seeded
runs across an autoscaler up/down cycle.

Timing methodology: each timed subject runs ``repeats`` times with the
competing subjects interleaved round-robin (so machine-load drift hits
all subjects equally) and garbage collection frozen around each run;
the reported time is the best of the repeats.  Run from the repository
root::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [-o OUT.json]

``--quick`` shrinks every section to smoke-test size (seconds, for CI);
the default sizes take a few minutes.  ``--check`` additionally fails
(exit 1) if any bit-identity or equality assertion is violated, which
is how CI uses it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.sweep import adaptive_workers, run_sweep  # noqa: E402
from repro.baselines.federated import FederatedScheduler  # noqa: E402
from repro.dag.graph import DAGStructure  # noqa: E402
from repro.cluster import (  # noqa: E402
    ClusterService,
    ShardConfig,
    coordinate,
)
from repro.core import SNSScheduler  # noqa: E402
from repro.experiments.e03_thm2 import _thm2_value  # noqa: E402
from repro.service import SchedulingService  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.sim._legacy_engine import LegacySimulator  # noqa: E402
from repro.sim.jobs import JobSpec  # noqa: E402
from repro.workloads import WorkloadConfig, generate_workload  # noqa: E402

#: the shipped scenario specs the chaos gates start from
SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

#: (n_jobs, m) engine-scale configs; the last is the acceptance config.
SCALE_CONFIGS = [(50, 8), (100, 16), (200, 32), (400, 64), (800, 64)]
QUICK_SCALE_CONFIGS = [(50, 8), (100, 16)]


def _timed(fn, repeats: int) -> list[float]:
    """Wall-clock each call with GC frozen; returns all samples."""
    samples = []
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return samples


def _interleaved(subjects: dict[str, object], repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` per subject, rounds interleaved so load
    drift during the measurement hits every subject equally."""
    samples: dict[str, list[float]] = {name: [] for name in subjects}
    for _ in range(repeats):
        for name, fn in subjects.items():
            samples[name].extend(_timed(fn, 1))
    return {name: min(vals) for name, vals in samples.items()}


def _record_tuple(rec) -> tuple:
    return (
        rec.job_id,
        rec.arrival,
        rec.deadline,
        rec.completion_time,
        rec.profit,
        rec.processor_steps,
        rec.expired,
        rec.abandoned,
        rec.assigned_deadline,
    )


def _identical(res_a, res_b) -> bool:
    """Bit-identity of the observable outputs of two runs."""
    return (
        [_record_tuple(r) for r in res_a.records.values()]
        == [_record_tuple(r) for r in res_b.records.values()]
        and asdict(res_a.counters) == asdict(res_b.counters)
        and res_a.end_time == res_b.end_time
        and res_a.total_profit == res_b.total_profit
    )


def bench_engine_scale(quick: bool, repeats: int) -> list[dict]:
    """Event engine vs the legacy stepper on growing SNS workloads."""
    rows = []
    for n_jobs, m in QUICK_SCALE_CONFIGS if quick else SCALE_CONFIGS:
        specs = generate_workload(
            WorkloadConfig(
                n_jobs=n_jobs,
                m=m,
                load=2.0,
                family="mixed",
                epsilon=1.0,
                seed=n_jobs,
            )
        )

        def run_event():
            return Simulator(m=m, scheduler=SNSScheduler(epsilon=1.0)).run(specs)

        def run_legacy():
            return LegacySimulator(m=m, scheduler=SNSScheduler(epsilon=1.0)).run(
                specs
            )

        res_event, res_legacy = run_event(), run_legacy()
        best = _interleaved({"event": run_event, "legacy": run_legacy}, repeats)
        rows.append(
            {
                "n_jobs": n_jobs,
                "m": m,
                "identical": _identical(res_event, res_legacy),
                "engine_seconds": best["event"],
                "legacy_seconds": best["legacy"],
                "speedup": best["legacy"] / best["event"],
                "jobs_per_sec": n_jobs / best["event"],
                "decisions_per_sec": res_event.counters.decisions / best["event"],
                "steps_per_sec": res_event.counters.steps / best["event"],
                "total_profit": res_event.total_profit,
            }
        )
        print(
            f"engine n={n_jobs:4d} m={m:3d} "
            f"event={rows[-1]['speedup']:.2f}x vs legacy "
            f"identical={rows[-1]['identical']}"
        )
    return rows


def bench_engine_wave(quick: bool, repeats: int) -> dict:
    """Peak job throughput: a spread-arrival wave of unit-work jobs.

    Every engine cost here is per-job bookkeeping (arrival, one-node
    execution, completion record); full mode gates the event engine at
    >= 100k jobs/sec.  The legacy stepper runs once, untimed, for the
    bit-identity check.
    """
    n_jobs = 2000 if quick else 20000
    spread = 200 if quick else 2000
    m = 64
    specs = [
        JobSpec(
            job_id=j,
            structure=DAGStructure([1.0], [], name="unit"),
            arrival=(j * spread) // n_jobs,
            profit=1.0,
            deadline=10**9,
        )
        for j in range(n_jobs)
    ]

    def run_event():
        return Simulator(m=m, scheduler=FederatedScheduler()).run(specs)

    res_event = run_event()
    res_legacy = LegacySimulator(m=m, scheduler=FederatedScheduler()).run(specs)
    # extra rounds: the jobs/sec gate is an absolute number, so this row
    # deserves more samples than the relative-speedup sections
    best = _interleaved({"event": run_event}, max(repeats, 5))
    jobs_per_sec = n_jobs / best["event"]
    row = {
        "n_jobs": n_jobs,
        "m": m,
        "arrival_spread": spread,
        "identical": _identical(res_event, res_legacy),
        "event_seconds": best["event"],
        "event_jobs_per_sec": jobs_per_sec,
        # full mode gates the 100k+ jobs/sec target
        "throughput_ok": quick or jobs_per_sec >= 100_000.0,
    }
    print(
        f"engine-wave n={n_jobs}: event {jobs_per_sec / 1e3:.0f}k jobs/sec "
        f"identical={row['identical']}"
    )
    return row


def bench_sweep(quick: bool, repeats: int) -> dict:
    """Serial vs adaptive-worker wall-clock on a small Theorem-2 grid.

    The worker count comes from :func:`adaptive_workers` (capped at 2
    so the comparison stays apples-to-apples across hosts).  On a
    1-CPU host there is no fan-out to measure: the section runs the
    serial sweep only and reports ``parallel_speedup: null`` --
    claiming a parallel win the hardware cannot deliver would poison
    the snapshot.
    """
    # Full mode must be large enough that the worker-pool startup
    # (a few hundred ms to import the scientific stack twice)
    # amortizes; quick mode only checks cell-for-cell equality.
    grid = {
        "epsilon": [0.5, 1.0] if quick else [0.25, 0.5, 1.0, 2.0],
        "n_jobs": [20 if quick else 400],
        "m": [8],
        "load": [2.0],
    }
    seeds = [0, 1] if quick else [0, 1, 2, 3, 4]
    workers = adaptive_workers(max_workers=2)

    serial = run_sweep(_thm2_value, grid, seeds, workers=1)
    if workers <= 1:
        best = _interleaved(
            {"serial": lambda: run_sweep(_thm2_value, grid, seeds, workers=1)},
            repeats,
        )
        return {
            "grid_cells": len(serial),
            "seeds": len(seeds),
            "workers": 1,
            "identical": True,
            "serial_seconds": best["serial"],
            "parallel_seconds": None,
            "parallel_speedup": None,
        }

    parallel = run_sweep(_thm2_value, grid, seeds, workers=workers)
    best = _interleaved(
        {
            "serial": lambda: run_sweep(_thm2_value, grid, seeds, workers=1),
            "parallel": lambda: run_sweep(
                _thm2_value, grid, seeds, workers=workers
            ),
        },
        repeats,
    )
    return {
        "grid_cells": len(serial),
        "seeds": len(seeds),
        "workers": workers,
        "identical": serial == parallel,
        "serial_seconds": best["serial"],
        "parallel_seconds": best["parallel"],
        "parallel_speedup": best["serial"] / best["parallel"],
    }


def sweep_gate_ok(section: dict, quick: bool) -> bool:
    """Gate for the sweep section: equality always; and a *claimed*
    parallel speedup below 1.0 never passes (at full scale, where pool
    startup amortizes).  A serial-only section (1-CPU host: ``workers
    == 1``, ``parallel_speedup`` null) passes on equality alone --
    there is no parallel claim to defend."""
    if not section["identical"]:
        return False
    speedup = section.get("parallel_speedup")
    if section.get("workers", 1) <= 1 or speedup is None:
        return True
    return quick or speedup >= 1.0


def bench_service(quick: bool, repeats: int) -> dict:
    """Streaming pass-through overhead relative to batch runs."""
    n_jobs = 100 if quick else 400
    specs = generate_workload(
        WorkloadConfig(n_jobs=n_jobs, m=8, load=2.5, epsilon=1.0, seed=5)
    )

    def run_batch():
        return Simulator(m=8, scheduler=SNSScheduler(epsilon=1.0)).run(list(specs))

    def run_stream():
        return SchedulingService(8, SNSScheduler(epsilon=1.0)).run_stream(specs)

    batch, stream = run_batch(), run_stream()
    best = _interleaved({"batch": run_batch, "stream": run_stream}, repeats)
    return {
        "n_jobs": n_jobs,
        "identical_profit": batch.total_profit == stream.total_profit,
        "batch_seconds": best["batch"],
        "stream_seconds": best["stream"],
        "passthrough_overhead": best["stream"] / best["batch"],
    }


def bench_scenario_overhead(quick: bool, repeats: int) -> dict:
    """Spec-driven construction overhead on the engine acceptance config.

    The declarative path (parse the canonical spec, registry lookups,
    :class:`~repro.scenarios.ScenarioBuilder` assembly) must price in
    at <= 2% wall-clock over hand-wiring the identical batch run, and
    both paths must agree on the result fingerprint.  Both subjects
    include workload generation -- the builder regenerates from the
    spec's seed, so the direct subject must too.
    """
    from repro.scenarios import ScenarioBuilder, ScenarioSpec
    from repro.scenarios.builder import result_fingerprint

    n_jobs, m = (QUICK_SCALE_CONFIGS if quick else SCALE_CONFIGS)[-1]
    doc = {
        "scenario": {"mode": "batch", "seed": n_jobs},
        "workload": {
            "n_jobs": n_jobs,
            "m": m,
            "load": 2.0,
            "family": "mixed",
            "epsilon": 1.0,
        },
        "scheduler": {"name": "sns"},
    }

    def run_spec():
        return ScenarioBuilder(ScenarioSpec.from_dict(doc)).execute()

    def run_direct():
        specs = generate_workload(
            WorkloadConfig(
                n_jobs=n_jobs,
                m=m,
                load=2.0,
                family="mixed",
                epsilon=1.0,
                seed=n_jobs,
            )
        )
        specs.sort(key=lambda sp: (sp.arrival, sp.job_id))
        return Simulator(m=m, scheduler=SNSScheduler(epsilon=1.0)).run(specs)

    res_spec, res_direct = run_spec(), run_direct()
    best = _interleaved({"spec": run_spec, "direct": run_direct}, repeats)
    slack = 0.005
    return {
        "n_jobs": n_jobs,
        "m": m,
        "identical": res_spec.fingerprint()
        == result_fingerprint("batch", res_direct),
        "direct_seconds": best["direct"],
        "spec_seconds": best["spec"],
        "construction_overhead": best["spec"] / best["direct"],
        "overhead_ok": best["spec"] <= best["direct"] * 1.02 + slack,
    }


#: Shard counts every cluster-scaling row measures.
CLUSTER_SHARD_COUNTS = [1, 2, 4, 8]


def _cluster_workload(quick: bool):
    n_jobs, m = (800, 16) if quick else (12000, 64)
    return m, generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs, m=m, load=4.0, family="mixed", epsilon=1.0, seed=7
        )
    )


def bench_cluster_scaling(quick: bool, repeats: int) -> list[dict]:
    """Process-mode throughput at shard counts 1/2/4/8."""
    m, specs = _cluster_workload(quick)
    config = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})

    def runner(k):
        def run():
            return ClusterService(
                m, k, config=config, router="consistent-hash", mode="process"
            ).run_stream(specs)

        return run

    profits = {k: runner(k)().total_profit for k in CLUSTER_SHARD_COUNTS}
    best = _interleaved(
        {str(k): runner(k) for k in CLUSTER_SHARD_COUNTS}, repeats
    )
    rows = []
    for k in CLUSTER_SHARD_COUNTS:
        seconds = best[str(k)]
        rows.append(
            {
                "shards": k,
                "n_jobs": len(specs),
                "m": m,
                "seconds": seconds,
                "jobs_per_sec": len(specs) / seconds,
                "speedup_vs_1": best["1"] / seconds,
                "total_profit": profits[k],
            }
        )
        print(
            f"cluster k={k} {seconds:.2f}s "
            f"({rows[-1]['jobs_per_sec']:.0f} jobs/sec, "
            f"{rows[-1]['speedup_vs_1']:.2f}x vs k=1)"
        )
    return rows


#: Coordinator settings the coordination bench (and the CLI defaults)
#: stand behind; tuned on the full 12k-job workload -- see
#: docs/SCHEDULING.md for the sweep.
COORDINATION_SETTINGS = {
    "refresh_every": 64,
    "steal_batch": 64,
    "steal_margin": 3.0,
    "max_displaced": 3,
    "max_moves_per_job": 2,
}


def bench_cluster_coordination(quick: bool, repeats: int) -> dict:
    """Coordinated k=4 vs k=1 profit and wall time, in-process mode.

    In-process shards are the substrate the elastic cluster and the
    gateway actually run on, and the mode where the coordinator's
    refresh/steal round trips are function calls instead of IPC fences;
    process-mode parallel scaling keeps its own section (``scaling``),
    whose k=4 speedup gate is unchanged by coordination (the coordinated
    fleet uses the same shards).  Profits are deterministic, so they are
    measured once; wall times use the interleaved best-of protocol.
    """
    m, specs = _cluster_workload(quick)
    config = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})

    def build(coordinated: bool, k: int) -> ClusterService:
        cluster = ClusterService(
            m,
            k,
            config=config,
            router="band-aware" if coordinated else "consistent-hash",
            mode="inprocess",
        )
        if coordinated:
            coordinate(cluster, **COORDINATION_SETTINGS)
        return cluster

    def runner(coordinated: bool, k: int):
        def run():
            return build(coordinated, k).run_stream(specs)

        return run

    profits = {
        "k1": runner(False, 1)().total_profit,
        "k4_uncoordinated": runner(False, 4)().total_profit,
    }
    coordinated_cluster = build(True, 4)
    profits["k4_coordinated"] = coordinated_cluster.run_stream(
        specs
    ).total_profit
    counters = coordinated_cluster.cluster_metrics.values()

    best = _interleaved(
        {name: runner("coordinated" in name, 1 if name == "k1" else 4)
         for name in profits},
        repeats,
    )
    rows = {}
    for name, profit in profits.items():
        seconds = best[name]
        rows[name] = {
            "shards": 1 if name == "k1" else 4,
            "seconds": seconds,
            "jobs_per_sec": len(specs) / seconds,
            "total_profit": profit,
            "profit_vs_k1": profit / profits["k1"],
        }
        print(
            f"coordination {name}: {seconds:.2f}s "
            f"profit {profit:.1f} ({rows[name]['profit_vs_k1']:.1%} of k=1)"
        )
    coordinated = rows["k4_coordinated"]
    return {
        "mode": "inprocess",
        "n_jobs": len(specs),
        "m": m,
        "settings": dict(COORDINATION_SETTINGS),
        "rows": rows,
        "steals": int(counters.get("steals_total", 0)),
        "steals_displaced": int(counters.get("steals_displaced_total", 0)),
        "profit_gate": 0.95,
        # full workload: coordinated k=4 recovers >=95% of the k=1
        # profit that plain sharding sheds; quick sizes (m=16 -> 4
        # machines/shard) clamp allotments too hard to reach the bar,
        # so quick mode gates improvement over uncoordinated only
        "profit_ok": coordinated["profit_vs_k1"] >= 0.95,
        "improves_uncoordinated": coordinated["total_profit"]
        >= rows["k4_uncoordinated"]["total_profit"],
        # wall-clock no-regression floor (generous: the host timing
        # noise on k=1 swings ~2x between runs; profit is the signal,
        # this just pins that coordination is not a slowdown cliff)
        "throughput_ok": coordinated["seconds"]
        <= 1.5 * rows["k1"]["seconds"],
    }


def bench_cluster_recovery(quick: bool) -> dict:
    """Crash-and-recover wall time plus fault-free bit-equality."""
    from repro.resilience import ChaosInjector, ChaosSchedule, SupervisorConfig

    n_jobs = 200 if quick else 2000
    m = 32
    specs = generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs, m=m, load=3.0, family="mixed", epsilon=1.0, seed=7
        )
    )
    config = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})
    fault_at = sorted(s.arrival for s in specs)[len(specs) // 2]

    def run(chaos):
        injector = ChaosInjector(ChaosSchedule.parse(chaos)) if chaos else None
        # a wide checkpoint interval leaves a real log tail to replay,
        # so the recovery timing covers restore + replay, not just restore
        return ClusterService(
            m,
            4,
            config=config,
            router="consistent-hash",
            mode="process",
            supervisor=SupervisorConfig(backoff_base=0.0, backoff_max=0.0),
            fault_injector=injector,
            checkpoint_every=512,
        ).run_stream(specs)

    clean = run(None)
    faulted = run(f"crash:1:{fault_at}")
    event = faulted.recoveries[0]
    return {
        "n_jobs": n_jobs,
        "m": m,
        "shards": 4,
        "fault_at": fault_at,
        "recovery_seconds": event.wall_seconds,
        "replayed_submissions": event.replayed,
        "checkpoint_time": event.checkpoint_time,
        "identical": faulted.records == clean.records
        and faulted.total_profit == clean.total_profit,
    }


def bench_resilience_detection(quick: bool) -> dict:
    """Hang detection + restart latency under heartbeat supervision."""
    from repro.cluster import ClusterService
    from repro.resilience import RpcPolicy, SupervisorConfig

    n_jobs = 150 if quick else 600
    m = 8
    heartbeat_timeout = 0.3
    specs = generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs, m=m, load=2.5, family="mixed", epsilon=1.0, seed=7
        )
    )
    specs.sort(key=lambda s: (s.arrival, s.job_id))
    fault_at = specs[len(specs) // 2].arrival
    config = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})

    cluster = ClusterService(
        m,
        2,
        config=config,
        mode="process",
        supervisor=SupervisorConfig(
            heartbeat_timeout=heartbeat_timeout,
            heartbeat_every=1,
            max_restarts=8,
            backoff_base=0.001,
            backoff_max=0.01,
        ),
        rpc=RpcPolicy(call_timeout=1.0, retries=0),
    )
    cluster.start()
    injected = False
    for spec in specs:
        if spec.arrival >= fault_at and not injected:
            cluster.inject_hang(0, 2.0)
            injected = True
        cluster.submit(spec, t=spec.arrival)
    cluster.finish()
    event = next(e for e in cluster.supervisor.events if e.reason == "hang")
    return {
        "n_jobs": n_jobs,
        "m": m,
        "shards": 2,
        "heartbeat_timeout": heartbeat_timeout,
        "detection_seconds": event.detection_seconds,
        "restart_seconds": event.restart_seconds,
        # one rpc call_timeout of slack: a synchronous fence may eat
        # its deadline before the heartbeat gets its turn
        "within_deadline": event.detection_seconds <= heartbeat_timeout + 1.0,
    }


def bench_resilience_chaos(quick: bool) -> dict:
    """Seeded crash schedule: bit-identity with the fault-free run."""
    from repro.resilience import ChaosSchedule, run_chaos
    from repro.scenarios import build_workload, load_spec

    n_jobs = 150 if quick else 600
    spec = load_spec(SCENARIOS / "chaos_cluster.toml").with_overrides(
        {"seed": 7, "workload.n_jobs": n_jobs, "workload.load": 2.5}
    )
    horizon = max(s.arrival for s in build_workload(spec))
    schedule = ChaosSchedule.generate(
        7, k=2, horizon=horizon, n_events=3, kinds=("crash", "pipe-drop")
    )
    report = run_chaos(spec.with_overrides({"faults.chaos": schedule.spec()}))
    return {
        "n_jobs": n_jobs,
        "schedule": report.schedule,
        "recoveries": report.recoveries,
        "identical": report.ok,
    }


def bench_resilience_degraded(quick: bool) -> dict:
    """Throughput retained when 1 of 4 shards degrades out early."""
    from repro.cluster import ClusterService
    from repro.resilience import SupervisorConfig

    n_jobs = 300 if quick else 2000
    m = 16
    specs = generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs, m=m, load=2.5, family="mixed", epsilon=1.0, seed=7
        )
    )
    specs.sort(key=lambda s: (s.arrival, s.job_id))
    # kill early: the degraded cluster serves most of the stream on 3/4
    # of its machines, the worst case for retention
    fault_at = specs[len(specs) // 10].arrival
    config = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})

    def run(inject: bool):
        cluster = ClusterService(
            m,
            4,
            config=config,
            mode="inprocess",
            supervisor=SupervisorConfig(
                heartbeat_every=1, max_restarts=0, on_exhausted="degrade"
            ),
        )
        cluster.start()
        injected = False
        for spec in specs:
            if inject and spec.arrival >= fault_at and not injected:
                cluster.inject_crash(1)
                injected = True
            cluster.submit(spec, t=spec.arrival)
        return cluster.finish()

    clean = run(False)
    degraded = run(True)
    retained = (
        degraded.total_profit / clean.total_profit
        if clean.total_profit > 0
        else 1.0
    )
    return {
        "n_jobs": n_jobs,
        "m": m,
        "shards": 4,
        "fault_at": fault_at,
        "clean_profit": clean.total_profit,
        "degraded_profit": degraded.total_profit,
        "throughput_retained": retained,
        "degraded_shards": degraded.extra.get("degraded_shards", []),
        # losing 1 of 4 shards early must keep >= 70% of the profit
        "retained_ok": retained >= 0.7,
    }


def bench_resilience_coordinated(quick: bool) -> dict:
    """Coordinated/elastic gateway chaos: audit, floor, and identity.

    Two gates.  A seeded coordination-fault schedule (ledger partition,
    interrupted steal, shard crash) over the autoscaled gateway must
    pass the post-run invariant audit with >= 70% of the fault-free
    profit.  And with no faults at all, the whole resilience stack --
    supervision, journaled steals -- must be invisible: the supervised
    run's fingerprint must equal the plain elastic one.
    """
    import tempfile

    from repro.cluster import ClusterService
    from repro.gateway import (
        Autoscaler,
        Gateway,
        LoadConfig,
        LoadGenerator,
        VirtualClock,
    )
    from repro.resilience import DEFAULT_RPC_POLICY, SupervisorConfig, run_chaos
    from repro.scenarios import load_spec

    n_jobs = 96 if quick else 240
    spec = load_spec(SCENARIOS / "chaos_gateway.toml").with_overrides(
        {
            "seed": 5,
            "workload.n_jobs": n_jobs,
            "faults.chaos": (
                "ledger-partition:2:120,steal-interrupt:0:340,crash:1:420"
            ),
        }
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-gw-") as workdir:
        report = run_chaos(spec, workdir=workdir)

    config = ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0})

    def clean_fingerprint(supervised: bool) -> str:
        supervision = (
            dict(supervisor=SupervisorConfig(), rpc=DEFAULT_RPC_POLICY)
            if supervised
            else {}
        )
        cluster = ClusterService(
            8, 4, k_initial=4, config=config, router="least-loaded",
            **supervision,
        )
        gateway = Gateway(
            cluster,
            LoadGenerator(LoadConfig(n_jobs=n_jobs, m=8, seed=42, load=1.5)),
            clock=VirtualClock(),
            steps_per_tick=20,
            buffer_capacity=512,
            autoscaler=Autoscaler(k_min=1, k_max=4),
        )
        return gateway.run().fingerprint()

    plain = clean_fingerprint(False)
    supervised = clean_fingerprint(True)
    return {
        "n_jobs": n_jobs,
        "schedule": report.schedule,
        "faults_fired": report.faults_fired,
        "recoveries": report.recoveries,
        "audit_ok": report.audit.ok,
        "profit_ratio": report.audit.profit_ratio,
        "profit_floor_ok": report.audit.profit_ratio is None
        or report.audit.profit_ratio >= 0.7,
        "clean_fingerprint_plain": plain,
        "clean_fingerprint_supervised": supervised,
        "fault_free_identical": plain == supervised,
    }


def _gateway_run(
    n_jobs: int,
    load: float,
    *,
    k_initial: int = 4,
    autoscale: bool = False,
    process: str = "poisson",
    seed: int = 7,
):
    """One virtual-clock gateway run on the bench's canonical cluster:
    m=8 split into 4 shard units, SNS per shard, least-loaded routing."""
    from repro.cluster import ClusterService
    from repro.gateway import (
        Autoscaler,
        Gateway,
        LoadConfig,
        LoadGenerator,
        VirtualClock,
    )

    generator = LoadGenerator(
        LoadConfig(n_jobs=n_jobs, m=8, load=load, seed=seed, process=process)
    )
    cluster = ClusterService(
        8,
        4,
        k_initial=k_initial,
        config=ShardConfig(
            m=1,
            scheduler="sns",
            scheduler_kwargs={"epsilon": 1.0},
            capacity=64,
            max_in_flight=8,
        ),
        router="least-loaded",
    )
    autoscaler = Autoscaler(k_min=1, k_max=4) if autoscale else None
    gateway = Gateway(
        cluster,
        generator,
        clock=VirtualClock(),
        tick_seconds=0.01,
        steps_per_tick=10,
        autoscaler=autoscaler,
    )
    start = time.perf_counter()
    result = gateway.run()
    return result, time.perf_counter() - start


def bench_gateway_sustained(quick: bool) -> list[dict]:
    """Open-loop Poisson load at 0.8x/1.0x/1.2x saturation, fixed k=4.

    The gated rows are 0.8 and 1.0: at or below saturation the gateway
    must keep p99 admission latency bounded (<= 50 simulated steps, 5
    ticks of buffer wait) and shed almost nothing (<= 5% below
    saturation, <= 10% at saturation).  The 1.2x row is reported for
    context -- above saturation shedding is the *correct* response, so
    it carries no bound.
    """
    n_jobs = 300 if quick else 1200
    rows = []
    for load in (0.8, 1.0, 1.2):
        result, wall = _gateway_run(n_jobs, load)
        summary = result.summary()
        shed_total = summary["shed"] + summary["gateway_shed"]
        shed_fraction = shed_total / max(summary["generated"], 1)
        p99 = summary["admission_latency_p99"] or 0.0
        gated = load <= 1.0
        rows.append(
            {
                "load": load,
                "n_jobs": n_jobs,
                "ticks": summary["ticks"],
                "sim_end": summary["sim_end"],
                "bench_seconds": wall,
                "jobs_per_sec": summary["generated"] / wall,
                "admission_latency_p50": summary["admission_latency_p50"],
                "admission_latency_p99": summary["admission_latency_p99"],
                "shed_fraction": shed_fraction,
                "total_profit": summary["total_profit"],
                "gated": gated,
                "latency_ok": (not gated) or p99 <= 50.0,
                "shed_ok": (not gated)
                or shed_fraction <= (0.10 if load >= 1.0 else 0.05),
            }
        )
        print(
            f"gateway load={load:.1f} n={n_jobs}: "
            f"p99={p99:.1f} steps, shed={shed_fraction:.1%}, "
            f"{rows[-1]['jobs_per_sec']:.0f} jobs/sec"
        )
    return rows


def bench_gateway_autoscale(quick: bool) -> dict:
    """Autoscaled profit vs every fixed shard count on one trace.

    A flash-crowd trace at 1.2x saturation; the autoscaler starts at
    k=1 and must earn >= 95% of the best fixed k's profit (gated in
    full mode only -- the quick trace is too short for the hysteresis
    windows to be meaningful).
    """
    n_jobs = 300 if quick else 1200
    fixed = {}
    for k in (1, 2, 3, 4):
        result, _ = _gateway_run(n_jobs, 1.2, k_initial=k, process="flash-crowd")
        fixed[k] = result.total_profit
    auto, _ = _gateway_run(
        n_jobs, 1.2, k_initial=1, autoscale=True, process="flash-crowd"
    )
    best_k = max(fixed, key=lambda k: fixed[k])
    ratio = auto.total_profit / fixed[best_k] if fixed[best_k] > 0 else 1.0
    row = {
        "n_jobs": n_jobs,
        "process": "flash-crowd",
        "load": 1.2,
        "fixed_profits": {str(k): p for k, p in fixed.items()},
        "best_fixed_k": best_k,
        "best_fixed_profit": fixed[best_k],
        "autoscaled_profit": auto.total_profit,
        "ratio": ratio,
        "scale_path": [e.k_after for e in auto.scale_events],
        "scale_events": len(auto.scale_events),
        "ratio_ok": ratio >= 0.95,
    }
    print(
        f"gateway autoscale: {auto.total_profit:.1f} vs best fixed "
        f"k={best_k} {fixed[best_k]:.1f} ({ratio:.1%}), "
        f"path {row['scale_path']}"
    )
    return row


def bench_gateway_determinism(quick: bool) -> dict:
    """Two identical seeded virtual-clock runs, fingerprint-equal.

    Covers an autoscaler up/down cycle: the fingerprint hashes the
    submission order and placement, front-door drops, scheduler sheds,
    per-job profits (exact bit patterns) and the scale trajectory.
    """
    n_jobs = 300 if quick else 400
    a, _ = _gateway_run(
        n_jobs, 1.2, k_initial=1, autoscale=True, process="flash-crowd"
    )
    b, _ = _gateway_run(
        n_jobs, 1.2, k_initial=1, autoscale=True, process="flash-crowd"
    )
    return {
        "n_jobs": n_jobs,
        "fingerprint": a.fingerprint()[:16],
        "scale_events": len(a.scale_events),
        "identical": a.fingerprint() == b.fingerprint(),
    }


def bench_observability(
    quick: bool, repeats: int, trace_path: str | None = None
) -> dict:
    """Tracing overhead: no recorder vs disabled recorder vs full trace.

    The bit-identity checks are the load-bearing part: a recorder that
    perturbed the schedule would be worse than a slow one.  The timing
    gates get a small absolute slack (5 ms) on top of the relative
    bound so sub-second quick runs don't flake on scheduler jitter.
    """
    from repro.observability import (
        NULL_RECORDER,
        Profiler,
        TraceRecorder,
        recompute_profit,
        validate_trace,
        write_jsonl,
    )

    # quick stays at 400 jobs: smaller runs are over in ~13 ms, where
    # per-event constants and scheduler jitter dominate the ratio
    n_jobs, m = (400, 32) if quick else (800, 64)
    specs = generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs, m=m, load=2.0, family="mixed", epsilon=1.0, seed=17
        )
    )

    def run(recorder=None, profiler=None):
        return Simulator(
            m=m,
            scheduler=SNSScheduler(epsilon=1.0),
            recorder=recorder,
            profiler=profiler,
        ).run(list(specs))

    res_base = run()
    res_noop = run(NULL_RECORDER)
    tracer, profiler = TraceRecorder(), Profiler()
    res_traced = run(tracer, profiler)
    violations = validate_trace(tracer.events)
    profit_ok = recompute_profit(tracer.events) == res_traced.total_profit
    if trace_path:
        write_jsonl(tracer.events, trace_path)
        print(f"wrote {trace_path} ({len(tracer)} events)")

    best = _interleaved(
        {
            "baseline": run,
            "noop": lambda: run(NULL_RECORDER),
            "traced": lambda: run(TraceRecorder(), Profiler()),
        },
        repeats,
    )
    slack = 0.005
    disabled_overhead = best["noop"] / best["baseline"] - 1.0
    enabled_overhead = best["traced"] / best["baseline"] - 1.0
    row = {
        "n_jobs": n_jobs,
        "m": m,
        "events": len(tracer),
        "identical_noop": _identical(res_base, res_noop),
        "identical_traced": _identical(res_base, res_traced),
        "trace_valid": not violations,
        "profit_recomputed_ok": profit_ok,
        "baseline_seconds": best["baseline"],
        "noop_seconds": best["noop"],
        "traced_seconds": best["traced"],
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "disabled_ok": best["noop"] <= best["baseline"] * 1.02 + slack,
        "enabled_ok": best["traced"] <= best["baseline"] * 1.10 + slack,
    }
    print(
        f"observability n={n_jobs} m={m}: disabled "
        f"{disabled_overhead:+.2%}, traced {enabled_overhead:+.2%} "
        f"({row['events']} events, identical="
        f"{row['identical_noop'] and row['identical_traced']})"
    )
    return row


def main(argv=None) -> int:
    """Run every section and write the JSON snapshot."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "-o",
        "--output",
        default=str(Path(__file__).resolve().parent / "BENCH_engine.json"),
        help="where to write the JSON snapshot",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test sizes (seconds, for CI) instead of full scale",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="interleaved timing rounds per subject (best is reported)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every bit-identity/equality assertion holds",
    )
    parser.add_argument(
        "--cluster-output",
        default=str(Path(__file__).resolve().parent / "BENCH_cluster.json"),
        help="where to write the cluster JSON snapshot",
    )
    parser.add_argument(
        "--skip-cluster",
        action="store_true",
        help="skip the repro.cluster sections (and BENCH_cluster.json)",
    )
    parser.add_argument(
        "--resilience-output",
        default=str(Path(__file__).resolve().parent / "BENCH_resilience.json"),
        help="where to write the resilience JSON snapshot",
    )
    parser.add_argument(
        "--skip-resilience",
        action="store_true",
        help="skip the repro.resilience sections (and BENCH_resilience.json)",
    )
    parser.add_argument(
        "--observability-output",
        default=str(
            Path(__file__).resolve().parent / "BENCH_observability.json"
        ),
        help="where to write the observability JSON snapshot",
    )
    parser.add_argument(
        "--skip-observability",
        action="store_true",
        help="skip the tracing-overhead section (and "
        "BENCH_observability.json)",
    )
    parser.add_argument(
        "--gateway-output",
        default=str(Path(__file__).resolve().parent / "BENCH_gateway.json"),
        help="where to write the gateway JSON snapshot",
    )
    parser.add_argument(
        "--skip-gateway",
        action="store_true",
        help="skip the repro.gateway sections (and BENCH_gateway.json)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also dump the observability section's trace to PATH (JSONL)",
    )
    args = parser.parse_args(argv)

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except OSError:  # pragma: no cover - git missing
        rev = ""

    snapshot = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            # interpret sweep.parallel_speedup relative to this: with a
            # single CPU the 2-worker pool cannot beat serial
            "cpu_count": os.cpu_count(),
            "git_rev": rev,
            "quick": args.quick,
            "repeats": args.repeats,
        },
        "engine_scale": bench_engine_scale(args.quick, args.repeats),
        "engine_wave": bench_engine_wave(args.quick, args.repeats),
        "sweep": bench_sweep(args.quick, args.repeats),
        "service": bench_service(args.quick, args.repeats),
        "scenario_overhead": bench_scenario_overhead(args.quick, args.repeats),
    }

    out = Path(args.output)
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out}")

    ok = (
        all(row["identical"] for row in snapshot["engine_scale"])
        and snapshot["engine_wave"]["identical"]
        and snapshot["engine_wave"]["throughput_ok"]
        and sweep_gate_ok(snapshot["sweep"], args.quick)
        and snapshot["service"]["identical_profit"]
        and snapshot["scenario_overhead"]["identical"]
        and snapshot["scenario_overhead"]["overhead_ok"]
    )
    largest = snapshot["engine_scale"][-1]
    wave = snapshot["engine_wave"]
    print(
        f"largest config n={largest['n_jobs']} m={largest['m']}: "
        f"{largest['speedup']:.2f}x vs legacy, "
        f"{largest['jobs_per_sec']:.0f} jobs/sec, "
        f"{largest['decisions_per_sec']:.0f} decisions/sec"
    )
    print(f"engine wave: {wave['event_jobs_per_sec'] / 1e3:.0f}k jobs/sec")

    if not args.skip_cluster:
        cluster_snapshot = {
            "meta": snapshot["meta"],
            "scaling": bench_cluster_scaling(args.quick, args.repeats),
            "coordination": bench_cluster_coordination(
                args.quick, args.repeats
            ),
            "recovery": bench_cluster_recovery(args.quick),
        }
        cluster_out = Path(args.cluster_output)
        cluster_out.write_text(json.dumps(cluster_snapshot, indent=2) + "\n")
        print(f"wrote {cluster_out}")

        at4 = next(
            row
            for row in cluster_snapshot["scaling"]
            if row["shards"] == 4
        )
        coordination = cluster_snapshot["coordination"]
        coordinated_row = coordination["rows"]["k4_coordinated"]
        print(
            f"cluster k=4: {at4['speedup_vs_1']:.2f}x vs k=1, "
            f"coordinated profit {coordinated_row['profit_vs_k1']:.1%} of k=1 "
            f"({coordination['steals']} steals), "
            f"recovery {cluster_snapshot['recovery']['recovery_seconds'] * 1e3:.1f} ms "
            f"identical={cluster_snapshot['recovery']['identical']}"
        )
        ok = ok and cluster_snapshot["recovery"]["identical"]
        # coordination must beat plain sharding at every size (profits
        # are deterministic, so this gate never flakes)
        ok = ok and coordination["improves_uncoordinated"]
        # throughput scaling and the 95%-of-k=1 profit bar only gate in
        # full mode: the quick sizes are too small for the sharding win
        # to clear the IPC floor, and 4-machine shards clamp allotments
        # too hard for coordination to close the whole gap
        if not args.quick:
            ok = ok and at4["speedup_vs_1"] > 1.5
            ok = ok and coordination["profit_ok"]
            ok = ok and coordination["throughput_ok"]

    if not args.skip_resilience:
        resilience_snapshot = {
            "meta": snapshot["meta"],
            "detection": bench_resilience_detection(args.quick),
            "chaos": bench_resilience_chaos(args.quick),
            "degraded": bench_resilience_degraded(args.quick),
            "coordinated": bench_resilience_coordinated(args.quick),
        }
        resilience_out = Path(args.resilience_output)
        resilience_out.write_text(
            json.dumps(resilience_snapshot, indent=2) + "\n"
        )
        print(f"wrote {resilience_out}")

        detection = resilience_snapshot["detection"]
        degraded = resilience_snapshot["degraded"]
        coordinated = resilience_snapshot["coordinated"]
        print(
            f"resilience: hang detected in "
            f"{detection['detection_seconds'] * 1e3:.1f} ms, restart "
            f"{detection['restart_seconds'] * 1e3:.1f} ms, chaos identical="
            f"{resilience_snapshot['chaos']['identical']}, "
            f"throughput retained at k=4 with 1 shard down: "
            f"{degraded['throughput_retained']:.1%}, gateway chaos audit="
            f"{coordinated['audit_ok']} (profit ratio "
            f"{coordinated['profit_ratio']:.2f}), fault-free identity="
            f"{coordinated['fault_free_identical']}"
        )
        ok = ok and detection["within_deadline"]
        ok = ok and resilience_snapshot["chaos"]["identical"]
        ok = ok and degraded["retained_ok"]
        ok = ok and coordinated["audit_ok"]
        ok = ok and coordinated["profit_floor_ok"]
        ok = ok and coordinated["fault_free_identical"]

    if not args.skip_observability:
        observability_snapshot = {
            "meta": snapshot["meta"],
            "overhead": bench_observability(
                args.quick, args.repeats, trace_path=args.trace
            ),
        }
        observability_out = Path(args.observability_output)
        observability_out.write_text(
            json.dumps(observability_snapshot, indent=2) + "\n"
        )
        print(f"wrote {observability_out}")

        overhead = observability_snapshot["overhead"]
        ok = ok and overhead["identical_noop"]
        ok = ok and overhead["identical_traced"]
        ok = ok and overhead["trace_valid"]
        ok = ok and overhead["profit_recomputed_ok"]
        ok = ok and overhead["disabled_ok"]
        ok = ok and overhead["enabled_ok"]

    if not args.skip_gateway:
        gateway_snapshot = {
            "meta": snapshot["meta"],
            "sustained": bench_gateway_sustained(args.quick),
            "autoscale": bench_gateway_autoscale(args.quick),
            "determinism": bench_gateway_determinism(args.quick),
        }
        gateway_out = Path(args.gateway_output)
        gateway_out.write_text(json.dumps(gateway_snapshot, indent=2) + "\n")
        print(f"wrote {gateway_out}")

        autoscale = gateway_snapshot["autoscale"]
        determinism = gateway_snapshot["determinism"]
        saturated = next(
            row
            for row in gateway_snapshot["sustained"]
            if row["load"] == 1.0
        )
        print(
            f"gateway: p99 at saturation "
            f"{(saturated['admission_latency_p99'] or 0.0):.1f} steps, "
            f"shed {saturated['shed_fraction']:.1%}, autoscaled/best-fixed "
            f"{autoscale['ratio']:.1%}, deterministic="
            f"{determinism['identical']}"
        )
        for row in gateway_snapshot["sustained"]:
            ok = ok and row["latency_ok"] and row["shed_ok"]
        ok = ok and determinism["identical"]
        # the hysteresis windows need the full trace length to settle,
        # so the profit-ratio gate only applies at full scale
        if not args.quick:
            ok = ok and autoscale["ratio_ok"]

    if args.check and not ok:
        print("FAILED: output mismatch between timed subjects", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
