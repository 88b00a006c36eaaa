#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload batch-overload --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn, each in its own
process.  Each run generates its inputs from ``--seed`` (the program's
configuration never depends on the seed), builds the system under test
from ``src/``, runs one untimed warm-up repeat, then repeats
*set up -> run -> check -> tear down* for ``--seconds``.  Every repeat's
outputs are checked (profit recomputed from the records, fingerprint
equal to the warm-up's, plus the workload's own audit) and every
failure counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  Their times are taken at
nominal host speed: the run samples how fast the host is going while
it runs (:mod:`perfbench.hostspeed`) and divides each repeat's wall
time, and each set-up probe's time, by the slowdown sampled over it,
so the host's minute-scale drift cancels out while a change in the
program's own speed does not.
``--trace 1`` alternates
untraced and traced repeats: traced repeats wrap calls into each layer
(:mod:`perfbench.spans`) and give the per-layer metrics, untraced ones
give the latency metrics and the tracing overhead.  The traced run
writes the last traced repeat's spans to
``.perfbench/spans/<workload>-seed<seed>.jsonl``.  ``metrics.json``
beside this file says which end-to-end metric each per-layer metric
should move, and on which workload.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Set-up/tear-down probes taken before the measured repeats, so
#: ``setup_s`` is a median over enough samples: at least SETUP_PROBES,
#: and more until SETUP_PROBE_S seconds have passed.
SETUP_PROBES = 9
SETUP_PROBE_S = 0.5
#: Fewest measured repeats of each kind, however short ``--seconds``.
MIN_REPEATS = 2

_perf = time.perf_counter


@dataclass
class Sample:
    """One measured repeat.

    Only small summaries are kept: holding every repeat's records would
    grow the heap (and so garbage-collection work and peak memory) with
    the number of repeats a run fits.
    """

    traced: bool
    wall_s: float = 0.0
    #: host slowdown while the run went (1.0 when not sampled)
    slowdown: float = 1.0
    #: ``None`` when the run raised
    fingerprint: Optional[str] = None
    problems: list = field(default_factory=list)
    latencies: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def repeat(workload, specs, tracer, speed=None):
    """Set up, run, check and tear down one repeat.

    Returns the :class:`Sample` and the run's outcome (``None`` when
    the run raised).  With a started :class:`HostSpeed` ``speed`` the
    sample carries the host's slowdown over the timed run.
    """
    gc.collect()
    system = workload.setup(specs)
    sample = Sample(traced=tracer is not None)
    outcome = None
    try:
        if tracer is not None:
            tracer.reset()
            workload.instrument(system, tracer)
            tracer.begin("harness.repeat")
        mark = speed.mark() if speed is not None else 0
        started = _perf()
        try:
            outcome = workload.run(system, specs, tracer)
        finally:
            sample.wall_s = _perf() - started
            if speed is not None:
                sample.slowdown = speed.since(mark) or speed.overall() or 1.0
            if tracer is not None:
                if tracer.top() == "harness.repeat":
                    tracer.end("harness.repeat")
                else:
                    tracer.stack.clear()
        sample.problems = list(outcome.problems) + workload.check(system, outcome)
        sample.fingerprint = outcome.fingerprint
        sample.latencies = outcome.latencies
        sample.extra = outcome.extra
    except Exception as exc:  # a raised run is a failed operation
        sample.problems.append(f"{workload.name} raised {exc!r}")
    finally:
        workload.teardown(system)
    if tracer is not None:
        sample.spans = tracer.spans
        sample.aggregates = tracer.aggregates
        sample.counts = tracer.counts
        sample.observed = tracer.observed
    return sample, outcome


def measure(workload, specs, seconds: float, traced: bool):
    """Warm up, probe set-up, then repeat until ``seconds`` pass.

    An untraced run samples the host's speed throughout: each repeat's
    sample carries its slowdown, and each set-up time returned is
    divided by the slowdown measured right before its probe.
    """
    from perfbench.hostspeed import HostSpeed
    from perfbench.spans import SpanTracer

    if traced:
        return _measure(workload, specs, seconds, SpanTracer(), None)
    with HostSpeed() as speed:
        return _measure(workload, specs, seconds, None, speed)


def _measure(workload, specs, seconds, tracer, speed):
    from perfbench.hostspeed import slowdown_now

    warm, outcome = repeat(workload, specs, None, speed)
    gc.collect()
    setups = []
    probe_deadline = _perf() + SETUP_PROBE_S
    while len(setups) < SETUP_PROBES or _perf() < probe_deadline:
        # A set-up can be shorter than one host phase, so each probe
        # gets its own slowdown, measured right before it.
        slowdown = slowdown_now() if speed is not None else 1.0
        started = _perf()
        system = workload.setup(specs)
        setups.append((_perf() - started) / slowdown)
        workload.teardown(system)
    traced = tracer is not None
    samples: list[Sample] = []
    deadline = _perf() + seconds
    while True:
        plain = [s for s in samples if not s.traced]
        traced_n = len(samples) - len(plain)
        if _perf() >= deadline and len(plain) >= MIN_REPEATS and (
            not traced or traced_n >= MIN_REPEATS
        ):
            break
        use_tracer = tracer if traced and len(samples) % 2 == 1 else None
        samples.append(repeat(workload, specs, use_tracer, speed)[0])
    for sample in samples:
        if sample.fingerprint != warm.fingerprint:
            sample.problems.append(
                f"fingerprint {sample.fingerprint} differs from the warm-up's "
                f"{warm.fingerprint}"
            )
    return warm, outcome, samples, setups


def end_to_end(specs, outcome, samples, setups) -> dict:
    """The user-visible metrics (untraced repeats only); the quality
    metrics come from the warm-up ``outcome``, which every repeat's
    fingerprint must match.  Throughput is at nominal host speed: each
    repeat's wall time over its own slowdown."""
    plain = [s for s in samples if not s.traced and s.fingerprint is not None]
    n = len(specs)
    offered_profit = sum(spec.profit for spec in specs)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "jobs_per_s": (median([n * s.slowdown / s.wall_s for s in plain]), "jobs/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
        "profit_frac": (outcome.total_profit / offered_profit, "frac"),
        "ontime_frac": (
            sum(1 for rec in outcome.records.values() if rec.on_time) / n,
            "frac",
        ),
        "shed_frac": (outcome.refused / n, "frac"),
    }


def _layer(op: str) -> str:
    return op.split(".", 1)[0]


def per_layer(outcome, samples, generate_s, attempted, failed) -> dict:
    """Per-layer metrics (traced repeats) plus the workload-specific
    latencies (untraced repeats); counts and ratios of the run itself
    come from the warm-up ``outcome``."""
    from perfbench.workloads import ASYNC_RPCS, SYNC_RPCS, percentile

    plain = [s for s in samples if not s.traced and s.fingerprint is not None]
    traced = [s for s in samples if s.traced and s.fingerprint is not None]
    pooled = defaultdict(list)  # op -> every duration (ns)
    repeats = []  # per traced repeat: layer self ns, op totals, op counts
    for sample in traced:
        selfs, totals, counts = defaultdict(int), defaultdict(int), defaultdict(int)
        for _id, _parent, op, _start, dur, self_ns in sample.spans:
            pooled[op].append(dur)
            selfs[_layer(op)] += self_ns
            totals[op] += dur
            counts[op] += 1
        for op, (count, total) in sample.aggregates.items():
            selfs[_layer(op)] += total
            totals[op] += total
            counts[op] += count
        for name, count in sample.counts.items():
            counts[name] += count
        repeats.append((selfs, totals, counts))

    def us(ops, q):
        return percentile([d for op in ops for d in pooled[op]], q) / 1e3

    def self_s(layer):
        return median([r[0][layer] for r in repeats]) / 1e9

    def total_s(*ops):
        return median([sum(r[1][op] for op in ops) for r in repeats]) / 1e9

    def calls(*ops):
        return median([sum(r[2][op] for op in ops) for r in repeats])

    def observed_p99(name):
        return percentile([v for s in traced for v in s.observed.get(name, [])], 0.99)

    def prefixed(prefix):
        return sorted({op for r in repeats for op in r[2] if op.startswith(prefix)})

    counters = outcome.counters
    decisions = sum(c.decisions for c in counters)
    steps = sum(c.steps for c in counters)
    busy = sum(c.busy_steps for c in counters)
    records = list(outcome.records.values())
    served = sum(1 for rec in records if rec.processor_steps > 0)
    all_steps = sum(rec.processor_steps for rec in records)
    wasted = sum(rec.processor_steps for rec in records if rec.expired)
    extra = outcome.extra
    sync_ops = [f"shard.{name}" for name in SYNC_RPCS]
    async_ops = [f"shard.{name}" for name in ASYNC_RPCS]
    moves = calls("coord.moves_planned")
    steals = extra.get("coord.steals", 0.0)
    obs_events = extra.get("obs.events", 0.0)
    core_ops = prefixed("core.")
    root_dur = median([r[1]["harness.repeat"] for r in repeats])
    ticks = [t for s in plain for t in s.latencies.get("tick", [])]
    submits = [t for s in plain for t in s.latencies.get("submit", [])]
    walls = {kind: median([s.wall_s for s in (traced if kind else plain)])
             for kind in (False, True)}
    m = {
        # core: scheduler S
        "core.arrival_us_p50": (us(["core.on_arrival"], 0.5), "us"),
        "core.arrival_us_p99": (us(["core.on_arrival"], 0.99), "us"),
        "core.allocate_us_p50": (us(["core.allocate"], 0.5), "us"),
        "core.allocate_us_p99": (us(["core.allocate"], 0.99), "us"),
        "core.completion_us_p50": (us(["core.on_completion"], 0.5), "us"),
        "core.calls": (calls(*core_ops), "count"),
        "core.self_s": (self_s("core"), "s"),
        "core.served_ratio": (served / len(records) if records else 0.0, "frac"),
        "core.wasted_step_frac": (wasted / all_steps if all_steps else 0.0, "frac"),
        # sim: the engine
        "sim.self_s": (self_s("sim"), "s"),
        "sim.decisions": (float(decisions), "count"),
        "sim.steps": (float(steps), "count"),
        "sim.us_per_decision": (
            self_s("sim") * 1e6 / decisions if decisions else 0.0, "us"),
        "sim.busy_frac": (
            busy / outcome.capacity_steps if outcome.capacity_steps else 0.0, "frac"),
        # obs: the trace recorder
        "obs.events": (obs_events, "count"),
        "obs.self_s": (self_s("obs"), "s"),
        "obs.ns_per_event": (
            self_s("obs") * 1e9 / obs_events if obs_events else 0.0, "ns"),
        "obs.validate_s": (
            median([s.extra.get("obs.validate_s", 0.0) for s in plain]), "s"),
        # service: one shard's scheduling service
        "service.submit_us_p50": (us(["service.submit"], 0.5), "us"),
        "service.submit_us_p99": (us(["service.submit"], 0.99), "us"),
        "service.advance_us_p50": (us(["service.advance_to"], 0.5), "us"),
        "service.advance_us_p99": (us(["service.advance_to"], 0.99), "us"),
        "service.self_s": (self_s("service"), "s"),
        "service.queue_depth_p99": (observed_p99("service.queue_depth"), "count"),
        "service.shed": (extra.get("service.shed", 0.0), "count"),
        # cluster: routing and fan-out
        "cluster.submit_us_p50": (us(["cluster.submit"], 0.5), "us"),
        "cluster.submit_us_p99": (us(["cluster.submit"], 0.99), "us"),
        "cluster.route_us_p50": (us(["cluster.route"], 0.5), "us"),
        "cluster.route_us_p99": (us(["cluster.route"], 0.99), "us"),
        "cluster.advance_us_p50": (us(["cluster.advance_to"], 0.5), "us"),
        "cluster.advance_us_p99": (us(["cluster.advance_to"], 0.99), "us"),
        "cluster.stats_calls": (calls("cluster.stats_calls", "shard.stats"), "count"),
        "cluster.live_metrics_us_p50": (us(["cluster.live_metrics"], 0.5), "us"),
        "cluster.self_s": (self_s("cluster"), "s"),
        # shard: process-mode RPCs
        "shard.sync_calls": (calls(*sync_ops), "count"),
        "shard.sync_us_p50": (us(sync_ops, 0.5), "us"),
        "shard.sync_us_p99": (us(sync_ops, 0.99), "us"),
        "shard.async_calls": (calls(*async_ops), "count"),
        "shard.async_us_p50": (us(async_ops, 0.5), "us"),
        "shard.wait_s": (total_s(*sync_ops), "s"),
        "shard.self_s": (self_s("shard"), "s"),
        # coord: ledger refresh and steal planning
        "coord.refreshes": (calls("coord.refresh"), "count"),
        "coord.refresh_us_p50": (us(["coord.refresh"], 0.5), "us"),
        "coord.refresh_us_p99": (us(["coord.refresh"], 0.99), "us"),
        "coord.plan_us_p50": (us(["coord.plan"], 0.5), "us"),
        "coord.moves_planned": (moves, "count"),
        "coord.steals": (steals, "count"),
        "coord.steal_yield": (steals / moves if moves else 0.0, "frac"),
        "coord.self_s": (self_s("coord"), "s"),
        # wal and ckpt: durability
        "wal.records": (calls("wal.record", "wal.record_fsync"), "count"),
        "wal.record_us_p50": (us(["wal.record", "wal.record_fsync"], 0.5), "us"),
        "wal.fsync_record_us_p50": (us(["wal.record_fsync"], 0.5), "us"),
        "wal.self_s": (self_s("wal"), "s"),
        "ckpt.count": (calls("ckpt.checkpoint_all"), "count"),
        "ckpt.us_p50": (us(["ckpt.checkpoint_all"], 0.5), "us"),
        "ckpt.self_s": (self_s("ckpt"), "s"),
        # gw: gateway tick phases
        "gw.ticks": (extra.get("gw.ticks", 0.0), "count"),
        "gw.pace_s": (total_s("gw.pace"), "s"),
        "gw.ingest_s": (total_s("gw.ingest"), "s"),
        "gw.dispatch_s": (total_s("gw.dispatch"), "s"),
        "gw.advance_s": (total_s("gw.advance"), "s"),
        "gw.publish_s": (total_s("gw.publish"), "s"),
        "gw.self_s": (self_s("gw"), "s"),
        "gw.buffer_depth_p99": (observed_p99("gw.buffer_depth"), "count"),
        # workload-specific end-to-end latencies (untraced repeats)
        "admit_lat_p50_steps": (extra.get("admit_lat_p50_steps", 0.0), "steps"),
        "admit_lat_p99_steps": (extra.get("admit_lat_p99_steps", 0.0), "steps"),
        "tick_ms_p50": (percentile(ticks, 0.5) * 1e3, "ms"),
        "tick_ms_p99": (percentile(ticks, 0.99) * 1e3, "ms"),
        "submit_us_p50": (percentile(submits, 0.5) * 1e6, "us"),
        "submit_us_p99": (percentile(submits, 0.99) * 1e6, "us"),
        "error_frac": (failed / attempted, "frac"),
        # harness
        "workloads.generate_s": (generate_s, "s"),
        "trace_overhead": (walls[True] / walls[False] - 1.0, "frac"),
        "unattributed_frac": (
            self_s("harness") * 1e9 / root_dur if root_dur else 0.0, "frac"),
    }
    return m


def write_spans(path: Path, sample: Sample) -> None:
    """Write one traced repeat's spans as JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, op, start, dur, self_ns in sample.spans:
            fh.write(json.dumps({
                "id": span_id, "parent": parent, "op": op,
                "start_ns": start, "dur_ns": dur, "self_ns": self_ns,
            }) + "\n")
        for op, (count, total) in sorted(sample.aggregates.items()):
            fh.write(json.dumps({"op": op, "count": count, "total_ns": total}) + "\n")


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](str(ROOT / ".perfbench" / "tmp"))
    started = _perf()
    specs = workload.generate(args.seed)
    generate_s = _perf() - started
    workload.prepare(specs)
    warm, outcome, samples, setups = measure(
        workload, specs, args.seconds, bool(args.trace)
    )
    attempted = len(specs) * (1 + len(samples))
    problems = list(warm.problems) + [p for s in samples for p in s.problems]
    failed = min(len(problems), attempted)
    for problem in problems[:10]:
        print(f"FAILED: {problem}")
    if outcome is None or not any(
        s.fingerprint is not None and not s.traced for s in samples
    ):
        metrics = {}
    elif args.trace:
        metrics = per_layer(outcome, samples, generate_s, attempted, failed)
        last = [s for s in samples if s.traced][-1]
        write_spans(
            ROOT / ".perfbench" / "spans" / f"{workload.name}-seed{args.seed}.jsonl",
            last,
        )
    else:
        metrics = end_to_end(specs, outcome, samples, setups)
    plain = [s for s in samples if not s.traced]
    print(
        f"{workload.name} seed={args.seed}: {len(specs)} jobs, "
        f"{len(plain)} untraced + {len(samples) - len(plain)} traced repeats, "
        f"jobs/s per untraced repeat (wall, host slowdown): "
        + " ".join(f"{len(specs) / s.wall_s:.0f}x{s.slowdown:.2f}" for s in plain)
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if metrics else 1


def run_all(args) -> int:
    """Run every workload in its own process; combine their results."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = 1
            combined["correct"] = False
            continue
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
