#!/usr/bin/env python3
"""Write the per-layer breakdown report for every workload.

Runs ``run.py`` untraced and traced on each workload (each in its own
process) and writes ``REPORT.md`` beside this file: end-to-end
throughput, per-layer self time, unattributed time and tracing
overhead.  From the repository root::

    python3 perfbench/breakdown.py --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Layers in stack order, engine first, and the metric giving each
#: one's self time per repeat.
LAYERS = (
    ("core", "core.self_s"),
    ("sim", "sim.self_s"),
    ("obs", "obs.self_s"),
    ("service", "service.self_s"),
    ("cluster", "cluster.self_s"),
    ("shard", "shard.self_s"),
    ("coord", "coord.self_s"),
    ("wal", "wal.self_s"),
    ("ckpt", "ckpt.self_s"),
    ("gw", "gw.self_s"),
)
WORKLOADS = ("batch-overload", "batch-traced", "gateway-flash", "cluster-durable")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} --trace {trace}: outputs failed their checks")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def per_job_us(untraced: dict, traced: dict) -> dict:
    """Each layer's share of the traced repeat, applied to the untraced
    wall time per job."""
    selfs = {layer: traced[metric] for layer, metric in LAYERS}
    attributed = sum(selfs.values())
    wall = attributed / (1.0 - traced["unattributed_frac"])
    selfs["unattributed"] = wall - attributed
    us_per_job = 1e6 / untraced["jobs_per_s"]
    return {layer: value / wall * us_per_job for layer, value in selfs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("-o", "--output", default=str(HERE / "REPORT.md"))
    args = parser.parse_args(argv)

    rows = {w: (run(w, args.seed, args.seconds, 0), run(w, args.seed, args.seconds, 1))
            for w in WORKLOADS}
    lines = [
        "# Per-layer breakdown",
        "",
        f"Seed {args.seed}, {args.seconds:g} s per run, on {platform.machine()} "
        f"with {platform.python_implementation()} {platform.python_version()}.",
        "Self times are seconds per repeat (one pass over the workload's "
        "inputs), median over the traced repeats; a layer's self time "
        "excludes the time of the layers it calls.  Written by "
        "`python3 perfbench/breakdown.py`.",
        "",
        "| | " + " | ".join(WORKLOADS) + " |",
        "|---|" + "---:|" * len(WORKLOADS),
        "| jobs/s (untraced) | "
        + " | ".join(f"{rows[w][0]['jobs_per_s']:.0f}" for w in WORKLOADS) + " |",
    ]
    for layer, metric in LAYERS:
        lines.append(
            f"| `{layer}` self s | "
            + " | ".join(f"{rows[w][1][metric]:.3f}" for w in WORKLOADS) + " |"
        )
    for metric in ("shard.wait_s", "unattributed_frac", "trace_overhead"):
        lines.append(
            f"| `{metric}` | "
            + " | ".join(f"{rows[w][1][metric]:.3f}" for w in WORKLOADS) + " |"
        )
    lines += [
        "",
        "Wall time per job (1 / untraced jobs/s) split by each layer's "
        "share of the traced repeat, in microseconds:",
        "",
        "| | " + " | ".join(WORKLOADS) + " |",
        "|---|" + "---:|" * len(WORKLOADS),
    ]
    per_job = {w: per_job_us(*rows[w]) for w in WORKLOADS}
    for layer, _ in LAYERS + (("unattributed", None),):
        lines.append(
            f"| `{layer}` | "
            + " | ".join(f"{per_job[w][layer]:.1f}" for w in WORKLOADS) + " |"
        )
    lines.append("")
    for w in WORKLOADS:
        ranked = sorted(per_job[w].items(), key=lambda kv: -kv[1])
        top = ", ".join(f"`{layer}` {us:.0f} us" for layer, us in ranked[:3] if us > 0)
        lines.append(
            f"- **{w}**: {1e6 / rows[w][0]['jobs_per_s']:.0f} us per job; "
            f"largest: {top}."
        )
    gateway = rows["gateway-flash"][1]
    between = {layer: gateway[metric] for layer, metric in LAYERS
               if layer in ("sim", "core", "service", "cluster", "gw")}
    largest = max(between, key=between.get)
    lines += [
        "",
        f"Between `sim` and `gw` on gateway-flash the largest layer is "
        f"`{largest}` ({between[largest]:.3f} s self per repeat).",
        "",
    ]
    Path(args.output).write_text("\n".join(lines))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
