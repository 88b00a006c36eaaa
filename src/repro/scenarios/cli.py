"""``repro-scenario``: run, chaos-test, validate, list and matrix-expand specs.

Subcommands:

``run SPEC``
    Build and execute one scenario, print its summary and result
    fingerprint.  ``--set section.key=value`` applies dotted overrides
    before running; ``--dump-scenario`` prints the canonical TOML
    (post-override) instead of running.  The run-time options attach
    outputs that never change the result: ``--metrics`` and
    ``--report-every`` (service and cluster; ``--report-every`` also
    counts gateway ticks), ``--checkpoint-at``/``--checkpoint-path``
    (service), ``--serve``/``--kpi`` (gateway).  One given in another
    mode exits 2.  A shard that exhausts its restart budget under
    ``cluster.on_exhausted = "raise"`` prints a JSON error summary on
    stderr and exits 2.

    A 2-shard process cluster with a crash at t=100, recovered by the
    supervisor, progress every 250 submissions::

        repro-scenario run examples/scenarios/service.toml \\
            --set scenario.mode=cluster --set cluster.shards=2 \\
            --set faults.kind=chaos --set faults.chaos=crash:1:100 \\
            --metrics metrics.jsonl --report-every 250

``chaos SPEC``
    Run a faulted cluster or gateway spec and its fault-free twin
    (:func:`~repro.resilience.chaos.run_chaos`), print the JSON
    report, and exit 0 iff the resilience claim holds, 1 if it fails
    (2 on a spec error, a spec without faults included).  The faulted
    run keeps its WAL and checkpoints in a temporary directory unless
    the spec names ``cluster.wal_dir`` or ``cluster.checkpoint_dir``.

``validate SPEC...``
    Parse + validate specs without running anything.  Exit 0 iff all
    are valid; errors name the offending file, key and the nearest
    registered component.

``list [--kind KIND]``
    Print the component catalog (what names a spec may use).

``matrix SPEC --axis scheduler=sns,edf --axis shards=1,4`` (a cluster spec)
    Cross-product the axes over the base spec, run every cell through
    the parallel sweep runner, and print one comparison table with
    OPT-bound fractions.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro.errors import ScenarioError
from repro.scenarios.registry import REGISTRY


def parse_value(text: str) -> Any:
    """Parse a CLI value: int, float, bool, else string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def parse_sets(pairs: Sequence[str]) -> dict[str, Any]:
    """Parse ``--set section.key=value`` pairs into an override dict."""
    overrides: dict[str, Any] = {}
    for pair in pairs:
        path, sep, value = pair.partition("=")
        if not sep or not path:
            raise ScenarioError(
                f"--set expects section.key=value, got {pair!r}",
                location=pair,
            )
        overrides[path.strip()] = parse_value(value)
    return overrides


def parse_axis(text: str) -> tuple[str, list[Any]]:
    """Parse ``--axis name=v1,v2,...`` into ``(name, values)``."""
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise ScenarioError(
            f"--axis expects name=value[,value...], got {text!r}",
            location=text,
        )
    return name.strip(), [parse_value(v) for v in values.split(",")]


def _report_error(prog: str, exc: ScenarioError) -> int:
    """Print a scenario error (with its suggestions) and return exit 2."""
    print(f"{prog}: {exc}", file=sys.stderr)
    if exc.suggestions:
        print(
            f"did you mean: {', '.join(exc.suggestions)}?",
            file=sys.stderr,
        )
    return 2


def _load(path: str, overrides: dict[str, Any]):
    from repro.scenarios.spec import load_spec

    spec = load_spec(path)
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
#: run-time options of ``run``: output sinks and probes that never
#: change the result -> the modes whose run they attach to
RUN_OPTIONS = {
    "--metrics": ("service", "cluster"),
    "--report-every": ("service", "cluster", "gateway"),
    "--checkpoint-at": ("service",),
    "--checkpoint-path": ("service",),
    "--serve": ("gateway",),
    "--kpi": ("gateway",),
}


def _check_run_options(args: argparse.Namespace, mode: str) -> None:
    """An option given in a mode it does not serve is a spec error."""
    for flag, modes in RUN_OPTIONS.items():
        if getattr(args, flag[2:].replace("-", "_")) is None:
            continue
        if mode not in modes:
            raise ScenarioError(
                f"{flag} serves {'/'.join(modes)} mode; this spec "
                f"runs in {mode} mode",
                location=flag,
            )
    if args.checkpoint_path is not None and args.checkpoint_at is None:
        raise ScenarioError(
            "--checkpoint-path needs --checkpoint-at",
            location="--checkpoint-path",
        )


def _line(label: str, value: Any) -> None:
    print(f"{label + ':':<19} {value}", flush=True)


def _progress(runnable: Any, submitted: int, total: int) -> str:
    line = f"t={runnable.now:>8d}  submitted={submitted}/{total}"
    if not hasattr(runnable, "queue"):  # a cluster
        return line
    vals = runnable.metrics.values()
    return (
        f"{line}  depth={runnable.queue.depth}  "
        f"in_flight={runnable.in_flight}  "
        f"completed={int(vals.get('completed_total', 0))}  "
        f"expired={int(vals.get('expired_total', 0))}  "
        f"shed={len(runnable.shed_log)}  "
        f"profit={vals.get('profit_total', 0.0):.2f}"
    )


def _attach_stream_outputs(
    builder: Any, args: argparse.Namespace, outputs: Any
) -> None:
    """Progress lines, the checkpoint probe and a single service's
    metrics sink, on the service/cluster submission loop."""
    total = len(builder.specs)
    if args.report_every:

        def report(submitted: int, job: Any) -> None:
            if submitted and submitted % args.report_every == 0:
                line = _progress(builder.runnable, submitted, total)
                print(line, flush=True)

        builder.stream_hooks.append(report)
    if args.checkpoint_at is not None:
        done = False

        def checkpoint(submitted: int, job: Any) -> None:
            nonlocal done
            if done or job is None or job.arrival < args.checkpoint_at:
                return
            done = True
            where = builder.checkpoint_restore(args.checkpoint_path)
            service = builder.runnable
            _line(
                "checkpoint",
                f"t={service.now} restored from {where} "
                f"({service.in_flight} in flight, "
                f"depth={service.queue.depth})",
            )

        builder.stream_hooks.append(checkpoint)
    if args.metrics and builder.spec.mode == "service":
        builder.runnable.metrics.sink = outputs.enter_context(
            open(args.metrics, "w", encoding="utf-8")
        )


def _attach_gateway_outputs(
    builder: Any, args: argparse.Namespace, outputs: Any
) -> None:
    """The KPI server and the progress reporter, on the gateway's feed."""
    import threading

    feed = builder.runnable.feed
    if args.serve is not None:
        from repro.gateway.server import KpiServer

        server = KpiServer(feed, port=args.serve).start()
        outputs.callback(server.stop)
        _line("kpi feed", f"{server.url}/kpi")
    if args.report_every:
        threading.Thread(
            target=_report_ticks, args=(feed, args.report_every), daemon=True
        ).start()


def _report_ticks(feed: Any, every: int) -> None:
    """Print a progress line per ``every`` published KPI snapshots.

    Runs on its own thread consuming the feed like any other client, so
    progress reporting exercises exactly the consumer path the SSE
    server uses.
    """
    last = 0
    while True:
        events = feed.wait_for(last, timeout=0.5)
        if not events:
            if feed.closed:
                return
            continue
        for seq, snap in events:
            last = seq
            if snap.get("final") or snap["tick"] % every:
                continue
            print(
                f"tick={snap['tick']:>6d}  t={snap['sim_t']:>8d}  "
                f"shards={snap['active_shards']}  "
                f"depth={snap['queue_depth']}  "
                f"buffered={snap['buffer_depth']}  "
                f"shed={snap['shed_fraction']:.3f}  "
                f"profit={snap['profit_total']:.2f}",
                flush=True,
            )


def _abort(summary: dict, message: str) -> int:
    """A shard the run cannot continue without: the structured summary
    on stderr, one error line, exit 2."""
    json.dump(summary, sys.stderr, indent=2)
    sys.stderr.write("\n")
    print(f"error: {message}; aborting", flush=True)
    return 2


def _write_outputs(
    builder: Any, result: Any, args: argparse.Namespace
) -> None:
    """The files written after the run: metrics of a cluster (merged
    shard samples), the KPI history of a gateway, the ``-o`` summary."""
    from repro.service.telemetry import write_text_atomic

    spec = builder.spec
    if args.metrics:
        if spec.mode == "cluster":
            samples = sorted(
                (
                    {"shard": index, **sample}
                    for index, shard in enumerate(result.raw.shard_results)
                    for sample in shard.metrics.samples
                ),
                key=lambda s: (s["t"], s["shard"]),
            )
            write_text_atomic(
                args.metrics, "".join(json.dumps(s) + "\n" for s in samples)
            )
        _line("metrics written", args.metrics)
    if args.kpi:
        from repro.gateway.kpi import snapshots_to_jsonl

        # the feed keeps a bounded history; the result keeps every
        # tick's snapshot, and the feed's newest entry is the final line
        snapshots = result.raw.kpis + builder.runnable.feed.history()[-1:]
        write_text_atomic(args.kpi, snapshots_to_jsonl(snapshots))
        _line("kpi written", f"{args.kpi} ({len(snapshots)} snapshots)")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result.summary(), fh, indent=2, default=str)
            fh.write("\n")


def _print_summary(spec: Any, result: Any) -> None:
    """The result lines of every mode's summary (``label: value``)."""
    summary = result.summary()
    for key in ("total_profit", "jobs", "completed", "expired", "shed"):
        _line(key, summary[key])
    _line("end_time", summary["end_time"])
    extra = result.extra
    for key, value in sorted(extra.items()):
        if isinstance(value, (int, float, str)):
            _line(key, value)
    for event in extra.get("recoveries", []):
        _line(
            "recovery",
            f"shard {event.shard} at t={event.time} "
            f"(checkpoint t={event.checkpoint_time}, "
            f"replayed {event.replayed} submissions, "
            f"{event.wall_seconds * 1000:.1f} ms)",
        )
    for event in extra.get("supervision_events", []):
        _line(
            "supervision",
            f"shard {event.shard} {event.reason} at t={event.time} -> "
            f"{event.action} (#{event.restarts}, detect "
            f"{event.detection_seconds * 1000:.1f} ms, restart "
            f"{event.restart_seconds * 1000:.1f} ms)",
        )
    if extra.get("degraded_shards"):
        _line("degraded", f"shards {extra['degraded_shards']}")
    if spec.tracing.path:
        _line(
            "trace written",
            f"{spec.tracing.path} ({len(result.trace_events)} events)",
        )


def _cmd_run(args: argparse.Namespace) -> int:
    import contextlib

    from repro.errors import RestartBudgetExhausted, ShardFailedError
    from repro.scenarios.builder import ScenarioBuilder

    spec = _load(args.spec, parse_sets(args.set))
    if args.dump_scenario:
        sys.stdout.write(spec.to_toml())
        return 0
    _check_run_options(args, spec.mode)
    _line("scenario", f"{spec.name} [{spec.mode}] seed={spec.seed}")
    _line("spec fingerprint", spec.fingerprint())
    # a cluster's metrics log is its shards' samples, kept only for it
    builder = ScenarioBuilder(
        spec, shard_samples=bool(args.metrics) and spec.mode == "cluster"
    )
    try:
        with contextlib.ExitStack() as outputs:
            builder.setup()
            if spec.mode == "gateway":
                _attach_gateway_outputs(builder, args, outputs)
            elif spec.mode != "batch":
                _attach_stream_outputs(builder, args, outputs)
            builder.run()
    except RestartBudgetExhausted as exc:
        return _abort(
            exc.summary(),
            f"shard {exc.shard} recovery exhausted after {exc.restarts} "
            f"restarts ({exc.fault})",
        )
    except ShardFailedError as exc:
        return _abort(
            {"error": "shard-failed", "shard": exc.shard, "fault": exc.reason},
            f"shard {exc.shard} failed ({exc.reason})",
        )
    finally:
        builder.teardown()
    result = builder.collect()
    _print_summary(spec, result)
    _write_outputs(builder, result, args)
    _line("result fingerprint", result.fingerprint())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.resilience.chaos import run_chaos

    spec = _load(args.spec, parse_sets(args.set))
    if spec.cluster.wal_dir or spec.cluster.checkpoint_dir:
        report = run_chaos(spec)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
            report = run_chaos(spec, workdir=workdir)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.scenarios.spec import load_spec

    failures = 0
    for path in args.specs:
        try:
            spec = load_spec(path)
        except ScenarioError as exc:
            failures += 1
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            continue
        print(f"{path}: ok ({spec.name} [{spec.mode}] {spec.fingerprint()[:12]})")
    return 2 if failures else 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.scenarios.components import install_default_components

    install_default_components()
    if args.kind and args.kind not in REGISTRY.kinds():
        import difflib

        raise ScenarioError(
            f"unknown component kind {args.kind!r}; "
            f"known kinds: {REGISTRY.kinds()}",
            location=args.kind,
            suggestions=difflib.get_close_matches(
                args.kind, REGISTRY.kinds(), n=3, cutoff=0.4
            ),
        )
    for kind in [args.kind] if args.kind else REGISTRY.kinds():
        print(f"{kind}:")
        for name in REGISTRY.names(kind):
            component = REGISTRY.get(kind, name)
            summary = f"  {component.summary}" if component.summary else ""
            print(f"  {name:<24}{summary}".rstrip())
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.scenarios.matrix import run_matrix

    spec = _load(args.spec, parse_sets(args.set))
    axes = dict(parse_axis(a) for a in args.axis)
    if not axes:
        raise ScenarioError("matrix needs at least one --axis name=v1,v2")
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [0]
    result = run_matrix(
        spec,
        axes,
        seeds=seeds,
        workers=args.workers,
        bound_method=args.bound,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, default=str)
            fh.write("\n")
    if args.format == "markdown":
        print(result.to_markdown())
    elif args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, default=str))
    else:
        print(result.to_text())
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The ``repro-scenario`` argument parser
    (run/chaos/validate/list/matrix)."""
    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description="Declarative scenario runner for the SNS reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario spec")
    run.add_argument("spec", help="path to a .toml or .json scenario spec")
    run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a spec value (repeatable)",
    )
    run.add_argument(
        "--dump-scenario",
        action="store_true",
        help="print the canonical TOML (post-overrides) instead of running",
    )
    run.add_argument("-o", "--output", help="write the result summary JSON here")
    out = run.add_argument_group(
        "run-time outputs (never change the result; each serves only "
        "the modes named)"
    )
    out.add_argument(
        "--metrics", metavar="PATH",
        help="service, cluster: write JSONL metrics samples to PATH",
    )
    out.add_argument(
        "--report-every", type=int, metavar="N",
        help="service, cluster: a progress line every N submissions; "
        "gateway: every N ticks (default quiet)",
    )
    out.add_argument(
        "--checkpoint-at", type=int, metavar="T",
        help="service: snapshot the service before the first job "
        "arriving at or after T, restore it, and continue",
    )
    out.add_argument(
        "--checkpoint-path", metavar="PATH",
        help="service: write that snapshot to PATH (default: in memory)",
    )
    out.add_argument(
        "--serve", type=int, metavar="PORT",
        help="gateway: serve the live KPI feed over HTTP "
        "(0 = pick a free port)",
    )
    out.add_argument(
        "--kpi", metavar="PATH",
        help="gateway: write every published KPI snapshot, then the "
        "final line, to PATH as JSONL",
    )
    run.set_defaults(fn=_cmd_run)

    chaos = sub.add_parser(
        "chaos",
        help="run a faulted spec and its fault-free twin; exit 0 iff "
        "the resilience claim holds",
    )
    chaos.add_argument("spec", help="cluster or gateway spec with faults")
    chaos.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a spec value (repeatable)",
    )
    chaos.add_argument("-o", "--output", help="write the report JSON here")
    chaos.set_defaults(fn=_cmd_chaos)

    validate = sub.add_parser("validate", help="validate spec files")
    validate.add_argument("specs", nargs="+", help="spec files to check")
    validate.set_defaults(fn=_cmd_validate)

    lst = sub.add_parser("list", help="print the component catalog")
    lst.add_argument("--kind", help="only this component kind")
    lst.set_defaults(fn=_cmd_list)

    matrix = sub.add_parser(
        "matrix", help="run a cross-product of axis overrides"
    )
    matrix.add_argument("spec", help="base scenario spec")
    matrix.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="axis to expand (shorthand or dotted path; repeatable)",
    )
    matrix.add_argument(
        "--seeds", default="0", help="comma-separated seeds (default 0)"
    )
    matrix.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep workers (default: REPRO_SWEEP_WORKERS, else serial)",
    )
    matrix.add_argument(
        "--bound",
        default="feasible",
        choices=["feasible", "lp", "milp"],
        help="OPT bound method for frac_of_bound (default feasible)",
    )
    matrix.add_argument(
        "--format",
        default="text",
        choices=["text", "markdown", "json"],
        help="table output format",
    )
    matrix.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="base-spec override applied before expansion (repeatable)",
    )
    matrix.add_argument("-o", "--output", help="write the full matrix JSON here")
    matrix.set_defaults(fn=_cmd_matrix)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; scenario errors exit 2 with a did-you-mean hint."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        return _report_error("scenario error", exc)


if __name__ == "__main__":
    raise SystemExit(main())
