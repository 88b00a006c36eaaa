"""``repro-trace`` -- summarize, filter, convert and validate traces.

Operates on trace files produced by a scenario with ``[tracing]``
enabled and a ``path`` set (``repro-scenario run``), or by
``run_bench --trace`` (JSONL) and on the Chrome trace-event exports
this tool itself produces.  Input format is sniffed from the file
contents, so every subcommand accepts either format.

Subcommands::

    repro-trace summarize trace.jsonl
    repro-trace filter trace.jsonl --kind completion --shard 0 -o out.jsonl
    repro-trace convert trace.jsonl --to chrome -o trace.chrome.json
    repro-trace validate trace.jsonl        # exit 1 on violations
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.observability.export import (
    event_to_dict,
    from_chrome,
    read_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.observability.spans import (
    TERMINAL_KINDS,
    build_spans,
    machine_intervals,
    recompute_profit,
    recompute_profit_by_shard,
    submitted_ids,
    validate_trace,
)


def load_trace(path: str) -> list[tuple]:
    """Load a trace file, sniffing JSONL vs Chrome trace-event format.

    A Chrome export is one (typically multi-line, pretty-printed or
    not) JSON document with a ``traceEvents`` key; a JSONL trace is one
    JSON object *per line*.  Both start with ``{``, so sniffing the
    first byte is not enough: try the whole file as a single document
    first and fall back to line-by-line parsing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return read_jsonl(path)
    if isinstance(document, dict) and "traceEvents" in document:
        return from_chrome(document)
    # a one-line JSONL file parses as a single record
    return read_jsonl(path)


def summarize_trace(events: Sequence[tuple]) -> dict:
    """Aggregate one trace into a JSON-compatible summary dict."""
    kinds: dict[str, int] = {}
    shards: dict[str, int] = {}
    t_min: Optional[int] = None
    t_max: Optional[int] = None
    for ev in events:
        _seq, shard, t, kind, _job, _data = ev
        kinds[kind] = kinds.get(kind, 0) + 1
        key = "cluster" if shard is None else f"shard_{shard}"
        shards[key] = shards.get(key, 0) + 1
        if t_min is None or t < t_min:
            t_min = t
        if t_max is None or t > t_max:
            t_max = t
    spans = build_spans(events)
    terminals: dict[str, int] = {}
    for span in spans.values():
        if span.terminal is not None:
            terminals[span.terminal] = terminals.get(span.terminal, 0) + 1
    by_shard = recompute_profit_by_shard(events)
    return {
        "events": len(events),
        "jobs": len(spans),
        "submitted": len(submitted_ids(events)),
        "time_range": [t_min, t_max],
        "kinds": dict(sorted(kinds.items())),
        "by_shard": dict(sorted(shards.items())),
        "terminals": dict(sorted(terminals.items())),
        "profit": recompute_profit(events),
        "profit_by_shard": {
            ("cluster" if shard is None else f"shard_{shard}"): profit
            for shard, profit in sorted(
                by_shard.items(), key=lambda kv: (kv[0] is not None, kv[0])
            )
        },
        "machines": len(machine_intervals(events)),
    }


def _cmd_summarize(args: argparse.Namespace) -> int:
    events = load_trace(args.trace)
    print(json.dumps(summarize_trace(events), indent=2))
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    events = load_trace(args.trace)
    kinds = set(args.kind) if args.kind else None
    jobs = set(args.job) if args.job else None
    shards = set(args.shard) if args.shard else None
    selected = [
        ev
        for ev in events
        if (kinds is None or ev[3] in kinds)
        and (jobs is None or ev[4] in jobs)
        and (shards is None or ev[1] in shards)
    ]
    if args.output:
        count = write_jsonl(selected, args.output)
        print(f"wrote {count} of {len(events)} events to {args.output}")
    else:
        for ev in selected:
            print(json.dumps(event_to_dict(ev)))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    events = load_trace(args.trace)
    if args.to == "chrome":
        count = write_chrome(events, args.output)
    else:
        count = write_jsonl(events, args.output)
    print(f"wrote {count} events to {args.output} ({args.to})")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    events = load_trace(args.trace)
    problems = validate_trace(events)
    spans = build_spans(events)
    closed = sum(
        1 for span in spans.values() if len(span.terminal_events) == 1
    )
    print(
        f"{args.trace}: {len(events)} events, {len(spans)} jobs, "
        f"{closed} closed spans"
    )
    if problems:
        for problem in problems:
            print(f"VIOLATION: {problem}", file=sys.stderr)
        print(f"{len(problems)} violation(s)", file=sys.stderr)
        return 1
    print("ok: all trace invariants hold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-trace`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Summarize, filter, convert and validate repro trace files "
            "(JSONL or Chrome trace-event)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize", help="print an aggregate summary of one trace"
    )
    p_sum.add_argument("trace", help="trace file (JSONL or Chrome)")
    p_sum.set_defaults(func=_cmd_summarize)

    p_filter = sub.add_parser(
        "filter", help="select events by kind / job / shard"
    )
    p_filter.add_argument("trace", help="trace file (JSONL or Chrome)")
    p_filter.add_argument(
        "--kind",
        action="append",
        choices=sorted(
            set(TERMINAL_KINDS)
            | {
                "arrival", "admission", "decision", "slice", "submit",
                "release", "route", "checkpoint", "recovery",
                "supervision", "migrate", "steal",
            }
        ),
        help="keep only this event kind (repeatable)",
    )
    p_filter.add_argument(
        "--job", action="append", type=int,
        help="keep only this job id (repeatable)",
    )
    p_filter.add_argument(
        "--shard", action="append", type=int,
        help="keep only this shard index (repeatable)",
    )
    p_filter.add_argument(
        "-o", "--output", help="write JSONL here instead of stdout"
    )
    p_filter.set_defaults(func=_cmd_filter)

    p_conv = sub.add_parser(
        "convert", help="convert between JSONL and Chrome trace-event"
    )
    p_conv.add_argument("trace", help="trace file (JSONL or Chrome)")
    p_conv.add_argument(
        "--to", choices=("chrome", "jsonl"), required=True,
        help="target format",
    )
    p_conv.add_argument("-o", "--output", required=True, help="output path")
    p_conv.set_defaults(func=_cmd_convert)

    p_val = sub.add_parser(
        "validate", help="check trace-completeness invariants (exit 1 on "
        "violations)"
    )
    p_val.add_argument("trace", help="trace file (JSONL or Chrome)")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-trace`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. ``repro-trace summarize ... | head``
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
