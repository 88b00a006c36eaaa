"""``repro-scenario``: run, chaos-test, validate, list and matrix-expand specs.

Subcommands:

``run SPEC``
    Build and execute one scenario, print its summary and result
    fingerprint.  ``--set section.key=value`` applies dotted overrides
    before running; ``--dump-scenario`` prints the canonical TOML
    (post-override) instead of running.

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

``matrix SPEC --axis scheduler=sns,edf --axis shards=1,4``
    Cross-product the axes over the base spec, run every cell through
    the parallel sweep runner, and print one comparison table with
    OPT-bound fractions.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Optional, Sequence

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


def spec_flag(
    group, flag: str, path: str, help: str, **kwargs: Any
) -> argparse.Action:
    """Add ``flag`` to ``group`` as a setter of the dotted spec ``path``.

    Type and default come from the spec field (a bool field becomes a
    ``store_true`` switch); ``kwargs`` may override either.  The parsed
    value lands under ``path`` in the namespace, where
    :func:`flag_overrides` collects it, and the help text names the
    path, so ``--help`` doubles as the flag -> spec table.
    """
    from repro.scenarios.spec import ScenarioSpec

    section, key = path.split(".")
    default = ScenarioSpec().to_dict()[section][key]
    kwargs.setdefault("default", default)
    if isinstance(default, bool):
        kwargs.setdefault("action", "store_true")
    else:
        kwargs.setdefault("type", type(default))
    if "choices" not in kwargs and kwargs.get("action") != "store_true":
        kwargs.setdefault(
            "metavar", flag.lstrip("-").replace("-", "_").upper()
        )
    return group.add_argument(
        flag, dest=path, help=f"{help} [{path}]", **kwargs
    )


def flag_overrides(args: argparse.Namespace) -> dict[str, Any]:
    """Collect the ``{dotted.path: value}`` overrides of spec flags."""
    return {key: value for key, value in vars(args).items() if "." in key}


def _report_error(prog: str, exc: ScenarioError) -> int:
    """Print a scenario error (with its suggestions) and return exit 2."""
    print(f"{prog}: {exc}", file=sys.stderr)
    if exc.suggestions:
        print(
            f"did you mean: {', '.join(exc.suggestions)}?",
            file=sys.stderr,
        )
    return 2


def run_flags(
    prog: str,
    args: argparse.Namespace,
    to_spec: Callable[[argparse.Namespace], Any],
    drivers: dict[str, Callable[[Any, argparse.Namespace], int]],
) -> int:
    """The ``main`` of a serving CLI: flags -> spec -> builder -> driver.

    ``--scenario`` runs a spec file instead of the flags.  Otherwise
    ``to_spec`` maps the flags onto a spec (a :class:`ScenarioError`
    exits 2), ``--dump-scenario`` prints it, and the spec's mode picks
    the driver that attaches the CLI's outputs to the built runnable
    and drives it; teardown is guaranteed.
    """
    from repro.scenarios.builder import ScenarioBuilder

    if args.scenario:
        return main(["run", args.scenario])
    try:
        spec = to_spec(args)
    except ScenarioError as exc:
        return _report_error(prog, exc)
    if args.dump_scenario:
        sys.stdout.write(spec.to_toml())
        return 0
    builder = ScenarioBuilder(spec).setup()
    try:
        return drivers[spec.mode](builder, args)
    finally:
        builder.teardown()


def _load(path: str, overrides: dict[str, Any]):
    from repro.scenarios.spec import load_spec

    spec = load_spec(path)
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios.builder import ScenarioBuilder

    spec = _load(args.spec, parse_sets(args.set))
    if args.dump_scenario:
        sys.stdout.write(spec.to_toml())
        return 0
    result = ScenarioBuilder(spec).execute()
    summary = result.summary()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2, default=str)
            fh.write("\n")
    print(f"scenario          {spec.name} [{spec.mode}] seed={spec.seed}")
    print(f"spec fingerprint  {spec.fingerprint()}")
    for key in ("total_profit", "jobs", "completed", "expired", "shed", "end_time"):
        if key in summary:
            print(f"{key:<17} {summary[key]}")
    for key, value in sorted(result.extra.items()):
        if isinstance(value, (int, float, str)):
            print(f"{key:<17} {value}")
    if spec.tracing.path:
        print(
            f"trace written     {spec.tracing.path} "
            f"({len(result.trace_events)} events)"
        )
    print(f"result fingerprint {result.fingerprint()}")
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
