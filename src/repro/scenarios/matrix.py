"""Matrix runs: axis overrides x seeds -> one comparison table.

``repro-scenario matrix`` takes a base spec plus axes like
``scheduler=sns,edf,nonclairvoyant workload=overload,diurnal
shards=1,4`` (``shards`` over a cluster-mode spec) and runs the full
cross product through the existing parallel sweep runner
(:func:`repro.analysis.sweep.sweep_values`), so matrix expansion
inherits the sweep's guarantees: cells are keyed by
task order and each cell sees exactly the same ``(point, seed)`` pair
serially and in parallel -- a 2-worker matrix run is cell-for-cell
identical to the serial expansion.

Each cell also computes an OPT upper bound on its own workload
(:func:`repro.analysis.opt.opt_bound`) and reports the achieved
fraction, so the table reads as an empirical competitive-ratio
comparison, not just raw profits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.analysis.stats import Aggregate
from repro.errors import ScenarioError
from repro.scenarios.builder import ScenarioBuilder, build_workload
from repro.scenarios.spec import ScenarioSpec

#: Bare axis name -> dotted spec path.  ``workload=`` takes
#: workload-preset names; anything already dotted passes through.
AXIS_SHORTHANDS: dict[str, str] = {
    "scheduler": "scheduler.name",
    "workload": "workload.preset",
    "shards": "cluster.shards",
    "router": "cluster.router",
    "picker": "engine.picker",
    "family": "workload.family",
    "load": "workload.load",
    "epsilon": "workload.epsilon",
    "mode": "scenario.mode",
    "policy": "service.shed_policy",
    "clock": "gateway.clock",
}

#: The hidden grid axis carrying the base spec into worker processes.
_SPEC_AXIS = "__base_spec__"


def resolve_axis(name: str) -> str:
    """Expand an axis shorthand to its dotted spec path."""
    if "." in name:
        return name
    try:
        return AXIS_SHORTHANDS[name]
    except KeyError:
        import difflib

        suggestions = difflib.get_close_matches(
            name, list(AXIS_SHORTHANDS), n=3, cutoff=0.4
        )
        hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
        raise ScenarioError(
            f"unknown matrix axis {name!r}{hint} shorthands: "
            f"{sorted(AXIS_SHORTHANDS)} (or any dotted spec path)",
            location=name,
            suggestions=suggestions,
        ) from None


def expand_matrix(
    base: ScenarioSpec, axes: Mapping[str, Sequence[Any]]
) -> list[tuple[dict[str, Any], ScenarioSpec]]:
    """Cross-product the axes into ``(point, spec)`` pairs.

    Every spec is fully validated; an invalid combination fails here,
    before anything runs.
    """
    from repro.analysis.sweep import grid_points

    resolved = {resolve_axis(k): list(v) for k, v in axes.items()}
    return [
        (point, base.with_overrides(dict(point)))
        for point in grid_points(resolved)
    ]


def _matrix_point(point: dict, seed: int) -> dict:
    """Run one matrix cell (module-level: picklable for worker pools)."""
    point = dict(point)
    base = ScenarioSpec.from_dict(json.loads(point.pop(_SPEC_AXIS)))
    bound_method = point.pop("__bound_method__", None) or "feasible"
    overrides: dict[str, Any] = dict(point)
    overrides["scenario.seed"] = seed
    spec = base.with_overrides(overrides)
    result = ScenarioBuilder(spec).execute()
    from repro.analysis.opt import opt_bound

    bound = opt_bound(
        build_workload(spec), spec.workload.m, method=bound_method
    )
    completed = sum(
        1 for r in result.records.values() if r.completion_time is not None
    )
    return {
        "profit": result.total_profit,
        "bound": bound,
        "fraction": result.total_profit / bound if bound > 0 else 1.0,
        "completed": completed,
        "shed": result.num_shed,
        "end_time": result.end_time,
        "fingerprint": result.fingerprint(),
    }


@dataclass
class MatrixCell:
    """One grid point's replicated outcomes."""

    #: axis name -> value (shorthand keys, as the user wrote them)
    point: dict[str, Any]
    #: per-seed cell outputs, in seed order
    values: list[dict]

    @property
    def profit(self) -> Aggregate:
        return Aggregate.of([v["profit"] for v in self.values])

    @property
    def fraction_of_bound(self) -> Aggregate:
        return Aggregate.of([v["fraction"] for v in self.values])


@dataclass
class MatrixResult:
    """A finished matrix run: the expanded table plus its inputs."""

    base: ScenarioSpec
    axes: dict[str, list]
    seeds: list[int]
    cells: list[MatrixCell]
    extra: dict = field(default_factory=dict)

    def headers(self) -> list[str]:
        """Column names: one per axis, then the aggregate metrics."""
        return list(self.axes) + [
            "profit",
            "frac_of_bound",
            "completed",
            "shed",
        ]

    def rows(self) -> list[list[Any]]:
        """One seed-averaged row per cell, in expansion order."""
        rows = []
        for cell in self.cells:
            profit = cell.profit
            fraction = cell.fraction_of_bound
            completed = Aggregate.of(
                [v["completed"] for v in cell.values]
            ).mean
            shed = Aggregate.of([v["shed"] for v in cell.values]).mean
            rows.append(
                [cell.point[axis] for axis in self.axes]
                + [
                    round(profit.mean, 4),
                    round(fraction.mean, 4),
                    round(completed, 1),
                    round(shed, 1),
                ]
            )
        return rows

    def to_text(self) -> str:
        """Aligned comparison table."""
        headers = [str(h) for h in self.headers()]
        rows = [[str(v) for v in row] for row in self.rows()]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(
                "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """The comparison table as a GitHub-flavored markdown table."""
        headers = [str(h) for h in self.headers()]
        lines = [
            "| " + " | ".join(headers) + " |",
            "| " + " | ".join("---" for _ in headers) + " |",
        ]
        for row in self.rows():
            lines.append("| " + " | ".join(str(v) for v in row) + " |")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible dump (the CLI's ``-o`` artifact)."""
        return {
            "base": self.base.to_dict(),
            "axes": self.axes,
            "seeds": self.seeds,
            "cells": [
                {"point": cell.point, "values": cell.values}
                for cell in self.cells
            ],
        }


def run_matrix(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    seeds: Sequence[int] = (0,),
    workers: Optional[int] = None,
    bound_method: str = "feasible",
) -> MatrixResult:
    """Expand and run the matrix through the parallel sweep runner.

    ``workers`` defers to :func:`repro.analysis.sweep.resolve_workers`
    (the ``REPRO_SWEEP_WORKERS`` environment variable, else serial);
    results are identical for any worker count.
    """
    from repro.analysis.sweep import sweep_values

    # validate the expansion up front (cheap, fails fast) ...
    expand_matrix(base, axes)
    # ... then route the flat grid through the sweep runner
    resolved = {resolve_axis(k): list(v) for k, v in axes.items()}
    grid = dict(resolved)
    grid[_SPEC_AXIS] = [
        json.dumps(base.to_dict(), sort_keys=True, separators=(",", ":"))
    ]
    if bound_method != "feasible":
        grid["__bound_method__"] = [bound_method]
    raw = sweep_values(_matrix_point, grid, list(seeds), workers=workers)
    shorthand_keys = list(axes)
    resolved_keys = [resolve_axis(k) for k in axes]
    cells = []
    for point, values in raw:
        display = {
            short: point[path]
            for short, path in zip(shorthand_keys, resolved_keys)
        }
        cells.append(MatrixCell(point=display, values=values))
    return MatrixResult(
        base=base,
        axes={k: list(v) for k, v in axes.items()},
        seeds=list(seeds),
        cells=cells,
    )
