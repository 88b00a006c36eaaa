"""Upper and lower bounds on the clairvoyant optimal schedule (OPT).

Exactly computing OPT for DAG jobs with deadlines on ``m`` machines is
intractable, so competitive ratios are reported against bounds:

* :func:`interval_lp_upper_bound` -- an LP relaxation: fractional job
  selection with work conservation over elementary time intervals and
  machine-capacity constraints.  Every feasible schedule satisfies its
  constraints, so the LP optimum is a valid *upper* bound on OPT's
  profit; measured competitive ratios are therefore conservative
  (pessimistic for the algorithm under test).
* :func:`feasible_profit_bound` -- the cruder bound: the profit of all
  jobs that are individually feasible (``D >= max(L, W/m)``).
* :func:`best_effort_lower_bound` -- constructive *lower* bound: the
  best profit achieved by a portfolio of schedulers with clairvoyant
  node picking.  OPT is somewhere between the two.

The general-profit setting reduces to the LP by enumerating the pieces
of each profit function: completing "by the end of piece k" is a job
variant worth that piece's profit, and OPT picks at most one variant
per job.

scipy is imported by the two LP functions on their first call, not by
this module: nothing on the scheduling path solves an LP, and the
import alone costs tens of MB in every process that loads
:mod:`repro`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.profit.functions import ProfitFunction, Staircase, StepProfit
from repro.sim.jobs import JobSpec


@dataclass(frozen=True)
class _Variant:
    """One (job, deadline, profit) choice offered to the LP."""

    job_index: int
    release: int
    deadline: int
    work: float
    span: float
    profit: float


def _spec_variants(
    spec: JobSpec, job_index: int, m: int, pieces: int = 6
) -> list[_Variant]:
    """Enumerate deadline variants of a job for the LP."""
    if spec.deadline is not None:
        return [
            _Variant(
                job_index,
                spec.arrival,
                spec.deadline,
                spec.work,
                spec.span,
                spec.profit,
            )
        ]
    fn = spec.profit_fn
    assert fn is not None
    min_time = math.ceil(max(spec.span, spec.work / m))
    candidates = _profit_deadlines(fn, min_time, pieces)
    variants = []
    for rel in candidates:
        profit = float(fn(rel))
        if profit <= 0:
            continue
        variants.append(
            _Variant(
                job_index,
                spec.arrival,
                spec.arrival + rel,
                spec.work,
                spec.span,
                profit,
            )
        )
    return variants


def _profit_deadlines(fn: ProfitFunction, min_time: int, pieces: int) -> list[int]:
    """Candidate relative deadlines covering the profit function's range."""
    candidates: set[int] = set()
    knee = max(min_time, math.floor(fn.x_star))
    candidates.add(knee)
    if isinstance(fn, StepProfit):
        pass  # knee is everything
    elif isinstance(fn, Staircase):
        for bt, _ in fn.levels:
            candidates.add(max(min_time, math.floor(bt)))
    else:
        horizon = fn.horizon(fn.peak * 0.01)
        if not math.isfinite(horizon):
            horizon = 4.0 * max(knee, 1)
        horizon = max(horizon, knee + 1)
        for frac in np.linspace(0.0, 1.0, pieces):
            candidates.add(max(min_time, math.floor(knee + frac * (horizon - knee))))
    return sorted(candidates)


@dataclass
class _IntervalProgram:
    """The shared (MI)LP: selection variables then work variables."""

    c: "np.ndarray"
    a_eq: "scipy.sparse.coo_matrix"
    b_eq: "np.ndarray"
    a_ub: Optional["scipy.sparse.coo_matrix"]
    b_ub: Optional["np.ndarray"]
    n_selection: int
    n_cols: int


def _build_interval_program(
    specs: Sequence[JobSpec], m: int, pieces: int = 6
) -> Optional[_IntervalProgram]:
    """Construct the interval program shared by the LP and MILP bounds.

    Variables: per variant ``v`` a selection ``z_v in [0, 1]`` and per
    (variant, elementary interval) the work ``y_{v,k} >= 0`` done there.
    Constraints: selected work adds up (``sum_k y = W z``), intervals
    respect machine capacity, at most one variant per job, and variants
    whose window is below ``max(L, W/m)`` are dropped (no schedule can
    finish them).  Returns ``None`` when no variant survives.
    """
    import scipy.sparse

    variants: list[_Variant] = []
    for i, spec in enumerate(specs):
        for var in _spec_variants(spec, i, m, pieces):
            window = var.deadline - var.release
            if window + 1e-9 < max(var.span, var.work / m):
                continue
            variants.append(var)
    if not variants:
        return None

    points = sorted(
        {v.release for v in variants} | {v.deadline for v in variants}
    )
    intervals = [
        (a, b) for a, b in zip(points, points[1:]) if b > a
    ]
    interval_index = {iv: k for k, iv in enumerate(intervals)}

    # Variable layout: [z_0..z_{V-1}, y...]; record each y column's
    # owning variant and interval as we number them.
    n_var = len(variants)
    variant_cols: list[list[int]] = [[] for _ in variants]
    interval_cols: list[list[int]] = [[] for _ in intervals]
    next_col = n_var
    for vi, var in enumerate(variants):
        for iv in intervals:
            if var.release <= iv[0] and iv[1] <= var.deadline:
                variant_cols[vi].append(next_col)
                interval_cols[interval_index[iv]].append(next_col)
                next_col += 1
    n_cols = next_col

    rows_eq: list[int] = []
    cols_eq: list[int] = []
    vals_eq: list[float] = []
    # (1) sum_k y_{v,k} - W_v z_v = 0
    for vi, var in enumerate(variants):
        for col in variant_cols[vi]:
            rows_eq.append(vi)
            cols_eq.append(col)
            vals_eq.append(1.0)
        rows_eq.append(vi)
        cols_eq.append(vi)
        vals_eq.append(-var.work)
    a_eq = scipy.sparse.coo_matrix(
        (vals_eq, (rows_eq, cols_eq)), shape=(n_var, n_cols)
    )
    b_eq = np.zeros(n_var)

    rows_ub: list[int] = []
    cols_ub: list[int] = []
    vals_ub: list[float] = []
    b_ub: list[float] = []
    row = 0
    # (2) capacity per interval
    for k, (a, b) in enumerate(intervals):
        cols = interval_cols[k]
        if not cols:
            continue
        for col in cols:
            rows_ub.append(row)
            cols_ub.append(col)
            vals_ub.append(1.0)
        b_ub.append(m * (b - a))
        row += 1
    # (3) at most one variant per job
    by_job: dict[int, list[int]] = {}
    for vi, var in enumerate(variants):
        by_job.setdefault(var.job_index, []).append(vi)
    for job_variants in by_job.values():
        if len(job_variants) == 1:
            continue  # z <= 1 bound suffices
        for vi in job_variants:
            rows_ub.append(row)
            cols_ub.append(vi)
            vals_ub.append(1.0)
        b_ub.append(1.0)
        row += 1
    a_ub = (
        scipy.sparse.coo_matrix(
            (vals_ub, (rows_ub, cols_ub)), shape=(row, n_cols)
        )
        if row
        else None
    )

    c = np.zeros(n_cols)
    for vi, var in enumerate(variants):
        c[vi] = -var.profit  # minimization form

    return _IntervalProgram(
        c=c,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub) if row else None,
        n_selection=n_var,
        n_cols=n_cols,
    )


def interval_lp_upper_bound(
    specs: Sequence[JobSpec], m: int, pieces: int = 6
) -> float:
    """LP-relaxation upper bound on OPT's total profit (speed 1).

    See :func:`_build_interval_program` for the formulation.  Every
    feasible schedule satisfies the constraints, so the LP optimum is a
    valid upper bound on OPT.
    """
    import scipy.optimize

    program = _build_interval_program(specs, m, pieces)
    if program is None:
        return 0.0
    bounds = [(0.0, 1.0)] * program.n_selection + [(0.0, None)] * (
        program.n_cols - program.n_selection
    )
    result = scipy.optimize.linprog(
        program.c,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"OPT LP failed: {result.message}")
    return float(-result.fun)


def interval_milp_upper_bound(
    specs: Sequence[JobSpec], m: int, pieces: int = 6
) -> float:
    """Integral (MILP) variant of the interval bound: selection
    variables are binary, so jobs cannot be fractionally completed.

    Strictly tighter than :func:`interval_lp_upper_bound` (still an
    upper bound on OPT -- the work variables remain continuous and
    migration/precedence are still relaxed).  Exponential worst case;
    intended for small/medium instances where tighter ratios matter.
    """
    import scipy.optimize

    program = _build_interval_program(specs, m, pieces)
    if program is None:
        return 0.0
    integrality = np.zeros(program.n_cols)
    integrality[: program.n_selection] = 1  # z binary
    lower = np.zeros(program.n_cols)
    upper = np.full(program.n_cols, np.inf)
    upper[: program.n_selection] = 1.0
    constraints = [
        scipy.optimize.LinearConstraint(
            program.a_eq, program.b_eq, program.b_eq
        )
    ]
    if program.a_ub is not None:
        constraints.append(
            scipy.optimize.LinearConstraint(
                program.a_ub, -np.inf, program.b_ub
            )
        )
    result = scipy.optimize.milp(
        program.c,
        constraints=constraints,
        integrality=integrality,
        bounds=scipy.optimize.Bounds(lower, upper),
    )
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"OPT MILP failed: {result.message}")
    return float(-result.fun)


def feasible_profit_bound(specs: Sequence[JobSpec], m: int) -> float:
    """Sum of profits of individually feasible jobs -- a crude but very
    fast upper bound on OPT."""
    total = 0.0
    for spec in specs:
        if spec.deadline is not None:
            window = spec.deadline - spec.arrival
            if window + 1e-9 >= max(spec.span, spec.work / m):
                total += spec.profit
        else:
            fn = spec.profit_fn
            assert fn is not None
            min_time = math.ceil(max(spec.span, spec.work / m))
            total += float(fn(min_time))
    return total


def best_effort_lower_bound(
    specs: Sequence[JobSpec],
    m: int,
    seed: int = 0,
) -> float:
    """Constructive lower bound on OPT: best profit over a clairvoyant
    scheduler portfolio (EDF / greedy density / FIFO, critical-path
    node picking, speed 1)."""
    from repro.baselines import FIFOScheduler, GlobalEDF, GreedyDensity
    from repro.sim.engine import Simulator
    from repro.sim.picker import CriticalPathPicker

    best = 0.0
    for factory in (
        lambda: GlobalEDF(skip_hopeless=True),
        GreedyDensity,
        FIFOScheduler,
    ):
        sim = Simulator(m=m, scheduler=factory(), picker=CriticalPathPicker())
        best = max(best, sim.run(list(specs)).total_profit)
    return best


def opt_bound(
    specs: Sequence[JobSpec],
    m: int,
    method: str = "lp",
    pieces: int = 6,
) -> float:
    """Dispatch: ``"milp"`` (tightest, exponential worst case), ``"lp"``
    (tight, polynomial) or ``"feasible"`` (fast, crude)."""
    if method == "milp":
        return interval_milp_upper_bound(specs, m, pieces=pieces)
    if method == "lp":
        return interval_lp_upper_bound(specs, m, pieces=pieces)
    if method == "feasible":
        return feasible_profit_bound(specs, m)
    raise ValueError(f"unknown OPT bound method {method!r}")
