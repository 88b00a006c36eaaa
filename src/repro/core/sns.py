"""Scheduler **S** -- the paper's semi-non-clairvoyant throughput
algorithm (Section 3.1).

On arrival of job :math:`J_i` with work :math:`W_i`, span :math:`L_i`,
relative deadline :math:`D_i` and profit :math:`p_i`, the scheduler
computes once and for all:

* allotment :math:`n_i = (W_i - L_i)/(D_i/(1+2\\delta) - L_i)` --
  (approximately) the fewest dedicated processors completing the job by
  :math:`D_i/(1+2\\delta)`;
* virtual execution time :math:`x_i = (W_i - L_i)/n_i + L_i` --
  Observation 2's bound on the dedicated-processor completion time;
* density :math:`v_i = p_i/(x_i n_i)` -- profit per processor-step.

Jobs live in two density-ordered queues: **Q** (started) and **P**
(parked).  An arriving job enters Q iff it is :math:`\\delta`-good
(:math:`D_i \\ge (1+2\\delta)x_i`) and the band condition (2) holds;
otherwise it parks in P.  On every job completion, P is scanned in
density order and :math:`\\delta`-fresh jobs (:math:`d_i - t \\ge
(1+\\delta)x_i`) are promoted while condition (2) allows.  Each time
step, Q is scanned in density order and each job receives *exactly*
:math:`n_i` processors if that many are free (jobs are never given more
or fewer -- the algorithm is deliberately not work-conserving; see the
paper's remark and the ablations in :mod:`repro.baselines.ablations`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.bands import DensityBands
from repro.core.theory import Constants
from repro.errors import SchedulingError
from repro.sim.jobs import JobView
from repro.sim.scheduler import SchedulerBase


@dataclass(slots=True)
class SNSJobState:
    """Per-job quantities S computes at arrival and never changes.

    Slotted: the promote scan touches several fields of every parked
    job at every completion, and slot reads skip the instance dict.
    An entry outlives its job in ``SNSScheduler.all_states``; when the
    job leaves Q or P its :attr:`view` is set to ``None`` and only the
    numbers stay.
    """

    #: the job's view while it is in Q or P; ``None`` once it left
    #: (completed, expired or extracted), so a finished job's entry
    #: keeps no engine object alive
    view: Optional[JobView]
    #: integral allotment n_i
    allotment: int
    #: virtual execution time x_i
    x: float
    #: density v_i = p_i / (x_i n_i)
    density: float
    #: whether condition (1) (delta-goodness) held at arrival
    delta_good: bool
    #: the paper's real-valued allotment before rounding (diagnostics)
    allotment_real: float = 0.0
    #: the job's id, cached off the view (``allocate`` reads it on every
    #: engine decision; the two-hop property chain showed up in profiles)
    job_id: int = field(init=False)
    #: absolute deadline, cached off the view (the promote scan reads it
    #: for every parked job at every completion)
    deadline: Optional[int] = field(init=False)

    def __post_init__(self) -> None:
        self.job_id = self.view.job_id
        self.deadline = self.view.deadline


class _DensityQueue:
    """Jobs ordered by density descending (ties by id), O(log n) updates."""

    def __init__(self) -> None:
        # sorted ascending by (-density, job_id) == descending density
        self._keys: list[tuple[float, int]] = []
        self._states: dict[int, SNSJobState] = {}

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._states

    def add(self, state: SNSJobState) -> None:
        if state.job_id in self._states:
            raise SchedulingError(f"job {state.job_id} already queued")
        bisect.insort(self._keys, (-state.density, state.job_id))
        self._states[state.job_id] = state

    def remove(self, job_id: int) -> SNSJobState:
        state = self._states.pop(job_id)
        pos = bisect.bisect_left(self._keys, (-state.density, job_id))
        assert self._keys[pos] == (-state.density, job_id)
        del self._keys[pos]
        return state

    def get(self, job_id: int) -> Optional[SNSJobState]:
        return self._states.get(job_id)

    def by_density_desc(self) -> list[SNSJobState]:
        return [self._states[job_id] for _, job_id in self._keys]


class SNSScheduler(SchedulerBase):
    """The paper's scheduler S for jobs with deadlines and profits.

    Parameters
    ----------
    epsilon:
        Slack parameter of Theorem 2.  Constants ``delta``, ``c``, ``b``
        derive from it (see :class:`~repro.core.theory.Constants`).
    constants:
        Pass explicitly to override the derivation.

    Notes
    -----
    *Rounding.* The paper treats ``n_i`` as a real number; processors
    are integral, so we use ``ceil`` clamped to ``[1, m]``.  Under
    Theorem 2's assumption the unclamped value is below ``b^2 m``
    (Lemma 1).

    *Events.*  Jobs are admitted to Q only at arrivals and completions,
    exactly as in the paper; deadline expiries merely clean up state.
    """

    def __init__(
        self,
        epsilon: float = 1.0,
        constants: Optional[Constants] = None,
    ) -> None:
        self.constants = (
            constants if constants is not None else Constants.from_epsilon(epsilon)
        )
        self.queue_started = _DensityQueue()  # the paper's Q
        self.queue_parked = _DensityQueue()  # the paper's P
        self.bands = DensityBands()  # allotments of jobs in Q
        #: diagnostics: ids of every job ever admitted to Q (the set R)
        self.started_ids: set[int] = set()
        #: diagnostics: per-job state for every arrival (kept post-mortem)
        self.all_states: dict[int, SNSJobState] = {}
        # Memo of the last allocation: the density scan's result only
        # depends on Q's content, so it stays valid until Q changes.
        # Invalidated by _start, the removes, and restore_state.
        self._alloc_cache: Optional[dict[int, int]] = None

    # ------------------------------------------------------------------
    # State computation (arrival-time, per the paper)
    # ------------------------------------------------------------------
    def compute_state(self, job: JobView) -> SNSJobState:
        """Compute ``(n_i, x_i, v_i)`` and delta-goodness for a job.

        Work and span are divided by the machine speed: with
        augmentation ``s`` a job behaves like one whose every node is
        ``s`` times smaller, which is exactly how Corollary 1's proof
        transforms the instance.  At speed 1 this is a no-op.
        """
        rel_deadline = job.relative_deadline
        if rel_deadline is None:
            raise SchedulingError(
                "SNSScheduler requires deadline jobs; use GeneralProfitScheduler "
                "for profit-function jobs"
            )
        consts = self.constants
        work = job.work / self.speed
        span = job.span / self.speed
        # Inlined Constants.allotment_real / allotment / execution_bound
        # / density / is_delta_good -- identical expressions, evaluated
        # once instead of across five method calls (this runs for every
        # arrival and showed up in profiles at 800-job scale).
        one_plus_2delta = 1.0 + 2.0 * consts.delta
        if work <= span + 1e-12:
            real = 0.0
        else:
            denom = rel_deadline / one_plus_2delta - span
            real = (work - span) / denom if denom > 0 else math.inf
        m = self.m
        if math.isinf(real):
            n = m
        else:
            n = max(1, min(m, math.ceil(real - 1e-12)))
        x = (work - span) / n + span
        density = job.profit / (x * n)
        good = rel_deadline >= one_plus_2delta * x - 1e-9
        return SNSJobState(
            view=job,
            allotment=n,
            x=x,
            density=density,
            delta_good=good,
            allotment_real=real,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_arrival(self, job: JobView, t: int) -> None:
        """Admit to Q if delta-good and condition (2) holds, else park."""
        state = self.compute_state(job)
        self.all_states[job.job_id] = state
        if state.density <= 0:
            # Zero-profit jobs can never contribute; park them forever.
            self.queue_parked.add(state)
            return
        if state.delta_good and self.bands.can_insert(
            state.density, state.allotment, self.constants.c, self._capacity()
        ):
            self._start(state)
        else:
            self.queue_parked.add(state)

    def on_completion(self, job: JobView, t: int) -> None:
        """Remove from Q, then promote delta-fresh parked jobs."""
        # A parked job can only complete if some other scheduler ran it
        # -- impossible under this engine; _leave cleans P defensively.
        self._leave(job.job_id)
        self._promote(t)

    def on_expiry(self, job: JobView, t: int) -> None:
        """Deadline passed: drop the job from whichever queue holds it."""
        self._leave(job.job_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def allocate(self, t: int) -> dict[int, int]:
        """Scan Q by density (desc); give each job exactly ``n_i``
        processors while they last."""
        alloc = self._alloc_cache
        if alloc is not None:
            # Q unchanged since the last scan, so the scan's outcome is
            # too.  Callers must treat the result as read-only (see
            # WorkConservingSNS, which copies before topping up).
            return alloc
        free = self.m
        alloc = {}
        queue = self.queue_started
        states = queue._states  # same-module access: this scan runs every decision
        for _, job_id in queue._keys:
            if free <= 0:
                break
            n = states[job_id].allotment
            if n <= free:
                alloc[job_id] = n
                free -= n
        self._alloc_cache = alloc
        return alloc

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _capacity(self) -> float:
        if self.m <= 0:
            raise SchedulingError("scheduler not started (on_start not called)")
        return self.constants.band_capacity(self.m)

    def _leave(self, job_id: int) -> None:
        """Drop a finished job from Q (and its band) or P, and its view."""
        if job_id in self.queue_started:
            state = self.queue_started.remove(job_id)
            self.bands.remove(job_id)
            self._alloc_cache = None
        elif job_id in self.queue_parked:
            state = self.queue_parked.remove(job_id)
        else:
            return
        state.view = None

    def _start(self, state: SNSJobState) -> None:
        self.queue_started.add(state)
        self.bands.insert(state.job_id, state.density, state.allotment)
        self.started_ids.add(state.job_id)
        self._alloc_cache = None

    def _promote(self, t: int) -> None:
        """Move delta-fresh parked jobs into Q (paper: at completions)."""
        if not self.queue_parked._states:
            return
        capacity = self._capacity()
        consts = self.constants
        c = consts.c
        one_plus_delta = 1.0 + consts.delta
        blocking_band = self.bands.blocking_band
        # Cache of the last band that rejected a candidate.  Band loads
        # only grow within one promote pass (the pass only inserts), so
        # a later candidate whose density falls inside the cached band
        # -- making it one of the bands condition (2) checks for that
        # candidate -- and whose allotment still overfills the cached
        # (hence current) load is rejected without touching the bands.
        block_lo = block_hi = 0.0
        block_load = -1
        limit = capacity + 1e-9  # the comparison slack can_insert uses
        for state in self.queue_parked.by_density_desc():
            deadline = state.deadline
            assert deadline is not None
            if deadline <= t:
                # expired but engine notification pending; skip (engine
                # will call on_expiry at this same time step)
                continue
            density = state.density
            if density <= 0:
                # density-descending scan: every later job is also <= 0
                break
            # inlined Constants.is_delta_fresh (same expression)
            if deadline - t < one_plus_delta * state.x - 1e-9:
                continue
            allotment = state.allotment
            if (
                block_load >= 0
                and block_lo <= density < block_hi
                and block_load + allotment > limit
            ):
                continue
            block = blocking_band(density, allotment, c, capacity)
            if block is None:
                self.queue_parked.remove(state.job_id)
                self._start(state)
            else:
                block_lo, block_hi, block_load = block

    # ------------------------------------------------------------------
    # Checkpointing (see repro.service.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serialize Q, P, the band structure's contents and the set R.

        Per-job quantities (allotment, ``x``, density) are stored rather
        than recomputed so a restored scheduler makes bit-identical
        decisions even across floating-point-sensitive recomputation.
        Diagnostics for already-finished jobs (``all_states`` entries)
        are not carried across a restore.
        """
        def encode(state: SNSJobState) -> dict:
            return {
                "job_id": state.job_id,
                "allotment": state.allotment,
                "x": state.x,
                "density": state.density,
                "delta_good": state.delta_good,
                "allotment_real": state.allotment_real,
            }

        return {
            "constants": {
                "epsilon": self.constants.epsilon,
                "delta": self.constants.delta,
                "c": self.constants.c,
                "b": self.constants.b,
            },
            "started": [encode(s) for s in self.queue_started.by_density_desc()],
            "parked": [encode(s) for s in self.queue_parked.by_density_desc()],
            "started_ids": sorted(self.started_ids),
        }

    def restore_state(self, data: dict, views) -> None:
        """Rebuild queues, bands and R from :meth:`snapshot_state` output.

        ``views`` must contain a :class:`~repro.sim.jobs.JobView` for
        every job in Q or P (the engine restore provides it).  The
        scheduler must have been constructed with the same constants.
        """
        stored = data["constants"]
        mine = self.constants
        if (
            stored["epsilon"] != mine.epsilon
            or stored["delta"] != mine.delta
            or stored["c"] != mine.c
            or stored["b"] != mine.b
        ):
            raise SchedulingError(
                f"snapshot constants {stored} do not match scheduler {mine!r}"
            )

        def decode(entry: dict) -> SNSJobState:
            job_id = int(entry["job_id"])
            if job_id not in views:
                raise SchedulingError(f"no restored view for job {job_id}")
            return SNSJobState(
                view=views[job_id],
                allotment=int(entry["allotment"]),
                x=float(entry["x"]),
                density=float(entry["density"]),
                delta_good=bool(entry["delta_good"]),
                allotment_real=float(entry["allotment_real"]),
            )

        self.queue_started = _DensityQueue()
        self.queue_parked = _DensityQueue()
        self.bands = DensityBands()
        self.all_states = {}
        self._alloc_cache = None
        for entry in data["started"]:
            state = decode(entry)
            self.queue_started.add(state)
            self.bands.insert(state.job_id, state.density, state.allotment)
            self.all_states[state.job_id] = state
        for entry in data["parked"]:
            state = decode(entry)
            self.queue_parked.add(state)
            self.all_states[state.job_id] = state
        self.started_ids = {int(i) for i in data["started_ids"]}

    # ------------------------------------------------------------------
    # Introspection for tests / invariant monitors
    # ------------------------------------------------------------------
    def started_states(self) -> list[SNSJobState]:
        """States of jobs currently in Q, density-descending."""
        return self.queue_started.by_density_desc()

    def parked_states(self) -> list[SNSJobState]:
        """States of jobs currently in P, in ``(-density, job_id)`` order.

        Density-descending, ties to the lower job id.  The coordination
        view caps this list with a prefix slice, so the order is part of
        the contract.
        """
        return self.queue_parked.by_density_desc()

    def starved_states(self) -> list[SNSJobState]:
        """States of Q jobs the current allotment scan leaves unserved.

        Mirrors :meth:`allocate`'s density-descending scan read-only
        (no cache is touched): condition (2) caps each *band* at
        ``b*m``, but Q's total allotment across several bands can
        exceed ``m``, so the scan's tail receives zero processors.
        Such jobs hold band capacity while earning at zero rate --
        they are the cluster coordinator's preferred steal victims.
        Returned in the scan's ``(-density, job_id)`` order, which the
        coordination view's prefix-slice cap relies on.
        """
        free = self.m
        starved: list[SNSJobState] = []
        for state in self.queue_started.by_density_desc():
            if free <= 0:
                starved.append(state)
                continue
            if state.allotment <= free:
                free -= state.allotment
            else:
                starved.append(state)
        return starved

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SNSScheduler(eps={self.constants.epsilon:g}, "
            f"|Q|={len(self.queue_started)}, |P|={len(self.queue_parked)})"
        )
