"""A fully non-clairvoyant scheduler via doubling estimates.

The paper's conclusion asks whether *fully* non-clairvoyant algorithms
(no knowledge of ``W_i`` or ``L_i`` at arrival, only ready-node counts
and observed progress) can match semi-non-clairvoyant performance.
This scheduler explores that question empirically:

* it never reads ``view.work`` or ``view.span``;
* it maintains a work estimate ``W_hat`` per job, doubling whenever the
  observed completed work reaches the estimate (the classic doubling
  trick), and a span estimate from the deadline;
* it then reuses the machinery of S — allotments, density bands,
  delta-goodness — against the *estimates*, recomputing a job's state
  (and its band entry) on every doubling.

This is *not* an algorithm from the paper; it is the open-question
probe the conclusion motivates, benchmarked alongside S in E9-style
comparisons.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.bands import DensityBands
from repro.core.theory import Constants
from repro.sim.jobs import JobView
from repro.sim.scheduler import SchedulerBase


class _NCState:
    __slots__ = ("view", "w_hat", "allotment", "x", "density", "started")

    def __init__(self, view: JobView) -> None:
        self.view = view
        self.w_hat = 1.0
        self.allotment = 1
        self.x = 1.0
        self.density = 0.0
        self.started = False


class DoublingNonClairvoyant(SchedulerBase):
    """Doubling-estimate variant of S, fully non-clairvoyant.

    Parameters
    ----------
    epsilon:
        Accuracy parameter for the reused constants.
    initial_estimate:
        Starting work guess ``W_hat`` for every job.
    """

    # the doubling pass reads work_completed at every decision
    reads_progress = True

    def __init__(
        self,
        epsilon: float = 1.0,
        constants: Optional[Constants] = None,
        initial_estimate: float = 4.0,
    ) -> None:
        self.constants = (
            constants if constants is not None else Constants.from_epsilon(epsilon)
        )
        if initial_estimate <= 0:
            raise ValueError("initial_estimate must be positive")
        self.initial_estimate = float(initial_estimate)
        self.states: dict[int, _NCState] = {}
        self.bands = DensityBands()
        #: how many times any estimate was doubled (diagnostics)
        self.doublings = 0

    # ------------------------------------------------------------------
    def _recompute(self, state: _NCState) -> None:
        """Derive allotment/x/density from the current estimate."""
        view = state.view
        rel = view.relative_deadline
        consts = self.constants
        w = state.w_hat
        # Non-clairvoyant span guess: the most parallel shape consistent
        # with the estimate (L ~ w / m); pessimists could use L = w.
        span_hat = max(1.0, w / self.m)
        if rel is None:
            rel = int(4 * consts.slack_requirement(w, span_hat, self.m)) + 1
        n = consts.allotment(w, span_hat, rel, self.m)
        x = consts.execution_bound(w, span_hat, n)
        state.allotment = n
        state.x = x
        state.density = view.profit / (x * n) if x * n > 0 else 0.0

    def _refresh_band(self, state: _NCState) -> None:
        if state.view.job_id in self.bands:
            self.bands.remove(state.view.job_id)
        if state.started and state.density > 0:
            self.bands.insert(
                state.view.job_id, state.density, state.allotment
            )

    # ------------------------------------------------------------------
    def on_arrival(self, job: JobView, t: int) -> None:
        """Admit with an optimistic estimate; bands gate admission."""
        state = _NCState(job)
        state.w_hat = self.initial_estimate
        self._recompute(state)
        self.states[job.job_id] = state
        if state.density > 0 and self.bands.can_insert(
            state.density,
            state.allotment,
            self.constants.c,
            self.constants.band_capacity(self.m),
        ):
            state.started = True
            self._refresh_band(state)

    def on_completion(self, job: JobView, t: int) -> None:
        """Drop state and band entry."""
        self._drop(job.job_id)

    def on_expiry(self, job: JobView, t: int) -> None:
        """Drop state and band entry."""
        self._drop(job.job_id)

    def _drop(self, job_id: int) -> None:
        self.states.pop(job_id, None)
        if job_id in self.bands:
            self.bands.remove(job_id)

    # ------------------------------------------------------------------
    def allocate(self, t: int) -> dict[int, int]:
        """Density order over started jobs, doubling estimates that the
        observed progress has outgrown."""
        # doubling pass: completed work is observable progress
        for state in self.states.values():
            completed = state.view.work_completed
            while completed >= state.w_hat - 1e-9:
                state.w_hat *= 2.0
                self.doublings += 1
                self._recompute(state)
                self._refresh_band(state)
        order = sorted(
            (s for s in self.states.values() if s.started),
            key=lambda s: (-s.density, s.view.job_id),
        )
        free = self.m
        alloc: dict[int, int] = {}
        for state in order:
            if free <= 0:
                break
            if state.allotment <= free:
                alloc[state.view.job_id] = state.allotment
                free -= state.allotment
        return alloc
