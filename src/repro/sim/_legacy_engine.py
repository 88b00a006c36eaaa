"""Frozen pre-event-core reference engine (the stepper as of PR 1).

This module is a deliberately *unoptimized, self-contained* copy of the
simulation hot path as it existed before the event-driven rewrite of
:mod:`repro.sim.engine`:

* :class:`_LegacyDAGJob` -- the numpy-scalar / enum-dispatch DAG runtime
  (per-node ``process`` calls, ``NodeState`` round-trips, full-tuple
  ``ready_nodes`` rebuilds);
* :class:`LegacySimulator` -- the original decision loop with its
  quadratic stale-node scan and list-building ``_next_dt``.

It exists for two reasons and must not be optimized or refactored:

1. **Equivalence oracle.**  The property tests in
   ``tests/test_engine_event_equivalence.py`` assert that the live
   engine produces bit-identical records, counters and profit against
   this reference across random DAG families, seeds, and batch/stream
   drivers.
2. **Perf baseline.**  The benchmark harness (``benchmarks/run_bench.py``)
   measures the live engine's speedup over this reference on the same
   machine, so ``BENCH_engine.json`` carries a machine-fair trajectory.

Semantics are documented in :mod:`repro.sim.engine`; this copy only
freezes the implementation.
"""

from __future__ import annotations

import heapq
import logging
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.dag.graph import DAGStructure
from repro.dag.node import NodeState
from repro.errors import AllocationError, SimulationError
from repro.sim.engine import RunCounters, SimulationResult, _finish_record
from repro.sim.jobs import CompletionRecord, JobSpec, JobView
from repro.sim.picker import FIFOPicker, NodePicker
from repro.sim.scheduler import Scheduler

logger = logging.getLogger(__name__)


class _LegacyDAGJob:
    """Pre-rewrite DAG runtime: numpy scalar state + enum dispatch."""

    __slots__ = (
        "structure",
        "_remaining",
        "_unmet",
        "_state",
        "_ready",
        "_done_count",
        "_done_work",
    )

    def __init__(self, structure: DAGStructure) -> None:
        self.structure = structure
        n = structure.num_nodes
        self._remaining = structure.work.copy()
        self._unmet = np.fromiter(
            (structure.indegree(i) for i in range(n)), dtype=np.int64, count=n
        )
        self._state = np.full(n, NodeState.PENDING, dtype=np.int8)
        self._ready: dict[int, None] = {}
        for i in structure.topological_order():
            if self._unmet[i] == 0:
                self._state[i] = NodeState.READY
                self._ready[i] = None
        self._done_count = 0
        self._done_work = 0.0

    def ready_nodes(self) -> tuple[int, ...]:
        return tuple(self._ready)

    def num_ready(self) -> int:
        return len(self._ready)

    def node_state(self, node: int) -> NodeState:
        return NodeState(self._state[node])

    def node_remaining(self, node: int) -> float:
        return float(self._remaining[node])

    def remaining_work(self) -> float:
        mask = self._state != NodeState.DONE
        partial = float((self.structure.work[mask] - self._remaining[mask]).sum())
        return float(self.structure.total_work - self._done_work - partial)

    def is_complete(self) -> bool:
        return self._done_count == self.structure.num_nodes

    def mark_running(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            if not NodeState(self._state[node]).is_executable():
                raise ValueError(
                    f"node {node} in state {NodeState(self._state[node]).name} "
                    "cannot run"
                )
            self._state[node] = NodeState.RUNNING

    def mark_preempted(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            if self._state[node] == NodeState.RUNNING:
                self._state[node] = NodeState.READY

    def process(self, node: int, amount: float) -> bool:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        state = NodeState(self._state[node])
        if not state.is_executable():
            raise ValueError(f"cannot process node {node} in state {state.name}")
        rem = self._remaining[node] - amount
        if rem <= 1e-12:
            rem = 0.0
        self._remaining[node] = rem
        if rem > 0.0:
            return False
        self._complete_node(node)
        return True

    def _complete_node(self, node: int) -> None:
        self._state[node] = NodeState.DONE
        self._done_count += 1
        self._done_work += float(self.structure.work[node])
        del self._ready[node]
        for v in self.structure.successors(node):
            self._unmet[v] -= 1
            if self._unmet[v] == 0:
                self._state[v] = NodeState.READY
                self._ready[v] = None

    def add_overhead(self, node: int, amount: float) -> None:
        if amount < 0:
            raise ValueError("overhead must be non-negative")
        if self._state[node] == NodeState.DONE:
            return
        original = float(self.structure.work[node])
        self._remaining[node] = min(original, self._remaining[node] + amount)


class _LegacyActiveJob:
    """Pre-rewrite runtime job record wired to :class:`_LegacyDAGJob`."""

    __slots__ = (
        "spec",
        "dag",
        "executing",
        "completion_time",
        "assigned_deadline",
        "expired",
        "abandoned",
        "processor_steps",
        "earned_profit",
        "view",
    )

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.dag = _LegacyDAGJob(spec.structure)
        self.executing: tuple[int, ...] = ()
        self.completion_time: Optional[int] = None
        self.assigned_deadline: Optional[int] = None
        self.expired = False
        self.abandoned = False
        self.processor_steps = 0.0
        self.earned_profit = 0.0
        self.view = JobView(self)  # duck-typed: reads spec/dag only

    @property
    def job_id(self) -> int:
        return self.spec.job_id

    def effective_deadline(self) -> Optional[int]:
        if self.spec.deadline is not None:
            return self.spec.deadline
        return self.assigned_deadline

    def is_complete(self) -> bool:
        return self.dag.is_complete()

    def is_live(self) -> bool:
        return not (self.is_complete() or self.expired or self.abandoned)


class _LegacyRunState:
    __slots__ = (
        "t",
        "end_time",
        "arrival_seen",
        "done",
        "pending",
        "ids",
        "active",
        "finished",
        "deadline_heap",
        "prev_running",
        "counters",
    )

    def __init__(self) -> None:
        self.t = 0
        self.end_time = 0
        self.arrival_seen = False
        self.done = False
        self.pending: list[tuple[int, int, JobSpec]] = []
        self.ids: set[int] = set()
        self.active: dict[int, _LegacyActiveJob] = {}
        self.finished: dict[int, CompletionRecord] = {}
        self.deadline_heap: list[tuple[int, int]] = []
        self.prev_running: dict[int, set[int]] = {}
        self.counters = RunCounters()


class LegacySimulator:
    """The pre-PR decision loop, frozen verbatim (checkpointing dropped).

    Supports the same batch (:meth:`run`) and streaming (:meth:`start` /
    :meth:`submit` / :meth:`advance_to` / :meth:`finish`) drivers as the
    live :class:`repro.sim.engine.Simulator`, with identical semantics.
    """

    def __init__(
        self,
        m: int,
        scheduler: Scheduler,
        picker: Optional[NodePicker] = None,
        speed: float = 1.0,
        horizon: Optional[int] = None,
        preemption_overhead: float = 0.0,
    ) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.m = int(m)
        self.scheduler = scheduler
        self.picker = picker if picker is not None else FIFOPicker()
        self.speed = float(speed)
        self.horizon = horizon
        self.preemption_overhead = float(preemption_overhead)
        self._state: Optional[_LegacyRunState] = None

    # -- batch ----------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> SimulationResult:
        """Batch driver: submit every spec, drain all events, report."""
        ids = [sp.job_id for sp in specs]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate job ids in workload")
        self.start()
        for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
            self.submit(spec)
        return self.finish()

    # -- streaming ------------------------------------------------------
    def start(self) -> None:
        """Open a streaming session (notifies the scheduler)."""
        if self._state is not None:
            raise SimulationError("a session is already active; call finish() first")
        self._state = _LegacyRunState()
        self.scheduler.on_start(self.m, self.speed)

    def submit(self, spec: JobSpec, t: Optional[int] = None) -> None:
        """Queue one job in the open session, advancing to ``t`` first."""
        state = self._require_session()
        if t is not None:
            if t < state.t:
                raise SimulationError(
                    f"submission time {t} is in the past (now={state.t})"
                )
            if t > state.t:
                self.advance_to(t)
        if spec.job_id in state.ids:
            raise SimulationError(f"duplicate job id {spec.job_id}")
        if spec.arrival < state.t:
            raise SimulationError(
                f"job {spec.job_id} arrival {spec.arrival} is in the past "
                f"(now={state.t})"
            )
        state.ids.add(spec.job_id)
        heapq.heappush(state.pending, (spec.arrival, spec.job_id, spec))

    def advance_to(self, target: int) -> int:
        """Process events up to ``target``; returns the reached time."""
        state = self._require_session()
        if target < state.t:
            raise SimulationError(f"cannot advance to {target} (now={state.t})")
        self._advance(target)
        return state.t

    def finish(self) -> SimulationResult:
        """Drain remaining events and close the session."""
        state = self._require_session()
        self._advance(None)
        while state.pending:
            _, job_id, spec = heapq.heappop(state.pending)
            state.finished[job_id] = CompletionRecord(
                job_id=job_id,
                arrival=spec.arrival,
                deadline=spec.deadline,
                completion_time=None,
                profit=0.0,
                abandoned=True,
            )
            state.counters.abandons += 1
        result = SimulationResult(
            m=self.m,
            speed=self.speed,
            records=state.finished,
            counters=state.counters,
            end_time=state.end_time,
        )
        self._state = None
        return result

    # -- the frozen decision loop --------------------------------------
    def _require_session(self) -> _LegacyRunState:
        if self._state is None:
            raise SimulationError("no active session; call start() first")
        return self._state

    def _advance(self, target: Optional[int]) -> None:
        state = self._require_session()
        horizon = self.horizon
        if target is not None and horizon is not None:
            target = min(target, horizon)

        while not state.done:
            if target is not None and state.t >= target:
                return

            if not state.arrival_seen:
                if not state.pending:
                    if target is None:
                        break
                    state.t = max(state.t, target)
                    return
                first = state.pending[0][0]
                if horizon is not None:
                    first = min(first, horizon)
                if target is not None and first > target:
                    state.t = max(state.t, target)
                    return
                state.t = max(state.t, first)
                state.arrival_seen = True

            while state.pending and state.pending[0][0] <= state.t:
                _, _, spec = heapq.heappop(state.pending)
                job = _LegacyActiveJob(spec)
                state.active[spec.job_id] = job
                self.scheduler.on_arrival(job.view, state.t)
                assigned = self.scheduler.assign_deadline(job.view, state.t)
                if assigned is not None:
                    if assigned <= state.t:
                        raise SimulationError(
                            f"scheduler assigned past deadline {assigned} <= {state.t}"
                        )
                    job.assigned_deadline = int(assigned)
                eff = job.effective_deadline()
                if eff is not None:
                    heapq.heappush(state.deadline_heap, (eff, spec.job_id))

            while state.deadline_heap and state.deadline_heap[0][0] <= state.t:
                _, job_id = heapq.heappop(state.deadline_heap)
                job = state.active.get(job_id)
                if job is None or not job.is_live():
                    continue
                eff = job.effective_deadline()
                if eff is None or eff > state.t:
                    continue
                job.expired = True
                job.dag.mark_preempted(job.executing)
                job.executing = ()
                state.prev_running.pop(job_id, None)
                del state.active[job_id]
                state.finished[job_id] = _finish_record(job)
                state.counters.expiries += 1
                self.scheduler.on_expiry(job.view, state.t)

            state.end_time = state.t

            if target is None and not state.active and not state.pending:
                state.done = True
                break
            if horizon is not None and state.t >= horizon:
                self._abandon_all(state)
                state.done = True
                break

            alloc = self.scheduler.allocate(state.t)
            self._check_allocation(alloc, state.active)
            state.counters.decisions += 1

            assignment: list[tuple[_LegacyActiveJob, list[int]]] = []
            allocated_procs = 0
            executing_procs = 0
            slice_entries: list[tuple[int, int, int]] = []
            for job_id, k in alloc.items():
                if k <= 0:
                    continue
                job = state.active[job_id]
                ready = job.dag.ready_nodes()
                nodes = self.picker.pick(job.dag, ready, k)
                if len(nodes) > k or len(set(nodes)) != len(nodes):
                    raise SimulationError("picker returned invalid node set")
                prev = state.prev_running.get(job_id, set())
                now = set(nodes)
                stale = {
                    nd for nd in prev - now
                    if nd in job.dag.ready_nodes() or job.dag.node_remaining(nd) > 0
                }
                state.counters.preemptions += len(stale)
                job.dag.mark_preempted(stale)
                if self.preemption_overhead > 0:
                    for nd in stale:
                        job.dag.add_overhead(nd, self.preemption_overhead)
                job.dag.mark_running(nodes)
                state.prev_running[job_id] = now
                job.executing = tuple(nodes)
                assignment.append((job, nodes))
                allocated_procs += k
                executing_procs += len(nodes)
                slice_entries.append((job_id, k, len(nodes)))
            for job_id in list(state.prev_running):
                if job_id not in alloc or alloc.get(job_id, 0) <= 0:
                    job = state.active.get(job_id)
                    prev = state.prev_running.pop(job_id)
                    if job is not None:
                        stale = {
                            nd for nd in prev if job.dag.node_remaining(nd) > 0
                        }
                        state.counters.preemptions += len(stale)
                        job.dag.mark_preempted(stale)
                        if self.preemption_overhead > 0:
                            for nd in stale:
                                job.dag.add_overhead(nd, self.preemption_overhead)
                        job.executing = ()

            dt = self._next_dt(state, assignment)
            if dt is None:
                if target is None:
                    self._abandon_all(state)
                    state.done = True
                    break
                dt = target - state.t
            elif target is not None:
                dt = min(dt, target - state.t)
            if horizon is not None:
                dt = min(dt, horizon - state.t)
                if dt <= 0:
                    self._abandon_all(state)
                    state.done = True
                    break

            completions: list[_LegacyActiveJob] = []
            for job, nodes in assignment:
                for node in nodes:
                    job.dag.process(node, self.speed * dt)
            for job_id, k, _execing in slice_entries:
                state.active[job_id].processor_steps += k * dt
            state.counters.steps += dt
            state.counters.allocated_steps += allocated_procs * dt
            state.counters.busy_steps += executing_procs * dt
            state.t += dt

            for job, nodes in assignment:
                if job.dag.is_complete() and job.completion_time is None:
                    job.completion_time = state.t
                    job.earned_profit = self._profit_at_completion(job, state.t)
                    completions.append(job)
            for job in completions:
                job.executing = ()
                state.prev_running.pop(job.job_id, None)
                del state.active[job.job_id]
                state.finished[job.job_id] = _finish_record(job)
                state.counters.completions += 1
                self.scheduler.on_completion(job.view, state.t)

    def _profit_at_completion(self, job: _LegacyActiveJob, t: int) -> float:
        spec = job.spec
        offset = t - spec.arrival
        if spec.profit_fn is not None:
            return float(spec.profit_fn(offset))
        assert spec.deadline is not None
        return spec.profit if t <= spec.deadline else 0.0

    def _check_allocation(self, alloc, active) -> None:
        if not isinstance(alloc, dict):
            raise AllocationError("allocation must be a dict of job_id -> processors")
        total = 0
        for job_id, k in alloc.items():
            if job_id not in active:
                raise AllocationError(f"allocation references inactive job {job_id}")
            if not isinstance(k, int) or isinstance(k, bool):
                raise AllocationError(f"processor count for job {job_id} must be int")
            if k < 0:
                raise AllocationError(f"negative processor count for job {job_id}")
            total += k
        if total > self.m:
            raise AllocationError(f"allocation uses {total} > m={self.m} processors")

    def _next_dt(
        self,
        state: _LegacyRunState,
        assignment: list[tuple[_LegacyActiveJob, list[int]]],
    ) -> Optional[int]:
        t = state.t
        candidates: list[int] = []
        if state.pending:
            candidates.append(state.pending[0][0] - t)
        if state.deadline_heap:
            candidates.append(state.deadline_heap[0][0] - t)
        for job, nodes in assignment:
            for node in nodes:
                rem = job.dag.node_remaining(node)
                candidates.append(math.ceil(rem / self.speed))
        wake = getattr(self.scheduler, "wakeup_after", None)
        if wake is not None:
            wt = wake(t)
            if wt is not None:
                if wt <= t:
                    raise SimulationError(f"scheduler wakeup {wt} not after t={t}")
                candidates.append(wt - t)
        if not assignment:
            candidates = [c for c in candidates if c > 0]
            if not candidates:
                return None
            return max(1, min(candidates))
        return max(1, min(c for c in candidates if c > 0))

    def _abandon_all(self, state: _LegacyRunState) -> None:
        for job_id, job in list(state.active.items()):
            job.abandoned = True
            job.dag.mark_preempted(job.executing)
            job.executing = ()
            state.prev_running.pop(job_id, None)
            state.finished[job_id] = _finish_record(job)
            state.counters.abandons += 1
            del state.active[job_id]
