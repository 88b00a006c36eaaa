"""Discrete-time multiprocessor simulation engine.

The engine realizes the paper's machine model: ``m`` identical
processors, integer time steps, preemption at step boundaries, and speed
augmentation ``s`` (each processor removes ``s`` units of work from its
node per step -- Observation 1's "critical path decreases at rate s").

Semantics
---------
* Time advances in integer steps.  Between *decision points* the
  allocation is frozen; the engine fast-forwards across event-free gaps
  in one chunk, so cost scales with events, not wall-clock steps.
* A node occupies its processor for whole steps; work beyond completion
  within a node's final step is lost (discrete-step semantics).  With
  integer node works and speed 1 no work is lost.
* Decision points are: job arrival, node/job completion, (effective)
  deadline expiry, scheduler wakeup requests, and the horizon.
* A job that reaches its effective deadline unfinished is *expired*:
  removed and worth nothing, matching the paper's removal rule.
* The engine -- never the scheduler -- picks which ready nodes run,
  via the configured :class:`~repro.sim.picker.NodePicker`.

Batch and streaming modes
-------------------------
:meth:`Simulator.run` consumes a closed workload and simulates it to
completion.  It is a thin wrapper over the *streaming* session API --
:meth:`Simulator.start`, :meth:`Simulator.submit`,
:meth:`Simulator.advance_to` and :meth:`Simulator.finish` -- which lets
a long-running service interleave new submissions with simulated time
(the online setting the paper is actually about).  A streaming session
driven only at event times (advance to each arrival, then submit)
produces a :class:`SimulationResult` bit-identical to the batch run of
the same arrival sequence, counters included; advancing at additional
intermediate times preserves all per-job records and profits but counts
extra scheduler decisions.

Sessions can also be checkpointed mid-run (:meth:`Simulator.snapshot_state`)
and restored later (:meth:`Simulator.restore_state`) so a killed service
resumes deterministically; see :mod:`repro.service.snapshot`.

Example
-------
>>> from repro.dag import chain
>>> from repro.sim import Simulator, JobSpec
>>> from repro.baselines import GlobalEDF
>>> spec = JobSpec(0, chain(4), arrival=0, deadline=10, profit=1.0)
>>> result = Simulator(m=2, scheduler=GlobalEDF()).run([spec])
>>> result.total_profit
1.0
"""

from __future__ import annotations

import heapq
import logging
import math
import sys
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Any, Optional, Sequence

from repro.errors import AllocationError, SimulationError
from repro.observability.recorder import SliceData, scheduler_admission
from repro.sim.jobs import ActiveJob, CompletionRecord, JobSpec, JobView
from repro.sim.picker import FIFOPicker, NodePicker
from repro.sim.scheduler import Scheduler

logger = logging.getLogger(__name__)

# Int values of NodeState, inlined for the hot stale-node test, the
# engine-built pick's RUNNING marks and the inlined chunk execution.
from repro.dag.job import DAGJob, _RESIDUE  # noqa: E402
from repro.dag.node import NodeState as _NodeState  # noqa: E402

_DONE = int(_NodeState.DONE)
_READY = int(_NodeState.READY)
_RUNNING = int(_NodeState.RUNNING)

#: Version tag of the engine snapshot format (see :meth:`Simulator.snapshot_state`).
ENGINE_SNAPSHOT_VERSION = 1


@dataclass
class RunCounters:
    """Cheap always-on statistics of a run."""

    decisions: int = 0
    steps: int = 0
    allocated_steps: float = 0.0
    busy_steps: float = 0.0
    preemptions: int = 0
    completions: int = 0
    expiries: int = 0
    abandons: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class SimulationResult:
    """Everything a finished run reports."""

    m: int
    speed: float
    records: dict[int, CompletionRecord]
    counters: RunCounters
    #: time of the final event processed
    end_time: int
    extra: dict = field(default_factory=dict)

    @property
    def total_profit(self) -> float:
        """Sum of profit earned across all jobs."""
        return sum(r.profit for r in self.records.values())

    @property
    def completed_on_time(self) -> int:
        """Number of jobs that finished by their effective deadline."""
        return sum(1 for r in self.records.values() if r.on_time)

    @property
    def num_jobs(self) -> int:
        """Number of jobs in the workload."""
        return len(self.records)

    def profit_of(self, job_id: int) -> float:
        """Profit earned by one job."""
        return self.records[job_id].profit


#: ``sum()`` adds floats with Neumaier compensation from Python 3.12 on
#: (plain left-to-right addition before); the running profit total
#: follows the same rule so it stays bit-equal to ``sum()`` over the
#: finished records on every supported version.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


class _RunState:
    """Mutable state of one simulation session (batch or streaming)."""

    __slots__ = (
        "t",
        "end_time",
        "arrival_seen",
        "done",
        "pending",
        "ids",
        "active",
        "finished",
        "profit",
        "profit_c",
        "deadline_heap",
        "prev_running",
        "counters",
    )

    def __init__(self) -> None:
        self.t = 0
        self.end_time = 0
        #: whether the clock has been anchored to the first arrival
        self.arrival_seen = False
        #: terminal: drained, deadlocked, or horizon reached
        self.done = False
        #: min-heap of (arrival, job_id, spec) not yet released
        self.pending: list[tuple[int, int, JobSpec]] = []
        #: every job id ever submitted (duplicate detection)
        self.ids: set[int] = set()
        self.active: dict[int, ActiveJob] = {}
        #: final records, in insertion order; write through add_finished
        self.finished: dict[int, CompletionRecord] = {}
        #: running ``sum()`` of the finished profits (int 0 while empty,
        #: exactly as ``sum()`` of an empty sequence)
        self.profit: float = 0
        #: compensation term of that sum (only moves on Python >= 3.12)
        self.profit_c = 0.0
        self.deadline_heap: list[tuple[int, int]] = []  # (deadline, job_id)
        # job_id -> node list of the last pick (pick order preserved; the
        # stale check compares picks element-wise, which for order-stable
        # pickers equals set equality and otherwise only costs a spurious
        # empty stale scan)
        self.prev_running: dict[int, list[int]] = {}
        self.counters = RunCounters()

    def add_finished(self, rec: CompletionRecord) -> None:
        """Store a job's final record and add its profit to the total.

        Every insert into :attr:`finished` goes through here, each job
        once, so the total folds the profits in the order
        ``sum(r.profit for r in finished.values())`` visits them and
        :meth:`profit_total` returns the bit-identical float in O(1).
        """
        self.finished[rec.job_id] = rec
        x = rec.profit
        s = self.profit
        if _COMPENSATED_SUM and s.__class__ is float and x.__class__ is float:
            # CPython's float path of sum(); ints (and a still-int total)
            # take the plain addition there too
            t = s + x
            if abs(s) >= abs(x):
                self.profit_c += (s - t) + x
            else:
                self.profit_c += (x - t) + s
            self.profit = t
        else:
            self.profit = s + x

    def profit_total(self) -> float:
        """``sum()`` of the finished profits, from the running total."""
        c = self.profit_c
        if c and math.isfinite(c):
            return self.profit + c
        return self.profit


class Simulator:
    """Drives a scheduler over a workload on a simulated machine.

    Parameters
    ----------
    m:
        Number of identical processors.
    scheduler:
        Event-driven scheduler (see :class:`~repro.sim.scheduler.Scheduler`).
    picker:
        Ready-node pick policy; defaults to FIFO.  The adversarial and
        clairvoyant policies live in :mod:`repro.sim.picker`.
    speed:
        Resource augmentation ``s >= 1`` (work removed per processor-step).
        Fractional speeds are allowed (the paper's ``1+eps``).
    horizon:
        Optional hard stop; unfinished jobs are marked abandoned.
    validate:
        Re-check model invariants after every decision (slow; tests only).
    preemption_overhead:
        Work added to a node each time it is preempted mid-execution
        (context-switch cost; capped at the node's original work).
        Default 0 = the paper's free-preemption model.
    recorder:
        Optional structured trace recorder (see
        :mod:`repro.observability.recorder`): every lifecycle transition
        and decision point emits an event.  ``None`` (default) and the
        shared ``NULL_RECORDER`` both reduce the per-event cost to one
        hoisted ``None`` check.  Recording never changes simulated
        state, records, counters or profit.
    profiler:
        Optional :class:`~repro.observability.profiler.Profiler` timing
        the named hot-path sections ``allocate`` (one scheduler
        decision, i.e. decision latency) and ``execute`` (one chunk
        execution).  Wall-clock only; never touches simulated state.
    """

    def __init__(
        self,
        m: int,
        scheduler: Scheduler,
        picker: Optional[NodePicker] = None,
        speed: float = 1.0,
        horizon: Optional[int] = None,
        validate: bool = False,
        preemption_overhead: float = 0.0,
        recorder: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if speed <= 0:
            raise ValueError("speed must be positive")
        if horizon is not None and horizon < 0:
            raise ValueError("horizon must be non-negative")
        if preemption_overhead < 0:
            raise ValueError("preemption_overhead must be non-negative")
        self.m = int(m)
        self.scheduler = scheduler
        self.picker = picker if picker is not None else FIFOPicker()
        self.speed = float(speed)
        self.horizon = horizon
        self.validate = bool(validate)
        self.preemption_overhead = float(preemption_overhead)
        self.recorder = recorder
        self.profiler = profiler
        self._state: Optional[_RunState] = None

    # ------------------------------------------------------------------
    # Batch mode (thin wrapper over the streaming session)
    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> SimulationResult:
        """Simulate the workload to completion (or horizon) and report."""
        ids = [sp.job_id for sp in specs]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate job ids in workload")
        self.start()
        for spec in sorted(specs, key=lambda sp: (sp.arrival, sp.job_id)):
            self.submit(spec)
        return self.finish()

    # ------------------------------------------------------------------
    # Streaming session API
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open a streaming session at time 0.

        After :meth:`start`, jobs are injected with :meth:`submit`,
        simulated time moves with :meth:`advance_to`, and
        :meth:`finish` drains everything and reports.
        """
        if self._state is not None:
            raise SimulationError("a session is already active; call finish() first")
        self._state = _RunState()
        self.scheduler.on_start(self.m, self.speed)

    def submit(self, spec: JobSpec, t: Optional[int] = None) -> None:
        """Queue a job for release at ``spec.arrival``.

        ``t`` is the submission time: when given and ahead of the
        current clock the session first advances to it (so a driver can
        write ``submit(spec, t=arrival)`` and nothing else).  The
        arrival must not lie in the simulated past -- a streaming driver
        must not advance beyond times it still intends to submit at.
        """
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
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.event(state.t, "submit", spec.job_id)

    def advance_to(self, target: int) -> int:
        """Advance simulated time to ``target`` and return the clock.

        All events *strictly before* ``target`` are fully processed;
        events at exactly ``target`` stay pending so that same-time
        submissions made afterwards are sequenced exactly as a batch run
        would (arrivals before expiries at equal times).  Advancing past
        the horizon clamps to it.
        """
        state = self._require_session()
        if target < state.t:
            raise SimulationError(f"cannot advance to {target} (now={state.t})")
        self._advance(target)
        return state.t

    def finish(self) -> SimulationResult:
        """Drain the session (all pending arrivals and active jobs) and
        return the final :class:`SimulationResult`; the session closes."""
        state = self._require_session()
        self._advance(None)
        rec = self.recorder
        emit = rec.event if (rec is not None and rec.enabled) else None
        # jobs never released (horizon before arrival) get empty records
        while state.pending:
            _, job_id, spec = heapq.heappop(state.pending)
            state.add_finished(CompletionRecord(
                job_id=job_id,
                arrival=spec.arrival,
                deadline=spec.deadline,
                completion_time=None,
                profit=0.0,
                abandoned=True,
            ))
            state.counters.abandons += 1
            if emit is not None:
                emit(state.t, "abandon", job_id)
        result = SimulationResult(
            m=self.m,
            speed=self.speed,
            records=state.finished,
            counters=state.counters,
            end_time=state.end_time,
        )
        self._state = None
        return result

    # ------------------------------------------------------------------
    # Session introspection (used by the service layer and telemetry)
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether a streaming session is currently open."""
        return self._state is not None

    @property
    def now(self) -> int:
        """Current simulated time of the open session."""
        return self._require_session().t

    @property
    def active_count(self) -> int:
        """Number of released, unfinished jobs in the open session."""
        return len(self._require_session().active)

    @property
    def pending_count(self) -> int:
        """Number of submitted jobs not yet released (future arrivals)."""
        return len(self._require_session().pending)

    @property
    def finished_count(self) -> int:
        """Number of jobs with a final record so far."""
        return len(self._require_session().finished)

    @property
    def counters(self) -> RunCounters:
        """Live run counters of the open session (read-only use)."""
        return self._require_session().counters

    def profit_so_far(self) -> float:
        """Profit accumulated by finished jobs in the open session.

        O(1): the session keeps a running total, bit-equal to
        ``sum(r.profit for r in records.values())``.
        """
        return self._require_session().profit_total()

    def readings(self) -> tuple[int, float, RunCounters]:
        """``(in_flight, profit, counters)`` of the open session in one
        read: :attr:`active_count` + :attr:`pending_count`,
        :meth:`profit_so_far` and :attr:`counters` -- what a telemetry
        sample records."""
        state = self._require_session()
        return (
            len(state.active) + len(state.pending),
            state.profit_total(),
            state.counters,
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, Any]:
        """Serialize the open session to a JSON-compatible dict.

        The snapshot captures pending submissions, active jobs (DAG
        execution state included), finished records, the expiry heap,
        preemption bookkeeping and counters -- everything needed for
        :meth:`restore_state` to resume bit-identically.  Recorder
        events are *not* captured; an attached recorder sees the
        restored session from the restore point.  Scheduler state is snapshotted
        separately (see
        :meth:`repro.sim.scheduler.SchedulerBase.snapshot_state`).
        """
        from repro.workloads.serialize import spec_to_dict

        state = self._require_session()
        return {
            "version": ENGINE_SNAPSHOT_VERSION,
            "config": {
                "m": self.m,
                "speed": self.speed,
                "horizon": self.horizon,
                "preemption_overhead": self.preemption_overhead,
            },
            "t": state.t,
            "end_time": state.end_time,
            "arrival_seen": state.arrival_seen,
            "done": state.done,
            "ids": sorted(state.ids),
            "pending": [spec_to_dict(spec) for _, _, spec in sorted(state.pending)],
            "active": [self._active_to_dict(job) for job in state.active.values()],
            "finished": [
                _record_to_dict(rec) for rec in state.finished.values()
            ],
            "deadline_heap": [list(item) for item in sorted(state.deadline_heap)],
            "prev_running": [
                [job_id, sorted(nodes)]
                for job_id, nodes in state.prev_running.items()
            ],
            "counters": _counters_to_dict(state.counters),
        }

    def restore_state(self, data: dict[str, Any]) -> dict[int, JobView]:
        """Open a session from a :meth:`snapshot_state` dict.

        The simulator must be configured identically to the one that
        took the snapshot (``m``, ``speed``, ``horizon``,
        ``preemption_overhead`` are verified).  Calls the scheduler's
        ``on_start`` and returns the ``job_id -> JobView`` mapping of
        live jobs so the caller can restore scheduler state next.
        """
        from repro.workloads.serialize import spec_from_dict

        if self._state is not None:
            raise SimulationError("a session is already active; cannot restore")
        if data.get("version") != ENGINE_SNAPSHOT_VERSION:
            raise SimulationError(
                f"unsupported engine snapshot version {data.get('version')}"
            )
        config = data["config"]
        mine = {
            "m": self.m,
            "speed": self.speed,
            "horizon": self.horizon,
            "preemption_overhead": self.preemption_overhead,
        }
        if config != mine:
            raise SimulationError(
                f"snapshot config {config} does not match simulator {mine}"
            )
        state = _RunState()
        state.t = int(data["t"])
        state.end_time = int(data["end_time"])
        state.arrival_seen = bool(data["arrival_seen"])
        state.done = bool(data["done"])
        state.ids = {int(i) for i in data["ids"]}
        state.pending = [
            (spec.arrival, spec.job_id, spec)
            for spec in (spec_from_dict(d) for d in data["pending"])
        ]
        heapq.heapify(state.pending)
        for entry in data["active"]:
            job = self._active_from_dict(entry)
            state.active[job.job_id] = job
        for entry in data["finished"]:
            state.add_finished(_record_from_dict(entry))
        state.deadline_heap = [(int(d), int(j)) for d, j in data["deadline_heap"]]
        heapq.heapify(state.deadline_heap)
        state.prev_running = {
            int(job_id): [int(n) for n in nodes]
            for job_id, nodes in data["prev_running"]
        }
        state.counters = _counters_from_dict(data["counters"])
        self._state = state
        self.scheduler.on_start(self.m, self.speed)
        return {job_id: job.view for job_id, job in state.active.items()}

    # ------------------------------------------------------------------
    # Live-job migration (cluster work-stealing)
    # ------------------------------------------------------------------
    def extract_active(self, job_id: int) -> Optional[dict[str, Any]]:
        """Remove a live job from the open session for migration.

        The job is preempted (its executing nodes return to ready with
        their residue intact), detached from the engine's bookkeeping,
        and forgotten by the scheduler via ``on_expiry`` -- the one hook
        every scheduler already treats as "this job is no longer mine"
        (queues, bands and allocation caches are cleaned, no completion
        is recorded).  The returned payload is the same JSON-compatible
        per-job dict :meth:`snapshot_state` uses; feed it to another
        simulator's :meth:`inject_active`.  No terminal record is
        written here: the job's single completion/expiry is expected on
        the receiving engine, which keeps cluster traces valid (one
        terminal event per submitted job).

        Returns ``None`` when ``job_id`` is not a live active job (not
        yet released, already finished, or never seen).
        """
        state = self._require_session()
        job = state.active.get(job_id)
        if job is None or not job.is_live():
            return None
        job.dag.mark_preempted(job.executing)
        job.executing = ()
        state.prev_running.pop(job_id, None)
        del state.active[job_id]
        # Free the id so a later bounce-back to this shard is legal; any
        # deadline_heap entry goes stale and the expiry loop skips it.
        state.ids.discard(job_id)
        self.scheduler.on_expiry(job.view, state.t)
        payload = self._active_to_dict(job)
        job.retire()
        return payload

    def inject_active(self, data: dict[str, Any], t: Optional[int] = None) -> JobView:
        """Install a job extracted from another engine into this session.

        ``data`` is the payload :meth:`extract_active` returned.  For
        deadline (throughput-setting) jobs the arrival is re-stamped to
        *now*, exactly like the queued-migration release path: the job
        re-enters the world with whatever slack is left, so the
        receiving scheduler judges delta-goodness and density against
        remaining time (its ``W``/``L`` stay the originals -- a
        conservative bound for a partially executed DAG).  General-
        profit jobs keep their original arrival (profit decays from it)
        and any previously assigned deadline.  The scheduler sees a
        normal ``on_arrival``.

        A job whose effective deadline already passed (it expired in
        transit between extraction and injection) is recorded as an
        immediate expiry instead of entering the engine, so every
        submission keeps a completion record.  Raises
        :class:`~repro.errors.SimulationError` if the job id is already
        known here.
        """
        state = self._require_session()
        if t is not None:
            if t < state.t:
                raise SimulationError(
                    f"injection time {t} is in the past (now={state.t})"
                )
            if t > state.t:
                self.advance_to(t)
        if state.done:
            raise SimulationError("session is done; cannot inject a job")
        spec_data = data["spec"]
        if (
            spec_data.get("profit_fn") is None
            and spec_data.get("deadline") is not None
            and spec_data["deadline"] > state.t
        ):
            spec_data = dict(spec_data)
            spec_data["arrival"] = state.t
            data = dict(data)
            data["spec"] = spec_data
        job = self._active_from_dict(data)
        job_id = job.job_id
        if job_id in state.ids or job_id in state.active:
            raise SimulationError(f"job {job_id} is already known to this engine")
        eff = job.effective_deadline()
        if eff is not None and eff <= state.t:
            # expired in transit (extracted on one shard, deadline
            # passed before injection here): record the expiry rather
            # than reject, so the job keeps a completion record and
            # coordinated runs account for every submission
            state.ids.add(job_id)
            job.expired = True
            job.dag.mark_preempted(job.executing)
            job.executing = ()
            state.add_finished(_finish_record(job))
            state.counters.expiries += 1
            rec = self.recorder
            if rec is not None and rec.enabled:
                rec.event(state.t, "arrival", job_id)
                rec.event(state.t, "expiry", job_id)
            view = job.view
            job.retire()
            return view
        state.ids.add(job_id)
        state.active[job_id] = job
        state.arrival_seen = True
        if eff is not None:
            heapq.heappush(state.deadline_heap, (eff, job_id))
        rec = self.recorder
        emit = rec.event if (rec is not None and rec.enabled) else None
        if emit is not None:
            emit(state.t, "arrival", job_id)
        self.scheduler.on_arrival(job.view, state.t)
        if job.effective_deadline() is None:
            assigned = self.scheduler.assign_deadline(job.view, state.t)
            if assigned is not None:
                if assigned <= state.t:
                    raise SimulationError(
                        f"scheduler assigned past deadline {assigned} <= {state.t}"
                    )
                job.assigned_deadline = int(assigned)
                heapq.heappush(state.deadline_heap, (job.assigned_deadline, job_id))
        if emit is not None:
            info = scheduler_admission(self.scheduler, job_id) or {}
            if job.assigned_deadline is not None:
                info["assigned_deadline"] = job.assigned_deadline
            emit(state.t, "admission", job_id, info or None)
        return job.view

    def forget_pending(self, job_id: int) -> Optional[JobSpec]:
        """Withdraw a submitted-but-unreleased job from the session.

        A job submitted at the current instant sits in the pending heap
        until the clock moves past its arrival -- live to the engine
        (its id is reserved) but invisible to :meth:`extract_active`.
        Cluster recovery needs to remove exactly such a copy when a
        replayed submission resurrects a job whose authoritative home
        is another shard.  Returns the withdrawn spec (freeing the id
        for a legal resubmission), or ``None`` when ``job_id`` is not
        pending here.  No terminal record is written.
        """
        state = self._require_session()
        for i, (_, jid, spec) in enumerate(state.pending):
            if jid == job_id:
                state.pending.pop(i)
                heapq.heapify(state.pending)
                state.ids.discard(job_id)
                return spec
        return None

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def _require_session(self) -> _RunState:
        if self._state is None:
            raise SimulationError("no active session; call start() first")
        return self._state

    def _advance(self, target: Optional[int]) -> None:
        """Process events up to ``target`` (``None`` = drain everything)."""
        state = self._require_session()
        horizon = self.horizon
        if target is not None and horizon is not None:
            target = min(target, horizon)
        scheduler = self.scheduler
        picker = self.picker
        # the default FIFO pick is served straight from the ready dict
        fifo_pick = type(picker) is FIFOPicker
        wakeup = getattr(scheduler, "wakeup_after", None)

        # Hoisted per-call invariants: these containers and callables are
        # stable for the lifetime of one session, and the decision loop
        # below touches them several times per event.
        pending = state.pending
        active = state.active
        deadline_heap = state.deadline_heap
        prev_running = state.prev_running
        add_finished = state.add_finished
        counters = state.counters
        speed = self.speed
        overhead = self.preemption_overhead
        validate = self.validate
        on_arrival = scheduler.on_arrival
        assign_deadline = scheduler.assign_deadline
        heappop = heapq.heappop
        heappush = heapq.heappush
        inf = math.inf
        ceil = math.ceil
        debug_log = logger.isEnabledFor(logging.DEBUG)
        # Observability hoists: with no recorder (or the NULL_RECORDER)
        # attached, every emit site below is one local None check.
        rec = self.recorder
        emit = rec.event if (rec is not None and rec.enabled) else None
        prof = self.profiler
        if prof is not None:
            prof_alloc = prof.section("allocate")
            prof_exec = prof.section("execute")
            perf = perf_counter
        else:
            prof_alloc = prof_exec = None
            perf = None

        while not state.done:
            if target is not None and state.t >= target:
                return

            # ---- anchor the clock at the first arrival -------------------
            # Batch semantics: idle time before any job exists is skipped,
            # not simulated, so pre-arrival gaps cost no decisions/steps.
            if not state.arrival_seen:
                if not pending:
                    if target is None:
                        break
                    state.t = max(state.t, target)
                    return
                first = pending[0][0]
                if horizon is not None:
                    first = min(first, horizon)
                if target is not None and first > target:
                    state.t = max(state.t, target)
                    return
                state.t = max(state.t, first)
                state.arrival_seen = True

            # ---- arrivals at (or before) t -------------------------------
            while pending and pending[0][0] <= state.t:
                _, _, spec = heappop(pending)
                job = ActiveJob(spec)
                active[spec.job_id] = job
                if emit is not None:
                    emit(spec.arrival, "arrival", spec.job_id)
                if debug_log:
                    logger.debug(
                        "t=%d arrival job=%d W=%.6g L=%.6g d=%s",
                        state.t, spec.job_id, spec.work, spec.span, spec.deadline,
                    )
                on_arrival(job.view, state.t)
                assigned = assign_deadline(job.view, state.t)
                if assigned is not None:
                    if assigned <= state.t:
                        raise SimulationError(
                            f"scheduler assigned past deadline {assigned} <= {state.t}"
                        )
                    job.assigned_deadline = int(assigned)
                eff = job.effective_deadline()
                if eff is not None:
                    heappush(deadline_heap, (eff, spec.job_id))
                if emit is not None:
                    info = scheduler_admission(scheduler, spec.job_id) or {}
                    if job.assigned_deadline is not None:
                        info["assigned_deadline"] = job.assigned_deadline
                    emit(state.t, "admission", spec.job_id, info or None)

            # ---- expiries at t -------------------------------------------
            while deadline_heap and deadline_heap[0][0] <= state.t:
                _, job_id = heappop(deadline_heap)
                job = active.get(job_id)
                if job is None or not job.is_live():
                    continue  # stale entry
                eff = job.effective_deadline()
                if eff is None or eff > state.t:
                    continue
                job.expired = True
                job.dag.mark_preempted(job.executing)
                job.executing = ()
                prev_running.pop(job_id, None)
                del active[job_id]
                add_finished(_finish_record(job))
                counters.expiries += 1
                if emit is not None:
                    emit(state.t, "expiry", job_id)
                if debug_log:
                    logger.debug("t=%d expiry job=%d", state.t, job_id)
                scheduler.on_expiry(job.view, state.t)
                job.retire()

            state.end_time = state.t

            # ---- termination ---------------------------------------------
            if target is None and not active and not pending:
                state.done = True
                break
            if horizon is not None and state.t >= horizon:
                self._abandon_all(state)
                state.done = True
                break

            # t is stable from here until the chunk executes
            t = state.t

            # ---- allocation ----------------------------------------------
            if prof_alloc is not None:
                _p0 = perf()
                alloc = scheduler.allocate(t)
                prof_alloc.observe(perf() - _p0)
            else:
                alloc = scheduler.allocate(t)
            self._check_allocation(alloc, active)
            counters.decisions += 1

            assignment: list[tuple[ActiveJob, list[int], int, DAGJob]] = []
            allocated_procs = 0
            executing_procs = 0
            # smallest remaining work over all executing nodes: the time
            # to the next node completion (fused into this loop so no
            # second pass over the assignment is needed)
            exec_min = inf
            for job_id, k in alloc.items():
                if k <= 0:
                    continue
                job = active[job_id]
                dag = job.dag
                if fifo_pick:
                    if job._pick_k == k and job._pick_version == dag.ready_version:
                        # Ready set unchanged, same width, and the job
                        # stayed allocated since the memo was written: the
                        # previous pick, its RUNNING marks and the
                        # prev_running entry are all still exact, so the
                        # per-job bookkeeping below is a no-op.
                        nodes = job._pick_nodes
                        assignment.append(job._assign)
                        allocated_procs += k
                        executing_procs += len(nodes)
                        mr = job._min_rem
                        if mr < exec_min:
                            exec_min = mr
                        continue
                    # engine-built pick, valid by construction
                    # (first_ready inlined: became-ready order, first k)
                    ready = dag._ready
                    nodes = list(ready) if len(ready) <= k else list(islice(ready, k))
                    job._pick_k = k
                    job._pick_version = dag.ready_version
                    job._pick_nodes = nodes
                else:
                    nodes = picker.pick(dag, dag.ready_nodes(), k)
                    if len(nodes) > k or len(set(nodes)) != len(nodes):
                        raise SimulationError("picker returned invalid node set")
                # preemption accounting: previously-running nodes that are
                # neither rerun nor finished count as preempted
                prev = prev_running.get(job_id)
                dag_state = dag._state
                if (
                    prev is not None
                    and prev != nodes
                    # FIFO picks take a prefix of the ready dict, and the
                    # survivors of the previous pick always occupy the
                    # front of that dict (deletions preserve order, new
                    # nodes append); a pick at least as wide as the
                    # previous one therefore re-covers every survivor,
                    # so nothing can be stale
                    and not (fifo_pick and len(nodes) >= len(prev))
                ):
                    # a displaced node is stale iff it did not complete; a
                    # node that ran is either DONE or still in the ready
                    # dict, so the DONE test is the whole condition
                    now = set(nodes)
                    stale = [
                        nd
                        for nd in prev
                        if nd not in now and dag_state[nd] != _DONE
                    ]
                    if stale:
                        counters.preemptions += len(stale)
                        dag.mark_preempted(stale)
                        if overhead > 0:
                            for nd in stale:
                                dag.add_overhead(nd, overhead)
                if fifo_pick:
                    # inlined mark_running: the nodes came straight from
                    # the ready dict, so they are executable by
                    # construction and need no re-validation
                    for nd in nodes:
                        dag_state[nd] = _RUNNING
                else:
                    dag.mark_running(nodes)
                prev_running[job_id] = nodes
                job.executing = tuple(nodes)
                entry = (job, nodes, k, dag)
                if fifo_pick:
                    job._assign = entry
                assignment.append(entry)
                allocated_procs += k
                executing_procs += len(nodes)
                # overhead above only touches stale (non-executing) nodes,
                # so the fresh minimum is unaffected by it
                mr = min(map(dag._remaining.__getitem__, nodes))
                job._min_rem = mr
                if mr < exec_min:
                    exec_min = mr
            # jobs allocated nothing this round lose their running marks
            if len(prev_running) > len(assignment):
                for job_id in list(prev_running):
                    if alloc.get(job_id, 0) <= 0:
                        job = active.get(job_id)
                        prev = prev_running.pop(job_id)
                        if job is not None:
                            job._pick_k = -1  # pick memo needs re-marking
                            dag = job.dag
                            stale = {
                                nd for nd in prev if dag.node_remaining(nd) > 0
                            }
                            counters.preemptions += len(stale)
                            dag.mark_preempted(stale)
                            if overhead > 0:
                                for nd in stale:
                                    dag.add_overhead(nd, overhead)
                            job.executing = ()

            if emit is not None:
                emit(
                    t,
                    "decision",
                    None,
                    {
                        "jobs": len(assignment),
                        "procs": allocated_procs,
                        "active": len(active),
                    },
                )

            # ---- choose chunk length dt (the event-jump distance) --------
            # Minimum over the four event sources: next pending arrival,
            # next effective-deadline expiry, earliest node completion
            # among the executing set, and the scheduler's requested
            # wakeup.  None means no event can ever change the state.
            best = None
            if pending:
                c = pending[0][0] - t
                if c > 0:
                    best = c
            if deadline_heap:
                c = deadline_heap[0][0] - t
                if c > 0 and (best is None or c < best):
                    best = c
            if exec_min is not inf:
                # min-then-ceil equals the per-job (and per-node)
                # ceil-then-min: ceil is monotone
                c = ceil(exec_min / speed)
                if c > 0 and (best is None or c < best):
                    best = c
            if wakeup is not None:
                wt = wakeup(t)
                if wt is not None:
                    if wt <= t:
                        raise SimulationError(
                            f"scheduler wakeup {wt} not after t={t}"
                        )
                    c = wt - t
                    if best is None or c < best:
                        best = c
            if best is None:
                dt = None
            else:
                dt = 1 if best < 1 else best

            if dt is None:
                if target is None:
                    # Nothing executing and no future event can change that.
                    self._abandon_all(state)
                    state.done = True
                    break
                # streaming: the next submission (at or before target) is
                # the event batch mode would have fast-forwarded to
                dt = target - t
            elif target is not None:
                dt = min(dt, target - t)
            if horizon is not None:
                dt = min(dt, horizon - t)
                if dt <= 0:
                    self._abandon_all(state)
                    state.done = True
                    break

            # ---- execute the chunk ---------------------------------------
            if prof_exec is not None:
                _p0 = perf()
            completions: list[ActiveJob] = []
            amount = speed * dt
            finished_any: list[tuple[ActiveJob, DAGJob]] = []
            for job, nodes, k, dag in assignment:
                # Inlined DAGJob.process_many (same operations in the
                # same order): one call per executing job per chunk was
                # the largest remaining fixed cost of the event loop.
                dag_state = dag._state
                remaining = dag._remaining
                ready = dag._ready
                works = dag._works
                unmet = dag._unmet
                succ = dag._succ
                completed = 0
                for node in nodes:
                    rem = remaining[node] - amount
                    if rem > _RESIDUE:
                        remaining[node] = rem
                        continue
                    remaining[node] = 0.0
                    dag_state[node] = _DONE
                    # done_work accumulates per node, in completion
                    # order, so laxity observers see the exact
                    # historical float sum
                    dag._done_work += works[node]
                    completed += 1
                    del ready[node]
                    for v in succ[node]:
                        u = unmet[v] - 1
                        unmet[v] = u
                        if u == 0:
                            dag_state[v] = _READY
                            ready[v] = None
                if completed:
                    dag._done_count += completed
                    dag.ready_version += 1
                    finished_any.append((job, dag))
                job.processor_steps += k * dt
                # same subtraction the depletion applied to the argmin
                # node, so the memo stays bit-equal to min(remaining)
                job._min_rem -= amount
            counters.steps += dt
            counters.allocated_steps += allocated_procs * dt
            counters.busy_steps += executing_procs * dt
            if prof_exec is not None:
                prof_exec.observe(perf() - _p0)
            if emit is not None:
                # the payload copies (job_id, k, n_nodes) out as ints and
                # builds its dict lazily when the trace is read --
                # per-entry rendering here was the single largest cost
                # of tracing
                emit(t, "slice", None, SliceData(t + dt, assignment))
            t += dt
            state.t = t

            # ---- completions at t ----------------------------------------
            for job, dag in finished_any:
                # inlined DAGJob.is_complete
                if dag._done_count == dag._n and job.completion_time is None:
                    job.completion_time = t
                    job.earned_profit = self._profit_at_completion(job, t)
                    completions.append(job)
            for job in completions:
                job.executing = ()
                prev_running.pop(job.job_id, None)
                del active[job.job_id]
                add_finished(_finish_record(job))
                counters.completions += 1
                if emit is not None:
                    emit(
                        t,
                        "completion",
                        job.job_id,
                        {"profit": job.earned_profit},
                    )
                if debug_log:
                    logger.debug(
                        "t=%d completion job=%d profit=%.6g",
                        t, job.job_id, job.earned_profit,
                    )
                scheduler.on_completion(job.view, t)
                job.retire()

            if validate:
                self._validate_state(active)

    # ------------------------------------------------------------------
    def _profit_at_completion(self, job: ActiveJob, t: int) -> float:
        spec = job.spec
        offset = t - spec.arrival
        if spec.profit_fn is not None:
            return float(spec.profit_fn(offset))
        assert spec.deadline is not None
        return spec.profit if t <= spec.deadline else 0.0

    def _check_allocation(self, alloc: dict[int, int], active: dict[int, ActiveJob]) -> None:
        # Fast path for the common well-formed case: a plain dict over
        # known jobs with exact-int non-negative counts within m.  The
        # C-level keys/set/sum machinery replaces the per-key Python
        # loop; anything unusual falls through to the precise check
        # (type() of a bool is never int, so bools cannot slip past).
        if alloc.__class__ is dict and alloc.keys() <= active.keys():
            vals = alloc.values()
            if (
                set(map(type, vals)) <= {int}
                and sum(vals) <= self.m
                and (not alloc or min(vals) >= 0)
            ):
                return
        self._check_allocation_slow(alloc, active)

    def _check_allocation_slow(
        self, alloc: dict[int, int], active: dict[int, ActiveJob]
    ) -> None:
        if not isinstance(alloc, dict):
            raise AllocationError("allocation must be a dict of job_id -> processors")
        total = 0
        for job_id, k in alloc.items():
            if job_id not in active:
                raise AllocationError(f"allocation references inactive job {job_id}")
            if k.__class__ is not int and (
                not isinstance(k, int) or isinstance(k, bool)
            ):
                # exact-type check first: the slow isinstance pair only
                # runs for subclasses (e.g. numpy ints pass, bools fail)
                raise AllocationError(f"processor count for job {job_id} must be int")
            if k < 0:
                raise AllocationError(f"negative processor count for job {job_id}")
            total += k
        if total > self.m:
            raise AllocationError(f"allocation uses {total} > m={self.m} processors")

    def _abandon_all(self, state: _RunState) -> None:
        rec = self.recorder
        emit = rec.event if (rec is not None and rec.enabled) else None
        for job_id, job in list(state.active.items()):
            job.abandoned = True
            job.dag.mark_preempted(job.executing)
            job.executing = ()
            state.prev_running.pop(job_id, None)
            state.add_finished(_finish_record(job))
            state.counters.abandons += 1
            if emit is not None:
                emit(state.t, "abandon", job_id)
            del state.active[job_id]
            job.retire()

    def _validate_state(self, active: dict[int, ActiveJob]) -> None:
        from repro.dag.validate import validate_job_state

        for job in active.values():
            validate_job_state(job.dag)

    # ------------------------------------------------------------------
    # Snapshot helpers
    # ------------------------------------------------------------------
    def _active_to_dict(self, job: ActiveJob) -> dict[str, Any]:
        from repro.workloads.serialize import spec_to_dict

        return {
            "spec": spec_to_dict(job.spec),
            "dag": job.dag.runtime_state_to_dict(),
            "executing": [int(n) for n in job.executing],
            "assigned_deadline": job.assigned_deadline,
            "processor_steps": job.processor_steps,
        }

    def _active_from_dict(self, data: dict[str, Any]) -> ActiveJob:
        from repro.dag.job import DAGJob
        from repro.workloads.serialize import spec_from_dict

        spec = spec_from_dict(data["spec"])
        job = ActiveJob(spec)
        job.dag = DAGJob.from_runtime_state(spec.structure, data["dag"])
        job.executing = tuple(int(n) for n in data["executing"])
        if data["assigned_deadline"] is not None:
            job.assigned_deadline = int(data["assigned_deadline"])
        job.processor_steps = float(data["processor_steps"])
        return job


def _finish_record(job: ActiveJob) -> CompletionRecord:
    return CompletionRecord(
        job_id=job.job_id,
        arrival=job.spec.arrival,
        deadline=job.spec.deadline,
        completion_time=job.completion_time,
        profit=job.earned_profit,
        processor_steps=job.processor_steps,
        expired=job.expired,
        abandoned=job.abandoned,
        assigned_deadline=job.assigned_deadline,
    )


def _record_to_dict(rec: CompletionRecord) -> dict[str, Any]:
    return {
        "job_id": rec.job_id,
        "arrival": rec.arrival,
        "deadline": rec.deadline,
        "completion_time": rec.completion_time,
        "profit": rec.profit,
        "processor_steps": rec.processor_steps,
        "expired": rec.expired,
        "abandoned": rec.abandoned,
        "assigned_deadline": rec.assigned_deadline,
        "extra": rec.extra,
    }


def _record_from_dict(data: dict[str, Any]) -> CompletionRecord:
    return CompletionRecord(
        job_id=int(data["job_id"]),
        arrival=int(data["arrival"]),
        deadline=data["deadline"],
        completion_time=data["completion_time"],
        profit=float(data["profit"]),
        processor_steps=float(data["processor_steps"]),
        expired=bool(data["expired"]),
        abandoned=bool(data["abandoned"]),
        assigned_deadline=data["assigned_deadline"],
        extra=dict(data.get("extra", {})),
    )


def _counters_to_dict(counters: RunCounters) -> dict[str, Any]:
    return {
        "decisions": counters.decisions,
        "steps": counters.steps,
        "allocated_steps": counters.allocated_steps,
        "busy_steps": counters.busy_steps,
        "preemptions": counters.preemptions,
        "completions": counters.completions,
        "expiries": counters.expiries,
        "abandons": counters.abandons,
        "extra": counters.extra,
    }


def _counters_from_dict(data: dict[str, Any]) -> RunCounters:
    return RunCounters(
        decisions=int(data["decisions"]),
        steps=int(data["steps"]),
        allocated_steps=float(data["allocated_steps"]),
        busy_steps=float(data["busy_steps"]),
        preemptions=int(data["preemptions"]),
        completions=int(data["completions"]),
        expiries=int(data["expiries"]),
        abandons=int(data["abandons"]),
        extra=dict(data.get("extra", {})),
    )
