"""Array-native simulation engine: the struct-of-arrays hot path.

:class:`ArraySimulator` is a drop-in :class:`~repro.sim.engine.Simulator`
subclass that replaces the per-decision Python object loop with a
persistent struct-of-arrays *arena*: the remaining work of every
executing node lives in one contiguous float64 vector, per-job
processor-step accumulators live in another, and a chunk of simulated
time is a handful of numpy array operations.  Decision points apply an
*incremental diff* of the scheduler's allocation against the arena --
jobs whose processor count did not change keep their segments untouched,
so the per-decision Python cost scales with allocation *churn*, not with
the number of executing jobs.

Bit-identity contract
---------------------
The array backend is pinned bit-identical to the event engine (records,
counters, end time and profit) by ``tests/test_engine_differential.py``.
That is not luck; it falls out of three IEEE-754 facts the arena relies
on:

* elementwise ``numpy.subtract`` on float64 performs the same rounding
  as the equivalent sequence of scalar Python subtractions, so draining
  node work through the arena produces the same bits as the object loop;
* ``min`` is order-independent at the bit level and commutes with
  subtracting a common amount (``min(a, b) - x == min(a - x, b - x)``),
  so the decremented arena-wide minimum equals the event engine's fused
  per-job minimum;
* products ``k * dt`` (processors times chunk length) are exact in
  float64 below 2**53, so vectorized processor-step accounting matches
  the scalar ``job.processor_steps += k * dt`` additions bit-for-bit.

Arena lifecycle
---------------
The arena is built at the first decision of an :meth:`advance` and
*materialized* (written back to the authoritative objects) before
anything outside the hot loop may observe execution progress: expiry
and completion records, horizon/drain abandonment, and returning
control to the caller.  DAG *structure* (ready sets, node states, done
counts) is never deferred -- node completions update it immediately --
so scheduler reads of ``num_ready`` and all arrival-time bookkeeping
always see current state.  Only node ``remaining`` values and per-job
``processor_steps`` ride in the arena between decision points.

Delegation policy
-----------------
Configurations that observe intra-chunk state delegate wholesale to the
parent event loop (which is the reference semantics, so the result is
trivially identical): invariant validation, an enabled structured
recorder, a profiler, any non-FIFO node picker, and schedulers that
declare :attr:`~repro.sim.scheduler.SchedulerBase.reads_progress`
(some scheduler hook reads ``JobView.work_completed``, which must never
see a stale arena).
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from typing import Optional

import numpy as np

from repro.dag.job import _RESIDUE
from repro.errors import SimulationError
from repro.sim.engine import _DONE, _READY, _RUNNING, Simulator, _finish_record
from repro.sim.jobs import ActiveJob
from repro.sim.picker import FIFOPicker

_INF = math.inf


class _Arena:
    """Struct-of-arrays execution state for one ``_advance`` call.

    ``ev`` holds the remaining work of every picked node, one contiguous
    ``k``-wide segment per allocated job (short picks are padded with
    ``+inf`` so a segment never moves while its job stays allocated).
    ``psteps`` accumulates per-job processor-steps and ``k_arr``/``tmp``
    serve the fused ``psteps += k * dt`` update; retired entry slots
    keep ``k_arr`` at 0 so they accumulate nothing.  ``owner`` maps an
    ``ev`` index back to its job id for the completion scan.  Retired
    segments are marked ``+inf`` and reclaimed by compaction when an
    append overflows capacity.
    """

    __slots__ = (
        "alloc",
        "entries",
        "ev",
        "owner",
        "psteps",
        "k_arr",
        "tmp",
        "next_off",
        "next_slot",
        "live_nodes",
        "allocated_procs",
        "executing_procs",
        "exec_min",
        "dirty",
        "cur_alloc",
    )

    def __init__(self) -> None:
        self.alloc: dict[int, int] = {}
        #: the scheduler's latest allocation dict, by reference -- its
        #: *iteration order* is the event engine's assignment order,
        #: which ``alloc`` (an equal-contents copy from an earlier
        #: decision) does not necessarily share
        self.cur_alloc: dict[int, int] = {}
        #: job_id -> [job, nodes, k, dag, off, slot]
        self.entries: dict[int, list] = {}
        self.ev = np.full(64, _INF, dtype=np.float64)
        self.owner = np.zeros(64, dtype=np.int64)
        self.psteps = np.zeros(16, dtype=np.float64)
        self.k_arr = np.zeros(16, dtype=np.float64)
        self.tmp = np.empty(16, dtype=np.float64)
        self.next_off = 0
        self.next_slot = 0
        self.live_nodes = 0
        self.allocated_procs = 0
        self.executing_procs = 0
        self.exec_min = _INF
        #: job ids whose pick must be rebuilt before the next chunk
        self.dirty: list[int] = []


class ArraySimulator(Simulator):
    """Event-identical simulation on a numpy struct-of-arrays core.

    Accepts exactly the :class:`~repro.sim.engine.Simulator` parameters
    and produces bit-identical results (records, counters, end time,
    profit, snapshots); see the module docstring for the contract and
    the delegation policy.  The win grows with the number of
    concurrently executing jobs and nodes: allocation-stable stretches
    cost a few array operations per decision regardless of width.
    """

    # ------------------------------------------------------------------
    def _advance(self, target: Optional[int]) -> None:
        """Process events up to ``target`` (``None`` = drain everything)."""
        rec = self.recorder
        if (
            self.validate
            or (rec is not None and rec.enabled)
            or self.profiler is not None
            or type(self.picker) is not FIFOPicker
            # Unknown scheduler implementations (no declaration) are
            # conservatively assumed to read execution progress.
            or getattr(self.scheduler, "reads_progress", True)
        ):
            return super()._advance(target)
        return self._advance_array(target)

    # ------------------------------------------------------------------
    def _advance_array(self, target: Optional[int]) -> None:
        state = self._require_session()
        horizon = self.horizon
        if target is not None and horizon is not None:
            target = min(target, horizon)
        scheduler = self.scheduler
        wakeup = getattr(scheduler, "wakeup_after", None)

        pending = state.pending
        active = state.active
        deadline_heap = state.deadline_heap
        add_finished = state.add_finished
        counters = state.counters
        speed = self.speed
        overhead = self.preemption_overhead
        on_arrival = scheduler.on_arrival
        assign_deadline = scheduler.assign_deadline
        heappop = heapq.heappop
        heappush = heapq.heappush
        inf = _INF
        ceil = math.ceil
        subtract = np.subtract
        multiply = np.multiply
        add = np.add

        arena: Optional[_Arena] = None

        while not state.done:
            if target is not None and state.t >= target:
                self._materialize(arena)
                return

            # ---- anchor the clock at the first arrival ---------------
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

            # ---- arrivals at (or before) t ---------------------------
            # Arrivals never read execution progress (progress-reading
            # schedulers were delegated), so the arena stays live.
            while pending and pending[0][0] <= state.t:
                _, _, spec = heappop(pending)
                job = ActiveJob(spec)
                active[spec.job_id] = job
                on_arrival(job.view, state.t)
                assigned = assign_deadline(job.view, state.t)
                if assigned is not None:
                    if assigned <= state.t:
                        raise SimulationError(
                            f"scheduler assigned past deadline "
                            f"{assigned} <= {state.t}"
                        )
                    job.assigned_deadline = int(assigned)
                eff = job.effective_deadline()
                if eff is not None:
                    heappush(deadline_heap, (eff, spec.job_id))

            # ---- expiries at t ---------------------------------------
            while deadline_heap and deadline_heap[0][0] <= state.t:
                _, job_id = heappop(deadline_heap)
                job = active.get(job_id)
                if job is None or not job.is_live():
                    continue  # stale entry
                eff = job.effective_deadline()
                if eff is None or eff > state.t:
                    continue
                if arena is not None:
                    entry = arena.entries.pop(job_id, None)
                    if entry is not None:
                        # finish record needs current processor_steps
                        self._retire_entry(arena, entry, write_back=True)
                        arena.exec_min = self._fresh_min(arena)
                job.expired = True
                job.dag.mark_preempted(job.executing)
                job.executing = ()
                state.prev_running.pop(job_id, None)
                del active[job_id]
                add_finished(_finish_record(job))
                counters.expiries += 1
                scheduler.on_expiry(job.view, state.t)

            state.end_time = state.t

            # ---- termination -----------------------------------------
            if target is None and not active and not pending:
                self._materialize(arena)
                arena = None
                state.done = True
                break
            if horizon is not None and state.t >= horizon:
                self._materialize(arena)
                arena = None
                self._abandon_all(state)
                state.done = True
                break

            t = state.t

            # ---- allocation ------------------------------------------
            alloc = scheduler.allocate(t)
            counters.decisions += 1
            if arena is None:
                self._check_allocation(alloc, active)
                arena = _Arena()
                self._apply_diff(arena, alloc, state, counters, overhead)
            elif alloc == arena.alloc:
                # Identical allocation: the arena stands (it was checked
                # when applied, and equal contents stay well-formed).
                # Node completions since the last chunk only require the
                # affected picks to be refreshed.
                if arena.dirty:
                    self._rewrite_dirty(arena, state, counters, overhead)
            else:
                self._check_allocation(alloc, active)
                self._apply_diff(arena, alloc, state, counters, overhead)
            # completion processing follows this dict's iteration order
            # (= the event engine's assignment order this decision)
            arena.cur_alloc = alloc

            # ---- choose chunk length dt ------------------------------
            exec_min = arena.exec_min
            best = None
            if pending:
                c = pending[0][0] - t
                if c > 0:
                    best = c
            if deadline_heap:
                c = deadline_heap[0][0] - t
                if c > 0 and (best is None or c < best):
                    best = c
            if exec_min != inf:
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
                    self._materialize(arena)
                    arena = None
                    self._abandon_all(state)
                    state.done = True
                    break
                dt = target - t
            elif target is not None:
                dt = min(dt, target - t)
            if horizon is not None:
                dt = min(dt, horizon - t)
                if dt <= 0:
                    self._materialize(arena)
                    arena = None
                    self._abandon_all(state)
                    state.done = True
                    break

            # ---- execute the chunk (array ops) -----------------------
            amount = speed * dt
            ev = arena.ev
            subtract(ev, amount, out=ev)  # retired/pad slots: inf stays inf
            multiply(arena.k_arr, dt, out=arena.tmp)
            add(arena.psteps, arena.tmp, out=arena.psteps)
            counters.steps += dt
            counters.allocated_steps += arena.allocated_procs * dt
            counters.busy_steps += arena.executing_procs * dt
            arena.exec_min = exec_min = arena.exec_min - amount
            t += dt
            state.t = t

            # ---- completions at t ------------------------------------
            if exec_min <= _RESIDUE:
                self._process_completions(arena, state, t)

    # ------------------------------------------------------------------
    # Arena plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _fresh_min(arena: _Arena) -> float:
        """Smallest remaining work over all live nodes (bit-equal to the
        event engine's fused per-job minimum; retired slots are inf)."""
        n = arena.next_off
        return float(arena.ev[:n].min()) if n else _INF

    def _materialize(self, arena: Optional[_Arena]) -> None:
        """Write arena state back to the authoritative objects.

        Called before anything outside the hot loop may observe
        execution progress.  Idempotent.
        """
        if arena is None:
            return
        ev = arena.ev
        psteps = arena.psteps
        for job, nodes, _k, dag, off, slot in arena.entries.values():
            seg = ev[off : off + len(nodes)].tolist()
            remaining = dag._remaining
            for j, nd in enumerate(nodes):
                remaining[nd] = seg[j]
            job.processor_steps = float(psteps[slot])
            # Bit-equal to the event engine's decremented memo: min is
            # order-independent and commutes with the chunk subtractions.
            job._min_rem = min(seg)

    def _retire_entry(self, arena: _Arena, entry: list, write_back: bool) -> None:
        """Release an entry's arena residency (segment -> inf, k -> 0).

        With ``write_back`` the authoritative objects receive the
        entry's current remaining/processor-step state first; callers
        that already wrote the state (job completion) skip it.
        """
        job, nodes, k, dag, off, slot = entry
        ev = arena.ev
        if write_back:
            seg = ev[off : off + len(nodes)].tolist()
            remaining = dag._remaining
            for j, nd in enumerate(nodes):
                remaining[nd] = seg[j]
            job._min_rem = min(seg)
        job.processor_steps = float(arena.psteps[slot])
        ev[off : off + k] = _INF
        arena.k_arr[slot] = 0.0
        arena.live_nodes -= k
        arena.allocated_procs -= k
        arena.executing_procs -= len(nodes)

    def _append_segment(self, arena: _Arena, job, nodes, k: int, dag) -> None:
        """Give a job arena residency: segment of width ``k`` plus an
        entry slot for processor-step accounting."""
        if arena.next_off + k > arena.ev.size or arena.next_slot >= arena.k_arr.size:
            self._compact(arena, k)
        off = arena.next_off
        arena.next_off = off + k
        slot = arena.next_slot
        arena.next_slot = slot + 1
        ev = arena.ev
        remaining = dag._remaining
        for j, nd in enumerate(nodes):
            ev[off + j] = remaining[nd]
        if len(nodes) < k:
            ev[off + len(nodes) : off + k] = _INF
        arena.owner[off : off + k] = job.job_id
        arena.psteps[slot] = job.processor_steps
        arena.k_arr[slot] = float(k)
        arena.live_nodes += k
        arena.allocated_procs += k
        arena.executing_procs += len(nodes)
        arena.entries[job.job_id] = [job, nodes, k, dag, off, slot]

    def _compact(self, arena: _Arena, need_nodes: int) -> None:
        """Drop retired segments/slots and resize for ``need_nodes`` more.

        Pure re-layout: values are copied, never recomputed, so no
        observable state changes.  Amortized O(live) by doubling.
        """
        node_cap = 64
        while node_cap < 2 * (arena.live_nodes + need_nodes):
            node_cap *= 2
        slot_cap = 16
        while slot_cap < 2 * (len(arena.entries) + 1):
            slot_cap *= 2
        ev = np.full(node_cap, _INF, dtype=np.float64)
        owner = np.zeros(node_cap, dtype=np.int64)
        psteps = np.zeros(slot_cap, dtype=np.float64)
        k_arr = np.zeros(slot_cap, dtype=np.float64)
        off = 0
        slot = 0
        old_ev = arena.ev
        for entry in arena.entries.values():
            _job, _nodes, k, _dag, old_off, old_slot = entry
            ev[off : off + k] = old_ev[old_off : old_off + k]
            owner[off : off + k] = _job.job_id
            psteps[slot] = arena.psteps[old_slot]
            k_arr[slot] = arena.k_arr[old_slot]
            entry[4] = off
            entry[5] = slot
            off += k
            slot += 1
        arena.ev = ev
        arena.owner = owner
        arena.psteps = psteps
        arena.k_arr = k_arr
        arena.tmp = np.empty(slot_cap, dtype=np.float64)
        arena.next_off = off
        arena.next_slot = slot

    # ------------------------------------------------------------------
    # Decision-point updates (each replicates the event engine's
    # per-decision assignment loop for exactly the jobs it touches)
    # ------------------------------------------------------------------
    def _apply_diff(self, arena: _Arena, alloc, state, counters, overhead) -> None:
        """Reconcile the arena with a changed allocation.

        Jobs keeping their processor count are untouched (their
        segments, picks, marks and memos are all still exact -- the
        same reasoning as the event engine's memo fast path); everything
        else follows the event engine's bookkeeping verbatim.
        """
        active = state.active
        prev_running = state.prev_running
        entries = arena.entries
        if arena.dirty:
            dirty = {jid: (pos, promo) for jid, pos, promo in arena.dirty}
        else:
            dirty = {}
        n_alloc = 0
        for job_id, k in alloc.items():
            if k <= 0:
                continue
            n_alloc += 1
            entry = entries.get(job_id)
            if entry is not None:
                if entry[2] == k:
                    info = dirty.get(job_id)
                    if info is not None:
                        self._rewrite_entry(
                            arena, entry, info[0], info[1],
                            state, counters, overhead,
                        )
                    continue
                # width changed: retire the segment but keep the job's
                # marks/prev_running -- the re-pick below runs the event
                # engine's memo-miss path against them
                del entries[job_id]
                self._retire_entry(arena, entry, write_back=True)
            self._add_entry(arena, job_id, k, state, counters, overhead)
        # jobs allocated nothing this round lose their running marks
        # (gate against the *allocated* job count, not the entry table:
        # a job explicitly allocated zero still holds a stale entry)
        if len(prev_running) > n_alloc:
            for job_id in list(prev_running):
                if alloc.get(job_id, 0) <= 0:
                    entry = entries.pop(job_id, None)
                    if entry is not None:
                        self._retire_entry(arena, entry, write_back=True)
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
        arena.alloc = dict(alloc)
        arena.dirty = []
        arena.exec_min = self._fresh_min(arena)

    def _add_entry(self, arena: _Arena, job_id: int, k: int, state, counters, overhead) -> None:
        """Event-engine per-job assignment bookkeeping + arena append."""
        job = state.active[job_id]
        dag = job.dag
        if job._pick_k == k and job._pick_version == dag.ready_version:
            # Memo hit: pick, RUNNING marks and prev_running entry are
            # all still exact (the job stayed allocated at this width
            # since the memo was written).
            nodes = job._pick_nodes
        else:
            ready = dag._ready
            nodes = list(ready) if len(ready) <= k else list(islice(ready, k))
            job._pick_k = k
            job._pick_version = dag.ready_version
            job._pick_nodes = nodes
            prev = state.prev_running.get(job_id)
            dag_state = dag._state
            if (
                prev is not None
                and prev != nodes
                and not (len(nodes) >= len(prev))
            ):
                now = set(nodes)
                stale = [
                    nd for nd in prev if nd not in now and dag_state[nd] != _DONE
                ]
                if stale:
                    counters.preemptions += len(stale)
                    dag.mark_preempted(stale)
                    if overhead > 0:
                        for nd in stale:
                            dag.add_overhead(nd, overhead)
            for nd in nodes:
                dag_state[nd] = _RUNNING
            state.prev_running[job_id] = nodes
            job.executing = tuple(nodes)
            job._assign = (job, nodes, k, dag)
            job._min_rem = min(map(dag._remaining.__getitem__, nodes))
        self._append_segment(arena, job, nodes, k, dag)

    def _rewrite_entry(
        self, arena: _Arena, entry: list, positions, promoted,
        state, counters, overhead,
    ) -> None:
        """Refresh one dirty entry's pick in place (same width ``k``).

        Runs at the next decision point after the pick-relative
        ``positions`` of the entry's segment completed (promoting
        ``promoted``), once the scheduler confirmed the job keeps ``k``
        processors.

        When the old pick covered the *entire* ready set (``len(old) ==
        len(old ready)``, detectable as ``survivors + promoted ==
        len(ready)`` now), the new pick is exactly the survivors in
        order plus the promoted nodes appended -- the event engine's
        ``list(ready)`` result -- and its preemption scan is provably
        empty (old minus new = completed = DONE), so the rebuild costs
        O(completed + promoted) instead of O(ready).  Otherwise the
        event engine's memo-miss path runs verbatim, reading surviving
        values from the arena (the authoritative copy) and writing back
        any still-live node the new pick drops.
        """
        job, old_nodes, k, dag, off, slot = entry
        ready = dag._ready
        ev = arena.ev
        n_old = len(old_nodes)
        old_seg = ev[off : off + n_old].tolist()
        dag_state = dag._state
        remaining = dag._remaining
        n_new = n_old - len(positions) + len(promoted)
        if n_new == len(ready) and n_new <= k:
            done = set(positions)
            nodes = []
            seg = []
            for i, nd in enumerate(old_nodes):
                if i in done:
                    continue
                nodes.append(nd)
                seg.append(old_seg[i])
            for nd in promoted:
                nodes.append(nd)
                seg.append(remaining[nd])
                dag_state[nd] = _RUNNING
            # survivors keep their RUNNING marks; the event engine's
            # stale scan is empty here (it would only find DONE nodes)
            job._pick_k = -1  # memo invalidated: _min_rem not refreshed
        else:
            nodes = list(ready) if len(ready) <= k else list(islice(ready, k))
            now = set(nodes)
            prev = state.prev_running.get(job.job_id)
            if (
                prev is not None
                and prev != nodes
                and not (len(nodes) >= len(prev))
            ):
                stale = [
                    nd for nd in prev if nd not in now and dag_state[nd] != _DONE
                ]
                if stale:
                    counters.preemptions += len(stale)
                    dag.mark_preempted(stale)
                    if overhead > 0:
                        for nd in stale:
                            dag.add_overhead(nd, overhead)
            for nd in nodes:
                dag_state[nd] = _RUNNING
            # seg values: survivors are authoritative in the arena, new
            # entrants never executed so their dict values are current;
            # dropped-but-live nodes get their arena value written back
            pos_of = {nd: i for i, nd in enumerate(old_nodes)}
            seg = []
            for nd in nodes:
                i = pos_of.get(nd)
                seg.append(remaining[nd] if i is None else old_seg[i])
            for nd, i in pos_of.items():
                if nd not in now:
                    remaining[nd] = old_seg[i]
            job._pick_k = -1  # memo invalidated: _min_rem not refreshed
        state.prev_running[job.job_id] = nodes
        job.executing = tuple(nodes)
        job._assign = (job, nodes, k, dag)
        n_seg = len(seg)
        if k <= 8:  # scalar stores beat slice-assign-from-list here
            for j, v in enumerate(seg):
                ev[off + j] = v
            for j in range(n_seg, k):
                ev[off + j] = _INF
        else:
            ev[off : off + n_seg] = seg
            if n_seg < k:
                ev[off + n_seg : off + k] = _INF
        arena.executing_procs += n_seg - n_old
        entry[1] = nodes

    def _rewrite_dirty(self, arena: _Arena, state, counters, overhead) -> None:
        """Refresh every dirty pick under an unchanged allocation."""
        entries = arena.entries
        for job_id, positions, promoted in arena.dirty:
            entry = entries.get(job_id)
            if entry is not None:
                self._rewrite_entry(
                    arena, entry, positions, promoted, state, counters, overhead
                )
        arena.dirty = []
        arena.exec_min = self._fresh_min(arena)

    # ------------------------------------------------------------------
    def _process_completions(self, arena: _Arena, state, t: int) -> None:
        """Handle node completions after a chunk.

        Touches *only* the completed arena slots (``done_idx`` from the
        vectorized scan); surviving nodes' values stay deferred in the
        arena.  DAG structure is updated immediately, per job in
        allocation order and per node in pick order -- the event
        engine's exact operation sequence.  Job completions release
        their entries; bare node completions queue a dirty rewrite
        (with their positions and promoted successors) for the next
        decision.
        """
        ev = arena.ev
        done_idx = np.nonzero(ev <= _RESIDUE)[0]
        if not done_idx.size:
            return  # conservative exec_min; inf slots never trip
        entries = arena.entries
        done_list = done_idx.tolist()
        owners = arena.owner[done_idx].tolist()
        # Segments are contiguous, so equal first/last owner means one
        # job; otherwise group positions per job, in assignment order
        # (the scheduler's *current* allocation dict order -- NOT the
        # stored equal-contents copy, whose insertion order may differ).
        if owners[0] == owners[-1]:
            groups = [(owners[0], done_list)]
        else:
            by_job: dict[int, list[int]] = {}
            for gi, jid in zip(done_list, owners):
                lst = by_job.get(jid)
                if lst is None:
                    by_job[jid] = [gi]
                else:
                    lst.append(gi)
            groups = [
                (jid, by_job[jid]) for jid in arena.cur_alloc if jid in by_job
            ]
        completions = []
        dirty = []
        for job_id, positions in groups:
            entry = entries.get(job_id)
            if entry is None:
                continue  # stale owner id on a retired slot
            job, nodes, _k, dag, off, _slot = entry
            dag_state = dag._state
            remaining = dag._remaining
            ready = dag._ready
            works = dag._works
            unmet = dag._unmet
            succ = dag._succ
            promoted = []
            rel = []  # pick-relative positions: segments can move
            # ascending slot order == pick order == the event engine's
            # per-node completion order within the job
            for gi in positions:
                i = gi - off
                rel.append(i)
                node = nodes[i]
                remaining[node] = 0.0
                ev[gi] = 0.0
                dag_state[node] = _DONE
                # done_work accumulates per node, in completion order,
                # exactly as the event engine's inlined process_many
                dag._done_work += works[node]
                del ready[node]
                for v in succ[node]:
                    u = unmet[v] - 1
                    unmet[v] = u
                    if u == 0:
                        dag_state[v] = _READY
                        ready[v] = None
                        promoted.append(v)
            dag._done_count += len(positions)
            dag.ready_version += 1
            if dag._done_count == dag._n and job.completion_time is None:
                job.completion_time = t
                job.earned_profit = self._profit_at_completion(job, t)
                completions.append(job)
            else:
                dirty.append((job_id, rel, promoted))
        if completions:
            add_finished = state.add_finished
            counters = state.counters
            prev_running = state.prev_running
            active = state.active
            scheduler = self.scheduler
            for job in completions:
                # every node already hit zero; only the processor-step
                # accumulator still lives in the arena
                entry = entries.pop(job.job_id)
                self._retire_entry(arena, entry, write_back=False)
                job.executing = ()
                prev_running.pop(job.job_id, None)
                del active[job.job_id]
                add_finished(_finish_record(job))
                counters.completions += 1
                scheduler.on_completion(job.view, t)
        arena.dirty = dirty
        if not dirty:
            # retired segments are inf again; refresh the stale minimum
            # (dirty picks refresh it after their rewrite instead)
            arena.exec_min = self._fresh_min(arena)
