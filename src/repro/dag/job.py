"""Mutable execution state of one DAG job.

:class:`DAGJob` layers runtime state (remaining work per node, readiness,
completion) over an immutable :class:`repro.dag.graph.DAGStructure`.  The
simulation engine is the only component that mutates it; schedulers see
jobs through :class:`repro.sim.jobs.JobView`, which enforces the paper's
semi-non-clairvoyance (only ``W``, ``L`` and the *number* of ready nodes
are visible -- never the topology).

Hot-path layout
---------------
The engine touches per-node state once per executing node per decision,
so this class is deliberately *not* numpy-backed: scalar indexing of
numpy arrays and :class:`~repro.dag.node.NodeState` enum round-trips
cost roughly an order of magnitude more than plain ``list`` reads, and
the arrays never get large enough for vectorization to win back the
difference.  State lives in Python lists of floats/ints; readiness is
maintained *incrementally* via per-node remaining-predecessor counters
(``_unmet``) updated on node completion, and the ready set is an
insertion-ordered dict so pickers see nodes in became-ready order.
Aggregate queries that predate the rewrite (:meth:`remaining_work`)
reproduce the original numpy summation order bit-for-bit.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from repro.dag.graph import DAGStructure
from repro.dag.node import NodeState

# Int values of NodeState, inlined for hot-path comparisons.
_PENDING = int(NodeState.PENDING)
_READY = int(NodeState.READY)
_RUNNING = int(NodeState.RUNNING)
_DONE = int(NodeState.DONE)

#: Residual work at or below this is snapped to zero (float-drift guard).
_RESIDUE = 1e-12


class DAGJob:
    """Runtime instance of a DAG job.

    The engine drives a job through three operations:

    * :meth:`ready_nodes` -- which nodes may execute right now;
    * :meth:`process_many` -- deplete work from the executing node set
      and unlock successors of completed nodes (the batched form of
      :meth:`process`);
    * :meth:`is_complete` -- all nodes done.

    Work depletion is fractional (preemption at any step boundary), but
    readiness changes only when a node's remaining work hits zero,
    matching the paper's model where a node is a sequential instruction
    block.
    """

    __slots__ = (
        "structure",
        "_n",
        "_succ",
        "_works",
        "_remaining",
        "_unmet",
        "_state",
        "_ready",
        "_done_count",
        "_done_work",
        "_partial",
        "ready_version",
    )

    def __init__(self, structure: DAGStructure) -> None:
        self.structure = structure
        self._n = structure.num_nodes
        # read-only alias of the structure's successor table; completion
        # unlocking walks it once per finished node
        self._succ = structure._succ
        # this job's own node works as Python floats (the structure
        # keeps none); release() frees them
        works = structure.work.tolist()
        self._works: list[float] = works
        self._remaining: list[float] = works.copy()
        self._unmet: list[int] = list(structure.indegree_list)
        state = [_PENDING] * structure.num_nodes
        self._ready: dict[int, None] = dict.fromkeys(structure.initial_ready)
        for i in self._ready:
            state[i] = _READY
        self._state: list[int] = state
        self._done_count = 0
        self._done_work = 0.0
        #: Bumped whenever the ready set's membership changes.  The engine
        #: uses it to reuse a previous FIFO pick when nothing changed.
        self.ready_version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_work(self) -> float:
        """Total work :math:`W` of the job."""
        return self.structure.total_work

    @property
    def span(self) -> float:
        """Critical-path length :math:`L` of the job."""
        return self.structure.span

    def ready_nodes(self) -> tuple[int, ...]:
        """Node ids currently allowed to execute (READY or RUNNING)."""
        return tuple(self._ready)

    def num_ready(self) -> int:
        """How many nodes may execute right now."""
        return len(self._ready)

    def is_ready(self, node: int) -> bool:
        """O(1) membership test against the current ready set."""
        return node in self._ready

    def node_state(self, node: int) -> NodeState:
        """Current state of ``node``."""
        return NodeState(self._state[node])

    def node_remaining(self, node: int) -> float:
        """Remaining work of ``node``."""
        return self._remaining[node]

    def first_ready(self, k: int) -> list[int]:
        """The first ``min(k, num_ready)`` ready nodes in became-ready
        order -- the FIFO pick, without materializing the full ready
        tuple (the engine's fast path for the default picker)."""
        ready = self._ready
        if len(ready) <= k:
            return list(ready)
        return list(islice(ready, k))

    def min_remaining(self, nodes: Sequence[int]) -> float:
        """Smallest remaining work among ``nodes`` (next completion)."""
        return min(map(self._remaining.__getitem__, nodes))

    def remaining_work(self) -> float:
        """Total unprocessed work across all nodes."""
        return float(self.structure.total_work - self._done_work - self._processed_partial())

    def _processed_partial(self) -> float:
        # Work already removed from not-yet-done nodes.  Reproduces the
        # original masked-numpy computation (pairwise summation order
        # included) so laxity-based schedulers observe identical floats.
        state = self._state
        if state is None:
            return self._partial  # released: the value fixed at release
        idx = [i for i, s in enumerate(state) if s != _DONE]
        if not idx:
            return 0.0
        remaining = self._remaining
        rem_arr = np.fromiter((remaining[i] for i in idx), dtype=np.float64, count=len(idx))
        return float((self.structure.work[idx] - rem_arr).sum())

    def remaining_span(self) -> float:
        """Longest remaining path weight over unfinished nodes.

        This is the quantity Observation 1 tracks: when all ready nodes
        execute at speed ``s``, it decreases at rate ``s``.  Computed on
        demand (O(nodes + edges)); used by diagnostics and tests, not by
        the engine's hot path.
        """
        struct = self.structure
        state = self._state
        remaining = self._remaining
        dist = np.zeros(struct.num_nodes, dtype=np.float64)
        for u in reversed(struct.topological_order()):
            if state[u] == _DONE:
                continue
            best = 0.0
            for v in struct.successors(u):
                if state[v] != _DONE and dist[v] > best:
                    best = dist[v]
            dist[u] = best + remaining[u]
        return float(dist.max()) if struct.num_nodes else 0.0

    def is_complete(self) -> bool:
        """Whether every node of the DAG has been processed."""
        return self._done_count == self._n

    @property
    def completed_nodes(self) -> int:
        """Number of DONE nodes."""
        return self._done_count

    # ------------------------------------------------------------------
    # Mutation (engine only)
    # ------------------------------------------------------------------
    def mark_running(self, nodes: Iterable[int]) -> None:
        """Flag ``nodes`` as RUNNING (must currently be executable)."""
        state = self._state
        for node in nodes:
            s = state[node]
            if s != _READY and s != _RUNNING:
                raise ValueError(
                    f"node {node} in state {NodeState(s).name} cannot run"
                )
            state[node] = _RUNNING

    def mark_preempted(self, nodes: Iterable[int]) -> None:
        """Return RUNNING ``nodes`` to READY (preemption)."""
        state = self._state
        for node in nodes:
            if state[node] == _RUNNING:
                state[node] = _READY

    def process(self, node: int, amount: float) -> bool:
        """Deplete ``amount`` work from ``node``; return True on completion.

        Completion unlocks successors whose other predecessors are all
        done, appending them to the ready set in successor order (the
        pick *policy* that chooses among ready nodes lives in
        :mod:`repro.sim.picker`, not here).
        """
        if amount < 0:
            raise ValueError("amount must be non-negative")
        s = self._state[node]
        if s != _READY and s != _RUNNING:
            raise ValueError(
                f"cannot process node {node} in state {NodeState(s).name}"
            )
        rem = self._remaining[node] - amount
        # Guard against float drift: snap tiny residues to done.
        if rem <= _RESIDUE:
            rem = 0.0
        self._remaining[node] = rem
        if rem > 0.0:
            return False
        self._complete_node(node)
        return True

    def process_many(self, nodes: Sequence[int], amount: float) -> int:
        """Deplete ``amount`` from each of ``nodes`` in order; return the
        number of nodes completed.

        Semantically identical to calling :meth:`process` per node (the
        nodes of one allocation are distinct, so depletions are
        independent and successors unlock in the same order), but one
        call per executing job instead of one per node -- the engine's
        chunk execution runs through here, with :meth:`_complete_node`
        inlined.

        Precondition: every node is executable (READY or RUNNING).  The
        engine guarantees this -- :meth:`mark_running` validates the node
        set at allocation time, so re-checking here would only re-verify
        the engine's own invariant once per node per chunk.
        """
        if amount < 0:
            raise ValueError("amount must be non-negative")
        state = self._state
        remaining = self._remaining
        ready = self._ready
        works = self._works
        unmet = self._unmet
        succ = self._succ
        completed = 0
        for node in nodes:
            rem = remaining[node] - amount
            if rem > _RESIDUE:
                remaining[node] = rem
                continue
            remaining[node] = 0.0
            state[node] = _DONE
            # done_work accumulates per node, in completion order, so
            # laxity observers see the exact historical float sum
            self._done_work += works[node]
            completed += 1
            del ready[node]
            for v in succ[node]:
                u = unmet[v] - 1
                unmet[v] = u
                if u == 0:
                    state[v] = _READY
                    ready[v] = None
        if completed:
            self._done_count += completed
            self.ready_version += 1
        return completed

    def _complete_node(self, node: int) -> None:
        state = self._state
        unmet = self._unmet
        state[node] = _DONE
        self._done_count += 1
        self._done_work += self._works[node]
        self.ready_version += 1
        del self._ready[node]
        for v in self._succ[node]:
            unmet[v] -= 1
            if unmet[v] == 0:
                state[v] = _READY
                self._ready[v] = None

    def add_overhead(self, node: int, amount: float) -> None:
        """Charge preemption overhead to an unfinished node.

        Models context-switch cost: remaining work grows by ``amount``,
        capped at the node's original work (a node never costs more
        than a cold restart).  No-op on DONE nodes.
        """
        if amount < 0:
            raise ValueError("overhead must be non-negative")
        if self._state[node] == _DONE:
            return
        original = self._works[node]
        self._remaining[node] = min(original, self._remaining[node] + amount)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.sim.engine / repro.service.snapshot)
    # ------------------------------------------------------------------
    def runtime_state_to_dict(self) -> dict:
        """Snapshot the mutable execution state to a JSON-compatible dict.

        Together with the immutable structure this fully determines the
        job (:meth:`from_runtime_state` inverts it).  ``done_work`` is
        stored rather than recomputed so the float accumulation order of
        the original run is preserved exactly (bit-identical
        ``remaining_work`` after a restore).
        """
        return {
            "remaining": [float(w) for w in self._remaining],
            "state": [int(s) for s in self._state],
            "ready": [int(n) for n in self._ready],
            "done_work": float(self._done_work),
        }

    @classmethod
    def from_runtime_state(cls, structure: DAGStructure, data: dict) -> "DAGJob":
        """Rebuild a job from a structure and a
        :meth:`runtime_state_to_dict` snapshot.

        The ready set's insertion order is restored verbatim -- order-
        sensitive pickers (FIFO/LIFO) depend on it for deterministic
        replay.
        """
        job = cls(structure)
        n = structure.num_nodes
        remaining = [float(w) for w in data["remaining"]]
        states = [int(s) for s in data["state"]]
        if len(remaining) != n or len(states) != n:
            raise ValueError("runtime state does not match structure size")
        job._remaining = remaining
        job._state = states
        job._ready = {int(node): None for node in data["ready"]}
        job.ready_version += 1
        unmet = list(structure.indegree_list)
        done_count = 0
        for u in range(n):
            if states[u] == _DONE:
                done_count += 1
                for v in structure.successors(u):
                    unmet[v] -= 1
        job._unmet = unmet
        job._done_count = done_count
        job._done_work = float(data["done_work"])
        for node in job._ready:
            if not NodeState(states[node]).is_executable():
                raise ValueError(f"ready node {node} has non-executable state")
        return job

    def release(self) -> None:
        """Drop the per-node execution state of a job that left the run.

        The engine calls this once a job reaches its terminal event
        (completion, expiry, abandon, or extraction for migration):
        nothing reads the per-node lists afterwards, and freeing them
        then keeps long runs from piling up garbage for the cycle
        collector.  A released job still answers :meth:`is_complete`,
        :attr:`completed_nodes` and :meth:`remaining_work` (fixed at
        their final values) and reports no ready nodes; it can no
        longer execute, be snapshotted or be validated.
        """
        if self._done_count == self._n or self._works == self._remaining:
            # nothing partially processed: the masked sum is exactly 0.0
            self._partial = 0.0
        else:
            self._partial = self._processed_partial()
        self._works = self._remaining = self._unmet = self._state = None
        self._ready = {}

    def reset(self) -> None:
        """Restore the job to its initial (unexecuted) state."""
        struct = self.structure
        self._remaining[:] = self._works
        self._unmet = list(struct.indegree_list)
        state = [_PENDING] * struct.num_nodes
        self._ready = dict.fromkeys(struct.initial_ready)
        for i in self._ready:
            state[i] = _READY
        self._state = state
        self._done_count = 0
        self._done_work = 0.0
        self.ready_version += 1

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DAGJob({self.structure.name!r}, done={self._done_count}/"
            f"{self.structure.num_nodes}, ready={len(self._ready)})"
        )
