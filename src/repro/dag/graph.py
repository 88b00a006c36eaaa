"""Static DAG structure: topology plus per-node work.

:class:`DAGStructure` is the immutable description of a job's DAG.  It is
shared between runs -- the mutable execution state lives in
:class:`repro.dag.job.DAGJob`, so the same structure can be replayed under
many schedulers without copying the topology.

Two aggregate quantities drive the whole paper:

* ``work`` (:attr:`DAGStructure.total_work`): the sum of node works,
  written :math:`W_i` -- the job's execution time on one processor.
* ``span`` (:attr:`DAGStructure.span`): the longest path weight, written
  :math:`L_i` -- the job's execution time on infinitely many processors.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np


class _Topology:
    """A successor table and what Kahn's algorithm derives from it.

    Every field is a function of ``succ`` alone, so structures with
    equal successor tables share one record (see :data:`_TOPOLOGIES`).
    ``pred`` is the predecessor table, derived on first request; only
    validation and diagnostics ask for it.
    """

    __slots__ = (
        "succ",
        "indegree",
        "order",
        "initial_ready",
        "edge_count",
        "pred",
        "__weakref__",
    )

    def __init__(self, succ, indegree, order, initial_ready, edge_count) -> None:
        self.succ = succ
        self.indegree = indegree
        self.order = order
        self.initial_ready = initial_ready
        self.edge_count = edge_count
        self.pred = None


#: Validated topologies by successor table, held only as long as some
#: structure uses them.  Generated workloads repeat a few shapes (chains,
#: fork-joins, layered DAGs of equal size) many times; sharing their
#: tables keeps one copy per shape instead of one per job.
_TOPOLOGIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class DAGStructure:
    """Immutable topology and node works of a parallel job.

    Parameters
    ----------
    work:
        Per-node processing time; all entries must be positive and finite.
    edges:
        ``(u, v)`` pairs meaning node ``u`` must complete before node ``v``
        may start.  The graph must be acyclic.
    name:
        Optional human-readable label used in traces and exports.

    Notes
    -----
    Node ids are the integers ``0 .. n-1``, fixed by the order of ``work``.
    Duplicate edges are rejected -- they would corrupt the indegree
    counting that :class:`repro.dag.job.DAGJob` uses for readiness.

    Only the successor direction is stored, with the indegrees, the
    topological order and the initial ready set; that is all the
    runtime reads.  Structures built from equal successor tables share
    one copy of these tuples.
    """

    __slots__ = (
        "_work",
        "_shape",
        "_succ",
        "_name",
        "_total_work",
        "_span",
        "_tail",
        "_n",
    )

    def __init__(
        self,
        work: Sequence[float] | np.ndarray,
        edges: Iterable[tuple[int, int]] = (),
        name: str = "dag",
    ) -> None:
        work_arr = np.asarray(work, dtype=np.float64)
        if work_arr.ndim != 1 or work_arr.size == 0:
            raise ValueError("work must be a non-empty 1-D sequence")
        # Validation, toposort and span read plain floats: indexing
        # numpy scalars dominated construction, which runs on every WAL
        # recovery, audit re-read and worker-side steal inject.  A NaN
        # anywhere makes the (numpy) total NaN, which the min/max test
        # alone would miss.
        work_list = work_arr.tolist()
        total_work = float(work_arr.sum())
        if not (
            min(work_list) > 0.0
            and max(work_list) < math.inf
            and total_work == total_work
        ):
            raise ValueError("all node works must be positive and finite")
        n = len(work_list)
        succ: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u = int(u)
            v = int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            succ[u].append(v)

        table = tuple(tuple(s) for s in succ)
        shape = _TOPOLOGIES.get(table)
        if shape is None:
            shape = _toposort(table, len(seen))  # raises on cycles
            _TOPOLOGIES[shape.succ] = shape
        self._work = work_arr
        self._work.setflags(write=False)
        self._n = n
        self._shape = shape
        # alias of shape.succ: DAGJob and the spec encoders read it per job
        self._succ = shape.succ
        self._name = str(name)
        self._total_work = total_work
        self._span = self._compute_span(work_list)
        self._tail: np.ndarray | None = None

    def __reduce__(self):
        """Pickle what the constructor computed, not the inputs.

        Work travels as raw float64 bytes (no numpy reducer) and the
        topology as the validated successor table with its indegrees,
        order and initial ready set, so unpickling skips validation,
        toposort and span.  Like the default slot pickle this trusts
        its input: pickles only cross the shard pipe and in-memory
        checkpoint blobs.  The lazy caches are not shipped.
        """
        shape = self._shape
        return (
            _rebuild_structure,
            (
                self._work.tobytes(),
                shape.succ,
                shape.order,
                shape.indegree,
                shape.initial_ready,
                self._span,
                self._total_work,
                shape.edge_count,
                self._name,
            ),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable label."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the DAG."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of precedence edges."""
        return self._shape.edge_count

    @property
    def work(self) -> np.ndarray:
        """Read-only per-node work array."""
        return self._work

    @property
    def total_work(self) -> float:
        """Total work :math:`W` (sum of node works)."""
        return self._total_work

    @property
    def span(self) -> float:
        """Critical-path length :math:`L` (maximum path weight)."""
        return self._span

    def successors(self, node: int) -> tuple[int, ...]:
        """Nodes that depend on ``node``."""
        return self._succ[node]

    def predecessors(self, node: int) -> tuple[int, ...]:
        """Nodes that ``node`` depends on, in ascending order.

        Derived from the successor table on first call and kept with
        the shared topology; the runtime never asks (readiness runs on
        :attr:`indegree_list` counters), only validation and
        diagnostics do.
        """
        shape = self._shape
        if shape.pred is None:
            pred: list[list[int]] = [[] for _ in range(self._n)]
            for u, succs in enumerate(self._succ):
                for v in succs:
                    pred[v].append(u)
            shape.pred = tuple(tuple(p) for p in pred)
        return shape.pred[node]

    def indegree(self, node: int) -> int:
        """Number of predecessors of ``node``."""
        return self._shape.indegree[node]

    @property
    def indegree_list(self) -> tuple[int, ...]:
        """Per-node indegrees (precomputed; seeds the runtime's
        remaining-predecessor counters)."""
        return self._shape.indegree

    @property
    def initial_ready(self) -> tuple[int, ...]:
        """Zero-indegree nodes in topological order (precomputed) -- the
        ready set of a freshly started job, in its canonical insertion
        order."""
        return self._shape.initial_ready

    def sources(self) -> tuple[int, ...]:
        """Nodes with no predecessors (ready at job start)."""
        indegree = self._shape.indegree
        return tuple(i for i in range(self._n) if not indegree[i])

    def sinks(self) -> tuple[int, ...]:
        """Nodes with no successors."""
        return tuple(i for i in range(self.num_nodes) if not self._succ[i])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all ``(u, v)`` precedence edges."""
        for u, succs in enumerate(self._succ):
            for v in succs:
                yield (u, v)

    def topological_order(self) -> tuple[int, ...]:
        """A topological ordering of node ids (Kahn's algorithm)."""
        return self._shape.order

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def _compute_span(self, work: list[float]) -> float:
        # Longest weighted path, DP over topological order.
        dist = [0.0] * self._n
        succ = self._succ
        for u in self._shape.order:
            d = dist[u] + work[u]
            dist[u] = d
            for v in succ[u]:
                if d > dist[v]:
                    dist[v] = d
        return max(dist)

    def tail_lengths(self) -> np.ndarray:
        """Longest path weight from each node to any sink, inclusive.

        The node(s) with the maximum tail lie on the critical path.  The
        adversarial ready-node picker (Figure 1 / Theorem 1) uses this to
        defer critical-path nodes for as long as possible.
        """
        if self._tail is None:
            tail = np.zeros(self.num_nodes, dtype=np.float64)
            for u in reversed(self._shape.order):
                best = 0.0
                for v in self._succ[u]:
                    if tail[v] > best:
                        best = tail[v]
                tail[u] = best + self._work[u]
            tail.setflags(write=False)
            self._tail = tail
        return self._tail

    def average_parallelism(self) -> float:
        """``W / L`` -- the classic parallelism measure of the DAG."""
        return self._total_work / self._span

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` with ``work`` node attrs."""
        import networkx as nx

        g = nx.DiGraph(name=self._name)
        for i in range(self.num_nodes):
            g.add_node(i, work=float(self._work[i]))
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DAGStructure(name={self._name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, W={self._total_work:.6g}, "
            f"L={self._span:.6g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAGStructure):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self._work, other._work)
            and self._succ == other._succ
        )

    def __hash__(self) -> int:
        return hash(
            (self._n, self._shape.edge_count, self._total_work, self._span)
        )


def _toposort(succ: tuple[tuple[int, ...], ...], edge_count: int) -> _Topology:
    """Kahn's algorithm over a successor table; raises on a cycle.

    The record also keeps the indegree list before mutation and the
    initial ready set: the seed nodes, which are also the first entries
    of the resulting order -- identical to filtering the topological
    order by zero indegree.
    """
    n = len(succ)
    indeg = [0] * n
    for succs in succ:
        for v in succs:
            indeg[v] += 1
    indegree = tuple(indeg)
    queue: deque[int] = deque(i for i in range(n) if indeg[i] == 0)
    initial_ready = tuple(queue)
    order: list[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise ValueError("graph contains a cycle")
    return _Topology(succ, indegree, tuple(order), initial_ready, edge_count)


def _rebuild_structure(
    work: bytes,
    succ: tuple[tuple[int, ...], ...],
    topo: tuple[int, ...],
    indegree: tuple[int, ...],
    initial_ready: tuple[int, ...],
    span: float,
    total_work: float,
    edge_count: int,
    name: str,
) -> DAGStructure:
    """Unpickle a :class:`DAGStructure` from :meth:`~DAGStructure.__reduce__`.

    The trusted path: no validation and no lookup in the shared
    topology table (the pickle's own memo already shares tables between
    structures pickled together)."""
    structure = DAGStructure.__new__(DAGStructure)
    structure._work = np.frombuffer(work, dtype=np.float64)  # read-only
    structure._n = len(succ)
    structure._shape = _Topology(succ, indegree, topo, initial_ready, edge_count)
    structure._succ = succ
    structure._span = span
    structure._total_work = total_work
    structure._name = name
    structure._tail = None
    return structure
