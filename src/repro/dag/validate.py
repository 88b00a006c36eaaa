"""Structural and runtime validation for DAG jobs.

:func:`validate_structure` re-derives every invariant a
:class:`~repro.dag.graph.DAGStructure` is supposed to establish at
construction time; it is used by tests, by loaders of externally supplied
DAGs, and by the engine's optional paranoid mode.
"""

from __future__ import annotations

import numpy as np

from repro.dag.graph import DAGStructure
from repro.dag.job import DAGJob
from repro.dag.node import NodeState


class ValidationError(AssertionError):
    """A DAG structure or job state violated a model invariant."""


def validate_structure(structure: DAGStructure) -> None:
    """Check all structural invariants; raise :class:`ValidationError`.

    Invariants checked:

    * node works are positive and finite;
    * the stored indegrees match the successor table (the two
      redundant views :class:`~repro.dag.job.DAGJob` reads: it unlocks
      successors by counting down indegrees);
    * the stored topological order is a valid permutation that respects
      every edge;
    * ``span <= total_work`` and ``span >= max node work``;
    * ``total_work`` equals the sum of node works.
    """
    n = structure.num_nodes
    if n < 1:
        raise ValidationError("structure has no nodes")
    work = structure.work
    if not np.all(np.isfinite(work)) or np.any(work <= 0):
        raise ValidationError("node works must be positive and finite")

    counts = [0] * n
    for u in range(n):
        for v in structure.successors(u):
            counts[v] += 1
    if list(structure.indegree_list) != counts:
        raise ValidationError("indegree list does not match successor counts")

    topo = structure.topological_order()
    if sorted(topo) != list(range(n)):
        raise ValidationError("topological order is not a permutation of nodes")
    position = {node: i for i, node in enumerate(topo)}
    for u, v in structure.edges():
        if position[u] >= position[v]:
            raise ValidationError(f"edge ({u},{v}) violates topological order")

    if structure.span > structure.total_work + 1e-9:
        raise ValidationError("span exceeds total work")
    if structure.span < float(work.max()) - 1e-9:
        raise ValidationError("span below maximum node work")
    if abs(structure.total_work - float(work.sum())) > 1e-9:
        raise ValidationError("total_work does not match sum of node works")


def validate_job_state(job: DAGJob) -> None:
    """Check a job's runtime state is internally consistent.

    * every READY/RUNNING node has all predecessors DONE;
    * every PENDING node has some unfinished predecessor;
    * the ready set contains exactly the READY/RUNNING nodes;
    * DONE nodes have zero remaining work, others positive;
    * completion counters match node states.
    """
    struct = job.structure
    ready = set(job.ready_nodes())
    done = 0
    for node in range(struct.num_nodes):
        state = job.node_state(node)
        preds_done = all(
            job.node_state(p) == NodeState.DONE for p in struct.predecessors(node)
        )
        if state in (NodeState.READY, NodeState.RUNNING):
            if not preds_done:
                raise ValidationError(f"node {node} ready but predecessors unfinished")
            if node not in ready:
                raise ValidationError(f"node {node} executable but not in ready set")
        elif state == NodeState.PENDING:
            if preds_done and struct.predecessors(node):
                raise ValidationError(f"node {node} pending with all predecessors done")
            if not struct.predecessors(node):
                raise ValidationError(f"source node {node} should never be pending")
            if node in ready:
                raise ValidationError(f"pending node {node} in ready set")
        else:  # DONE
            done += 1
            if node in ready:
                raise ValidationError(f"done node {node} in ready set")
            if job.node_remaining(node) != 0.0:
                raise ValidationError(f"done node {node} has remaining work")
        if state != NodeState.DONE and job.node_remaining(node) <= 0.0:
            raise ValidationError(f"unfinished node {node} has no remaining work")
    if done != job.completed_nodes:
        raise ValidationError("completed-node counter out of sync")
    if job.is_complete() != (done == struct.num_nodes):
        raise ValidationError("is_complete inconsistent with node states")
