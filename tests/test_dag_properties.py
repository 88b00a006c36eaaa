"""Property-based tests of the DAG substrate (hypothesis).

The key property is the paper's Observation 2 / Graham bound: executing
a job greedily on ``n`` dedicated processors finishes within
``(W - L)/n + L`` time *regardless* of which ready nodes are picked.
"""

import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import DAGJob, DAGStructure, validate_structure
from repro.dag.validate import validate_job_state
from tests.conftest import random_dags


@given(random_dags())
def test_structure_invariants(dag):
    validate_structure(dag)
    assert dag.span <= dag.total_work + 1e-9
    assert dag.span >= float(dag.work.max()) - 1e-9
    assert dag.num_nodes >= len(dag.sources()) >= 1
    assert len(dag.sinks()) >= 1


@given(random_dags())
def test_tail_lengths_bound_span(dag):
    tails = dag.tail_lengths()
    assert float(tails.max()) == dag.span
    for u in range(dag.num_nodes):
        for v in dag.successors(u):
            assert tails[u] >= tails[v] + dag.work[u] - 1e-9


@given(random_dags(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_serialization_round_trip(dag, _seed):
    from repro.dag import structure_from_json, structure_to_json

    assert structure_from_json(structure_to_json(dag)) == dag


def _numpy_span(work: np.ndarray, succ, topo) -> float:
    """Reference span: the longest-path DP over a numpy array."""
    dist = np.zeros(len(work), dtype=np.float64)
    for u in topo:
        dist[u] += work[u]
        for v in succ[u]:
            if dist[u] > dist[v]:
                dist[v] = dist[u]
    return float(dist.max())


@given(
    random_dags(max_nodes=16, integer_works=False, max_work=1000),
    st.randoms(use_true_random=False),
)
def test_span_is_bit_equal_to_a_numpy_dp(dag, rng):
    # relabel the nodes so edges do not all run low -> high
    order = list(range(dag.num_nodes))
    rng.shuffle(order)
    work = np.empty(dag.num_nodes)
    work[order] = dag.work
    edges = [(order[u], order[v]) for u, v in dag.edges()]
    relabeled = DAGStructure(work, edges)
    succ = [relabeled.successors(u) for u in range(relabeled.num_nodes)]
    reference = _numpy_span(work, succ, relabeled.topological_order())
    assert relabeled.span.hex() == reference.hex()
    assert relabeled.total_work.hex() == float(work.sum()).hex()


@given(random_dags(integer_works=False))
def test_pickle_ships_the_computed_structure(dag):
    dag.predecessors(0)  # a filled lazy cache is not shipped
    copy = pickle.loads(pickle.dumps(dag, pickle.HIGHEST_PROTOCOL))
    assert copy == dag
    for attr in (
        "name",
        "num_edges",
        "span",
        "total_work",
        "indegree_list",
        "initial_ready",
    ):
        assert getattr(copy, attr) == getattr(dag, attr)
    assert copy.topological_order() == dag.topological_order()
    assert copy.sources() == dag.sources()
    for v in range(dag.num_nodes):
        assert set(copy.predecessors(v)) == set(dag.predecessors(v))
        assert copy.indegree(v) == dag.indegree(v)
    assert not copy.work.flags.writeable


@given(random_dags(), st.randoms(use_true_random=False))
def test_derived_predecessors_match_the_edge_list(dag, rng):
    edges = list(dag.edges())
    rng.shuffle(edges)  # predecessor order must not follow edge order
    rebuilt = DAGStructure(dag.work, edges)
    for v in range(dag.num_nodes):
        reference = sorted(u for u, w in edges if w == v)
        assert list(rebuilt.predecessors(v)) == reference
        assert rebuilt.indegree(v) == len(reference)
    validate_structure(rebuilt)
    # equal edge lists build equal successor tables, stored once
    twin = DAGStructure(dag.work * 2.0, edges, name="twin")
    assert twin._succ is rebuilt._succ
    assert twin.topological_order() is rebuilt.topological_order()
    assert twin.span == 2.0 * rebuilt.span


def _greedy_run(dag, n: int, rng: np.random.Generator) -> int:
    """Execute with n processors and random ready picks; unit steps."""
    job = DAGJob(dag)
    steps = 0
    while not job.is_complete():
        ready = list(job.ready_nodes())
        if len(ready) > n:
            idx = rng.choice(len(ready), size=n, replace=False)
            picked = [ready[i] for i in idx]
        else:
            picked = ready
        job.mark_running(picked)
        for node in picked:
            job.process(node, 1.0)
        job.mark_preempted(job.ready_nodes())
        steps += 1
        assert steps <= dag.total_work + 1  # absolute sanity
    validate_job_state(job)
    return steps


@settings(max_examples=60, deadline=None)
@given(
    random_dags(max_nodes=10, max_work=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_observation2_graham_bound(dag, n, seed):
    """Greedy n-processor execution finishes within ceil((W-L)/n + L)
    steps for integer node works, no matter the pick order."""
    rng = np.random.default_rng(seed)
    steps = _greedy_run(dag, n, rng)
    bound = math.ceil((dag.total_work - dag.span) / n + dag.span)
    assert steps <= bound
    # ... and never below the trivial per-step work lower bound
    assert steps >= math.ceil(dag.total_work / n / dag.work.max())


@settings(max_examples=40, deadline=None)
@given(random_dags(max_nodes=10, max_work=4))
def test_observation1_span_decreases_when_all_ready_run(dag):
    """Running *all* ready nodes reduces the remaining span by exactly
    the step size (speed 1, unit steps, integer works)."""
    job = DAGJob(dag)
    while not job.is_complete():
        before = job.remaining_span()
        ready = list(job.ready_nodes())
        job.mark_running(ready)
        for node in ready:
            job.process(node, 1.0)
        after = job.remaining_span()
        assert after <= before - 1.0 + 1e-9
