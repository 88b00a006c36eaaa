"""Unit tests for repro.dag.validate."""

import pytest

from repro.dag import DAGJob, chain, validate_structure
from repro.dag.node import (
    ALLOWED_TRANSITIONS,
    NodeState,
    is_allowed_transition,
)
from repro.dag.validate import ValidationError, validate_job_state


class TestNodeState:
    def test_terminal(self):
        assert NodeState.DONE.is_terminal()
        assert not NodeState.READY.is_terminal()

    def test_executable(self):
        assert NodeState.READY.is_executable()
        assert NodeState.RUNNING.is_executable()
        assert not NodeState.PENDING.is_executable()
        assert not NodeState.DONE.is_executable()

    def test_allowed_transitions(self):
        assert is_allowed_transition(NodeState.PENDING, NodeState.READY)
        assert is_allowed_transition(NodeState.RUNNING, NodeState.READY)
        assert not is_allowed_transition(NodeState.DONE, NodeState.READY)
        assert not is_allowed_transition(NodeState.PENDING, NodeState.DONE)

    def test_transition_table_size(self):
        assert len(ALLOWED_TRANSITIONS) == 4


class TestValidateStructure:
    def test_good_structures_pass(self, diamond):
        validate_structure(diamond)
        validate_structure(chain(10))

    def test_indegrees_disagreeing_with_successors_detected(self, diamond):
        # the trusted unpickle path stores its indegrees unchecked
        rebuild, args = diamond.__reduce__()
        work, succ, order, indegree, *rest = args
        bad = rebuild(work, succ, order, (0, 1, 1, 1), *rest)
        assert indegree == (0, 1, 1, 2)
        with pytest.raises(ValidationError, match="indegree"):
            validate_structure(bad)


class TestValidateJobState:
    def test_fresh_job_valid(self, diamond):
        validate_job_state(DAGJob(diamond))

    def test_mid_execution_valid(self, diamond):
        job = DAGJob(diamond)
        job.mark_running([0])
        job.process(0, 1.0)
        job.mark_running([1])
        validate_job_state(job)

    def test_corrupted_ready_set_detected(self, diamond):
        job = DAGJob(diamond)
        job._ready[3] = None  # 3's predecessors are not done
        with pytest.raises(ValidationError):
            validate_job_state(job)

    def test_corrupted_state_detected(self, diamond):
        job = DAGJob(diamond)
        job._state[3] = NodeState.READY  # not in ready set, preds unfinished
        with pytest.raises(ValidationError):
            validate_job_state(job)

    def test_corrupted_counter_detected(self, diamond):
        job = DAGJob(diamond)
        job._done_count = 2
        with pytest.raises(ValidationError):
            validate_job_state(job)

    def test_remaining_work_mismatch_detected(self, diamond):
        job = DAGJob(diamond)
        job._remaining[0] = 0.0  # zero remaining but not DONE
        with pytest.raises(ValidationError):
            validate_job_state(job)
