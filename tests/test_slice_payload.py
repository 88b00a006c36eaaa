"""Slice payloads copy out plain ints and render the same trace.

A ``"slice"`` event's :class:`~repro.observability.SliceData` keeps
``(job_id, k, n_nodes)`` per executing job as ints, so a trace holds no
engine object alive.  The exported JSONL of a pinned traced run is
byte-identical to the one the earlier by-reference payload rendered.
"""

from __future__ import annotations

import gc
import hashlib

from repro.core import SNSScheduler
from repro.dag import DAGJob
from repro.observability import SliceData, TraceRecorder
from repro.observability.export import to_jsonl
from repro.sim import Simulator
from repro.sim.jobs import ActiveJob, JobView
from repro.workloads import WorkloadConfig, generate_workload

#: sha256 of ``to_jsonl(events)`` for the run below, as rendered when
#: slice payloads still referenced the engine's assignment list
PINNED_JSONL_SHA256 = (
    "838e40857dcb7fdbff301198e4e72db51d81962e5b524aa3eeecfa3b13638b5a"
)


def _traced_run():
    specs = generate_workload(
        WorkloadConfig(n_jobs=1500, m=16, load=2.0, family="mixed", seed=3)
    )
    recorder = TraceRecorder()
    Simulator(m=16, scheduler=SNSScheduler(), recorder=recorder).run(specs)
    return recorder.events


def _slices(events) -> list[SliceData]:
    return [ev[5] for ev in events if ev[3] == "slice"]


def test_jsonl_digest_pinned():
    events = _traced_run()
    digest = hashlib.sha256(to_jsonl(events).encode()).hexdigest()
    assert digest == PINNED_JSONL_SHA256


def test_payload_references_no_engine_object():
    slices = _slices(_traced_run())
    assert slices and all(type(s) is SliceData for s in slices)
    forbidden = (ActiveJob, DAGJob, JobView, list)
    for payload in slices:
        for ref in gc.get_referents(payload):
            assert not isinstance(ref, forbidden)
            if type(ref) is tuple:
                assert all(type(x) is int for x in gc.get_referents(ref))


def test_render_groups_the_flat_ints():
    class Spec:
        def __init__(self, job_id):
            self.job_id = job_id

    class Job:
        def __init__(self, job_id):
            self.spec = Spec(job_id)

    assignment = [(Job(4), [0, 2], 3, None), (Job(9), [5], 1, None)]
    payload = SliceData(12, assignment)
    assignment.clear()  # the payload took a copy
    assert payload.render() == {"t1": 12, "entries": [(4, 3, 2), (9, 1, 1)]}
    assert payload.render() is payload.render()
    assert SliceData(3, []).render() == {"t1": 3, "entries": []}
