"""Gantt charts and slice checks read from recorder traces.

The digests below pin the exact ``render_gantt`` + ``render_utilization``
text of four seeded runs (SNS, GlobalEDF, GeneralProfitScheduler, and a
small GlobalEDF run with an expiry).  They were taken from the engine's
former built-in allocation trace; rendering the same runs from
:class:`~repro.observability.recorder.TraceRecorder` events must give
the same bytes, directly and after a JSONL round-trip.
"""

import hashlib

import pytest

from repro.analysis import render_gantt, render_utilization, verify_trace_consistency
from repro.baselines import GlobalEDF
from repro.cluster import ClusterService, ShardConfig
from repro.core import GeneralProfitScheduler, SNSScheduler
from repro.dag import block, chain
from repro.observability import TraceRecorder, allocation_slices, write_jsonl
from repro.observability.cli import load_trace
from repro.sim import JobSpec, Simulator
from repro.workloads import WorkloadConfig, generate_workload
from repro.workloads.profits import make_profit_fn_sampler


def _case(name):
    """``(m, scheduler, specs)`` of one pinned run."""
    if name == "sns":
        config = WorkloadConfig(n_jobs=60, m=8, load=2.0, epsilon=1.0, seed=3)
        return 8, SNSScheduler(epsilon=1.0), generate_workload(config)
    if name == "edf":
        config = WorkloadConfig(n_jobs=40, m=6, load=1.5, seed=5)
        return 6, GlobalEDF(), generate_workload(config)
    if name == "profit":
        config = WorkloadConfig(
            n_jobs=25, m=4, load=2.0, family="fork_join", epsilon=1.0,
            profit_fn_sampler=make_profit_fn_sampler("linear"), seed=7,
        )
        return 4, GeneralProfitScheduler(epsilon=1.0), generate_workload(config)
    specs = [
        JobSpec(0, block(8), arrival=0, deadline=30, profit=1.0),
        JobSpec(1, chain(6), arrival=2, deadline=40, profit=1.0),
        JobSpec(2, chain(50), arrival=0, deadline=10, profit=1.0),  # expires
    ]
    return 4, GlobalEDF(), specs


#: name -> (sha256 of the rendered text, expired jobs in the run)
PINNED = {
    "sns": ("f8a0a5e87d893c0e1e31837567d99f1656f73edaabd9d2fb807026e582ccdf76", 27),
    "edf": ("eb2a39c5b3a9d102e2f0c421e9e83fbb0b9eba6d9254e844348b8ab6ccca2da3", 0),
    "profit": ("10dd7e23d0fd6bcc8d759a91a5e2271266bea44a58f182947307129721b29243", 18),
    "edf-expiry": ("35f68cca7159eb56bc972bd85a1b5577bc94317e9291decaaeb0e51904031775", 1),
}


def _traced_run(name):
    m, scheduler, specs = _case(name)
    recorder = TraceRecorder()
    result = Simulator(m=m, scheduler=scheduler, recorder=recorder).run(specs)
    return result, recorder.events


def _digest(result, events):
    text = (
        render_gantt(result, events, width=72, max_jobs=24)
        + "\n"
        + render_utilization(result, events, width=72)
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
class TestPinnedRendering:
    def test_recorder_events_match_pinned_digest(self, name):
        result, events = _traced_run(name)
        digest, expired = PINNED[name]
        assert sum(r.expired for r in result.records.values()) == expired
        assert _digest(result, events) == digest
        assert verify_trace_consistency(result, events) == []

    def test_jsonl_round_trip_matches_pinned_digest(self, name, tmp_path):
        result, events = _traced_run(name)
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(events, path)
        loaded = load_trace(path)
        assert allocation_slices(loaded) == allocation_slices(events)
        assert _digest(result, loaded) == PINNED[name][0]
        assert verify_trace_consistency(result, loaded) == []


def test_cluster_shard_slices_are_consistent():
    specs = generate_workload(
        WorkloadConfig(n_jobs=80, m=8, load=2.5, family="mixed", epsilon=1.0, seed=4)
    )
    tracer = TraceRecorder()
    cluster = ClusterService(
        8, 2,
        config=ShardConfig(m=1, scheduler="sns", scheduler_kwargs={"epsilon": 1.0}),
        mode="inprocess", tracer=tracer,
    ).run_stream(specs)
    for shard, shard_result in enumerate(cluster.shard_results):
        slices = allocation_slices(tracer.events, shard=shard)
        assert slices
        # the shard's events, untagged: the trace of a single engine
        own = [ev[:1] + (None,) + ev[2:] for ev in tracer.events if ev[1] == shard]
        assert allocation_slices(own) == slices
        assert verify_trace_consistency(shard_result.result, own) == []
    # cluster-level events carry no slices of their own
    assert allocation_slices(tracer.events) == []
