"""The timing proxies are transparent, and self time adds up.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pytest

from repro.core import SNSScheduler
from repro.service import SchedulingService
from repro.service.snapshot import service_from_dict, service_to_dict
from repro.workloads import WorkloadConfig, generate_workload

from perfbench.spans import SpanTracer, TimedRecorder, proxy_scheduler
from perfbench.workloads import WORKLOADS

#: Attributes the program reads off a scheduler with getattr/hasattr
#: (engines, service, coordinator, trace recorder).
PROBED = (
    "reads_progress",
    "constants",
    "wakeup_after",
    "assign_deadline",
    "started_states",
    "parked_states",
    "starved_states",
    "all_states",
    "started_ids",
    "snapshot_state",
    "restore_state",
    "on_start",
    "on_expiry",
)


def _specs(n=120, m=8, seed=3):
    return generate_workload(
        WorkloadConfig(n_jobs=n, m=m, load=2.0, family="mixed", epsilon=1.0, seed=seed)
    )


def test_proxy_forwards_every_probed_attribute():
    inner = SNSScheduler(epsilon=1.0)
    proxy = proxy_scheduler(inner, SpanTracer())
    for name in PROBED:
        assert hasattr(proxy, name) == hasattr(inner, name), name
        value = getattr(inner, name)
        if callable(value):
            assert getattr(proxy, name) == value, name
        else:
            assert getattr(proxy, name) is value, name
    assert getattr(proxy, "no_such_attribute", "absent") == "absent"
    assert type(proxy).__name__ == type(inner).__name__
    proxy.custom_flag = 7
    assert inner.custom_flag == 7


def test_proxy_keeps_coordination_view_and_snapshots():
    specs = _specs()
    services = []
    for wrap in (False, True):
        scheduler = SNSScheduler(epsilon=1.0)
        if wrap:
            scheduler = proxy_scheduler(scheduler, SpanTracer())
        service = SchedulingService(m=8, scheduler=scheduler)
        for spec in specs[:60]:
            service.submit(spec, t=spec.arrival)
        services.append(service)
    plain, proxied = services
    assert proxied.coordination_view() is not None
    assert proxied.coordination_view() == plain.coordination_view()
    snapshot = service_to_dict(proxied)
    assert snapshot == service_to_dict(plain)
    restored = service_from_dict(snapshot, SNSScheduler(epsilon=1.0))
    assert restored.now == plain.now


def test_self_time_is_duration_minus_children():
    tracer = SpanTracer()
    inner = tracer.wrap("b.inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()
        return sum(range(20000))

    tracer.begin("harness.repeat")
    tracer.wrap("a.outer", outer)()
    tracer.end("harness.repeat")
    spans = {span[0]: span for span in tracer.spans}
    by_op = {}
    for span in tracer.spans:
        by_op.setdefault(span[2], []).append(span)
    (outer_span,) = by_op["a.outer"]
    inner_spans = by_op["b.inner"]
    assert len(inner_spans) == 2
    assert all(span[1] == outer_span[0] for span in inner_spans)
    assert outer_span[5] == outer_span[4] - sum(span[4] for span in inner_spans)
    (root,) = by_op["harness.repeat"]
    assert spans[outer_span[1]] == root
    assert root[5] == root[4] - outer_span[4]


def test_timed_recorder_records_the_same_events():
    from repro.observability import TraceRecorder, event_data
    from repro.sim import Simulator

    specs = _specs()
    plain = TraceRecorder()
    Simulator(m=8, scheduler=SNSScheduler(epsilon=1.0), recorder=plain).run(specs)
    tracer = SpanTracer()
    timed = TimedRecorder(tracer)
    Simulator(m=8, scheduler=SNSScheduler(epsilon=1.0), recorder=timed).run(specs)

    def rows(events):
        return [(*event[:5], event_data(event)) for event in events]

    assert rows(timed.events) == rows(plain.events)
    assert tracer.aggregates["obs.event"][0] == len(plain)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_fingerprint(name, tmp_path):
    workload = WORKLOADS[name](str(tmp_path))
    workload.n_jobs = 300
    specs = workload.generate(5)
    workload.prepare(specs)
    outcomes = []
    for tracer in (None, SpanTracer()):
        system = workload.setup(specs)
        try:
            if tracer is not None:
                workload.instrument(system, tracer)
            outcome = workload.run(system, specs, tracer)
            assert outcome.problems == []
            assert workload.check(system, outcome) == []
        finally:
            workload.teardown(system)
        outcomes.append(outcome)
    untraced, traced = outcomes
    assert traced.fingerprint == untraced.fingerprint
    assert tracer.spans, "the traced run recorded no spans"
    assert tracer.stack == []


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, section):
    import json
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())[section]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-durable",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
