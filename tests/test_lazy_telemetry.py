"""Service gauges synced on read equal gauges synced at every sample.

A :class:`~repro.service.service.SchedulingService` whose registry
keeps no samples does not sync its ``SYNCED_GAUGES`` at each decision
point; it marks them stale and the registry syncs them before any read.
The property: two services driven by the same random history -- one
with a registry that keeps samples (eager sync), one with a registry
that keeps none (sync on read) -- read the same at every step:

* submissions, advances, steals (extract + re-inject), withdrawals of
  pending jobs and scale moves off the queue;
* registry swaps mid-run (the outgoing registries are read again later);
* snapshot-and-restore onto the same registry;
* and every read: ``values``, ``value``, ``gauge``, ``state_to_dict``,
  ``sample``, ``restore_from_dict``, ``merge_from``,
  ``merge_registries``, a worker's telemetry reply, and
  ``service_to_dict``.

Each round makes one to three changes, then reads through one read
method while the registry may be stale, so a read method that skips
the refresh makes the property fail.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.shard import _telemetry
from repro.core import SNSScheduler
from repro.service import SchedulingService
from repro.service.service import SYNCED_GAUGES
from repro.service.snapshot import service_from_dict, service_to_dict
from repro.service.telemetry import MetricsRegistry, merge_registries
from repro.workloads import WorkloadConfig, generate_workload

SPECS = sorted(
    generate_workload(WorkloadConfig(n_jobs=60, m=4, load=4.0, seed=3)),
    key=lambda sp: (sp.arrival, sp.job_id),
)

#: ways to change the services' state (or their registries)
STEPS = (
    "submit",
    "advance",
    "steal",
    "forget",
    "take_queued",
    "swap",
    "restore",
)
#: ways to read (or write through) a registry
READS = (
    "values",
    "value",
    "gauge",
    "state_to_dict",
    "sample",
    "restore_from_dict",
    "merge_from",
    "merge_registries",
    "telemetry",
    "service_to_dict",
)


def _service(keep: bool, max_in_flight) -> SchedulingService:
    service = SchedulingService(
        m=4,
        scheduler=SNSScheduler(epsilon=1.0),
        capacity=6,
        max_in_flight=max_in_flight,
        metrics=MetricsRegistry(keep_samples=keep),
    )
    service.start()
    return service


def _read(kind: str, service: SchedulingService, name: str):
    """One read of ``service``'s registry, through one read method."""
    reg = service.metrics
    if kind == "values":
        return reg.values()
    if kind == "value":
        return reg.value(name)
    if kind == "gauge":
        return reg.gauge(name).value
    if kind == "state_to_dict":
        return reg.state_to_dict()
    if kind == "sample":
        return reg.sample(service.now)
    if kind == "restore_from_dict":
        # overwrite one gauge; a sync left pending would undo it later
        reg.restore_from_dict({"counters": {}, "gauges": {name: -1.0}})
        return None
    if kind == "merge_from":
        # fold into the live registry: a pending sync must land first
        extra = MetricsRegistry()
        extra.gauge(name).set(1.0)
        reg.merge_from(extra)
        return None
    if kind == "merge_registries":
        return merge_registries([reg]).values()
    if kind == "telemetry":
        return _telemetry(reg, 0)[0]
    assert kind == "service_to_dict"
    return json.dumps(service_to_dict(service), sort_keys=True)


def _apply(kind, service, arg, nxt):
    """Apply one state-changing op; returns the next spec index."""
    if kind == "submit":
        if nxt < len(SPECS):
            spec = SPECS[nxt]
            service.submit(spec, t=max(spec.arrival, service.now))
            return nxt + 1
    elif kind == "advance":
        service.advance_to(service.now + arg)
    elif kind == "steal":
        # odd: the job leaves for another shard; even: it comes back,
        # at once or after an advance
        active = sorted(service.sim._state.active)
        if active:
            payload = service.extract_running(active[arg % len(active)])
            if payload is not None and arg % 2 == 0:
                service.inject_running(payload, t=service.now + arg % 3)
    elif kind == "forget":
        pending = sorted(jid for _, jid, _ in service.sim._state.pending)
        if pending:
            service.forget_pending(pending[arg % len(pending)])
    elif kind == "take_queued":
        service.take_queued(arg % 3)
    return nxt


def _change(kind, arg, eager, lazy, retired, nxt):
    """Apply one step to both services; returns them and the next spec
    index."""
    if kind == "swap":
        retired.append((eager.metrics, lazy.metrics))
        eager.metrics = MetricsRegistry(keep_samples=True)
        lazy.metrics = MetricsRegistry(keep_samples=False)
    elif kind == "restore":
        eager, lazy = (
            service_from_dict(
                json.loads(json.dumps(service_to_dict(s))),
                SNSScheduler(epsilon=1.0),
                metrics=s.metrics,
            )
            for s in (eager, lazy)
        )
    else:
        nxt = max([_apply(kind, s, arg, nxt) for s in (eager, lazy)])
    return eager, lazy, nxt


_steps = st.lists(
    st.tuples(st.sampled_from(STEPS), st.integers(min_value=0, max_value=7)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    warmup=st.integers(min_value=0, max_value=30),
    rounds=st.lists(
        st.tuples(
            _steps, st.sampled_from(READS), st.sampled_from(SYNCED_GAUGES)
        ),
        min_size=1,
        max_size=20,
    ),
    tail=_steps,
    max_in_flight=st.sampled_from([None, 2, 4]),
)
def test_gauges_synced_on_read_equal_eager_gauges(
    warmup, rounds, tail, max_in_flight
):
    eager = _service(True, max_in_flight)
    lazy = _service(False, max_in_flight)
    retired = []  # (eager, lazy) registries swapped out mid-run
    nxt = 0
    for _ in range(warmup):
        eager, lazy, nxt = _change("submit", 0, eager, lazy, retired, nxt)
    for steps, read, name in rounds:
        for kind, arg in steps:
            eager, lazy, nxt = _change(kind, arg, eager, lazy, retired, nxt)
        # one read method on a registry the steps may have left stale
        assert _read(read, eager, name) == _read(read, lazy, name), read
        for old in retired:
            assert old[0].values() == old[1].values()
    for kind, arg in tail:  # finish may start on a stale registry
        eager, lazy, nxt = _change(kind, arg, eager, lazy, retired, nxt)
    eager_result, lazy_result = eager.finish(), lazy.finish()
    assert eager_result.metrics.values() == lazy_result.metrics.values()
    assert lazy_result.metrics.samples == []
    for old in retired:
        assert old[0].state_to_dict() == old[1].state_to_dict()


def test_no_sample_built_without_a_reader():
    """A registry that neither keeps nor streams gets no sample, and its
    gauges sync only when read."""
    service = _service(False, 2)
    for spec in SPECS[:20]:
        service.submit(spec, t=spec.arrival)
    reg = service.metrics
    assert reg.samples == [] and not reg.records_samples
    assert reg._stale is not None
    assert reg.value("queue_depth") == service.queue.depth
    assert reg._stale is None
    assert service.finish().metrics.samples == []
