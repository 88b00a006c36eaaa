"""The gateway tick's telemetry, kept current instead of recomputed.

* :class:`~repro.observability.metrics.MergedWindow` equals
  :func:`~repro.observability.metrics.merged_summary` after every step
  of a random history: observations on 1-5 histograms of capacity 1-8
  (so rings wrap), inputs appearing, vanishing and being replaced,
  telemetry folds that overwrite a count, and merges that renormalize a
  ring.
* ``SchedulingService.submit`` reports QUEUED exactly when the submitted
  entry is still in the ingest queue, under every shed policy.
* The service's ``queue_depth`` histogram binding follows a replaced
  registry, like its gauges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.shard import _fold_telemetry
from repro.core import SNSScheduler
from repro.gateway.kpi import KpiAggregator
from repro.observability.metrics import (
    MergedWindow,
    RingHistogram,
    merged_summary,
)
from repro.service import SchedulingService, make_shed_policy
from repro.service.queue import SHED_POLICIES
from repro.service.service import KPI_HISTOGRAM, Admission
from repro.service.telemetry import MetricsRegistry
from repro.workloads import WorkloadConfig, generate_workload

_capacities = st.integers(min_value=1, max_value=8)
_values = st.lists(st.integers(min_value=0, max_value=30), max_size=12)


def _registry(capacity, values=()):
    registry = MetricsRegistry()
    hist = registry.histogram(KPI_HISTOGRAM, capacity=capacity)
    for value in values:
        hist.observe(value)
    return registry


def _report(new, count, total, lo, hi):
    """A worker's telemetry report with no totals, as ``_fold_telemetry``
    takes it."""
    return {"counters": {}, "gauges": {}}, (new, count, total, lo, hi)


def _step(data, registries):
    """Apply one random change to ``registries`` (a list edited in place)."""
    kinds = ["observe", "fold", "renormalize", "replace", "vanish", "appear"]
    if not registries:
        kinds = ["appear"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "appear":
        if len(registries) < 5:
            at = data.draw(st.integers(0, len(registries)))
            registries.insert(at, _registry(data.draw(_capacities)))
        return
    i = data.draw(st.integers(0, len(registries) - 1))
    hist = registries[i].histogram(KPI_HISTOGRAM)
    if kind == "observe":
        for value in data.draw(_values):
            hist.observe(value)
    elif kind == "fold":
        # a worker report: its newest observations, then its lifetime
        # aggregates, which need not match what the mirror observed
        new = [float(v) for v in data.draw(_values)]
        count = data.draw(st.integers(0, hist.count + 2 * hist.capacity + 2))
        lo = min(new) if new else hist.min
        hi = max(new) if new else hist.max
        _fold_telemetry(registries[i], _report(new, count, count, lo, hi))
    elif kind == "renormalize":
        others = [
            _registry(data.draw(_capacities), data.draw(_values)).histogram(
                KPI_HISTOGRAM
            )
            for _ in range(data.draw(st.integers(0, 2)))
        ]
        hist.merge_many(others)
    elif kind == "replace":
        registries[i] = _registry(data.draw(_capacities), data.draw(_values))
    else:
        del registries[i]


class _CountingWindow(MergedWindow):
    __slots__ = ("rebuilds",)

    def __init__(self):
        super().__init__()
        self.rebuilds = 0

    def _rebuild(self, histograms):
        self.rebuilds += 1
        super()._rebuild(histograms)


class TestMergedWindow:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_merged_summary_after_every_step(self, data):
        registries = [
            _registry(data.draw(_capacities), data.draw(_values))
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        window = MergedWindow()
        for _ in range(data.draw(st.integers(1, 30))):
            _step(data, registries)
            found = [r.histogram(KPI_HISTOGRAM) for r in registries]
            if found:
                assert window.summary(found) == merged_summary(found)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_capacities, min_size=1, max_size=5),
        st.lists(
            st.tuples(st.integers(0, 4), _values), min_size=1, max_size=40
        ),
    )
    def test_observations_alone_never_rebuild(self, capacities, steps):
        """Plain observations -- the in-process gateway's only change --
        take the incremental path on every call after the first, as long
        as no histogram gains more than its capacity between calls."""
        hists = [RingHistogram("h", capacity=c) for c in capacities]
        window = _CountingWindow()
        window.summary(hists)
        for i, values in steps:
            hist = hists[i % len(hists)]
            for value in values[: hist.capacity]:
                hist.observe(value)
            assert window.summary(hists) == merged_summary(hists)
        assert window.rebuilds == 1

    def test_fold_rewriting_a_full_ring_at_the_same_count(self):
        """A fold that replaces a whole window but leaves count, length
        and cursor as they were is caught by the newest-observation
        check."""
        registry = _registry(2, [1, 2])
        found = [registry.histogram(KPI_HISTOGRAM)]
        window = MergedWindow()
        assert window.summary(found)["p50"] == 2.0
        _fold_telemetry(registry, _report([5.0, 6.0], 2, 3.0, 1.0, 2.0))
        assert window.summary(found) == merged_summary(found)
        assert window.summary(found)["p50"] == 6.0

    def test_fold_observing_more_than_the_count_grew(self):
        """Four observations folded in under a count that grew by one
        leave the cursor where one would; the check still rebuilds."""
        registry = _registry(3, [1, 2, 3])
        found = [registry.histogram(KPI_HISTOGRAM)]
        window = MergedWindow()
        window.summary(found)
        new = [5.0, 6.0, 7.0, 8.0]
        _fold_telemetry(registry, _report(new, 4, 9.0, 1.0, 8.0))
        assert found[0].window() == [6.0, 7.0, 8.0]
        assert window.summary(found) == merged_summary(found)
        assert window.summary(found)["p50"] == 7.0

    def test_no_histogram_reports_none(self):
        snap = KpiAggregator().snapshot(
            tick=1,
            sim_t=1,
            wall_s=0.0,
            registries=[MetricsRegistry()],
            active_shards=1,
            queue_depth=0,
            in_flight=0,
            generated=0,
            gateway_shed=0,
            buffer_depth=0,
        )
        assert snap["admission_latency_p50"] is None
        assert snap["admission_latency_mean"] is None


class TestSubmitOutcome:
    def test_outcomes_equal_the_queue_membership_rule(self):
        """QUEUED iff the submitted entry is still in the queue after
        release -- the rule ``submit`` used to evaluate by scanning."""
        specs = generate_workload(
            WorkloadConfig(n_jobs=300, m=4, load=4.0, seed=11)
        )
        for policy in sorted(SHED_POLICIES):
            service = SchedulingService(
                4,
                SNSScheduler(epsilon=1.0),
                capacity=6,
                shed_policy=make_shed_policy(policy),
                max_in_flight=3,
            )
            offered = []
            offer = service.queue.offer

            def capture(entry, offer=offer, offered=offered):
                offered.append(entry)
                return offer(entry)

            service.queue.offer = capture
            seen = set()
            for spec in sorted(specs, key=lambda s: (s.arrival, s.job_id)):
                outcome = service.submit(spec, t=spec.arrival)
                entry = offered[-1]
                queued = any(e is entry for e in service.queue.entries())
                if outcome is not Admission.SHED:
                    want = Admission.QUEUED if queued else Admission.ADMITTED
                    assert outcome is want, (policy, spec.job_id)
                else:
                    assert not queued
                seen.add(outcome)
            service.finish()
            assert seen == set(Admission), policy


class TestSampleBindings:
    def test_queue_depth_histogram_follows_a_new_registry(self):
        service = SchedulingService(m=2, scheduler=SNSScheduler(epsilon=1.0))
        service.start()
        service.advance_to(5)
        first = service.metrics
        assert first.find_histogram("queue_depth").count == 1
        service.metrics = MetricsRegistry()
        service.advance_to(10)
        service.advance_to(12)
        assert first.find_histogram("queue_depth").count == 1
        assert service.metrics.find_histogram("queue_depth").count == 2
        assert [s["t"] for s in service.metrics.samples] == [10, 12]
